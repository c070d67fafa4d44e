"""The frontier-at-a-time Leapfrog evaluation (repro.wcoj.leapfrog).

Two oracles: ``leapfrog_reference`` for results, and the per-binding
recursion — reached through a cache that admits nothing — for every
``LeapfrogStats`` counter.  Work is accounted from segment lengths, so
the counters must be the same integers on both paths.
"""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.wcoj.leapfrog as leapfrog_mod
from repro.data import Database, Relation
from repro.errors import BudgetExceeded
from repro.query import Atom, JoinQuery, paper_query
from repro.wcoj import (
    IntersectionCache,
    LeapfrogStats,
    leapfrog_join,
    leapfrog_reference,
    leapfrog_sample_counts,
)
from repro.workloads import graph_database_for

# ``parents * (max - min + 1)`` reaches 2**62: these levels are keyed by
# rank, not by offset.
WIDE = np.array([-2 ** 61, -1, 0, 7, 2 ** 61])

COUNTERS = ("level_tuples", "level_work", "level_extensions",
            "intersection_work", "extensions", "emitted")


def counters(result):
    return (result.count,
            *(getattr(result.stats, name) for name in COUNTERS))


def recursion(query, db, order=None, **kwargs):
    """The per-binding recursion: ``cache=`` runs it; capacity 0 caches
    nothing, so every intersection is computed and accounted."""
    cache = IntersectionCache(0)
    result = leapfrog_join(query, db, order, cache=cache, **kwargs)
    assert len(cache) == cache.hits == 0
    return result


def skewed_case(query_name, seed, n=160, dom=14):
    """Random edges where node 0 is a hub: short and long adjacency
    lists meet, so bindings of one chunk pick different drivers."""
    query = paper_query(query_name)
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, dom, size=(n, 2))
    edges[: n // 4, 0] = 0
    edges[n // 4: n // 2, 1] = 0
    return query, graph_database_for(query, edges)


@st.composite
def hypergraphs(draw):
    """A random join query with self-joins, arity 1-3 atoms, empty
    relations, a heavy-hitter first column and values too wide for an
    offset key (rank-encoded trie levels), plus an attribute order and
    one ``fixed`` constraint."""
    pool = "abcde"[: draw(st.integers(1, 5))]
    arities: dict[str, int] = {}
    atoms = []
    for i in range(draw(st.integers(1, 4))):
        arity = draw(st.integers(1, min(3, len(pool))))
        same_arity = [r for r, a in arities.items() if a == arity]
        relation = draw(st.sampled_from(same_arity + [f"R{i}"]))
        arities[relation] = arity
        atoms.append(Atom(relation, tuple(draw(st.permutations(pool))[:arity])))
    query = JoinQuery(atoms)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    wide = draw(st.booleans())
    relations = []
    for relation, arity in arities.items():
        rows = draw(st.sampled_from([0, 6, 40]))
        data = (rng.choice(WIDE, size=(rows, arity)) if wide
                else rng.integers(0, 7, size=(rows, arity)))
        if draw(st.booleans()):
            data[: rows // 2, 0] = 3
        relations.append(Relation(
            relation, tuple(f"c{j}" for j in range(arity)), data))
    order = tuple(draw(st.permutations(query.attributes)))
    fixed = {draw(st.sampled_from(order)):
             int(draw(st.sampled_from(WIDE if wide else range(8))))}
    return query, Database(relations), order, fixed


class TestCounterParity:
    @pytest.mark.parametrize("query_name", ["Q1", "Q5", "Q7", "Q9", "Q11"])
    def test_paper_queries(self, query_name):
        query, db = skewed_case(query_name, seed=3)
        assert counters(leapfrog_join(query, db)) \
            == counters(recursion(query, db))

    @settings(max_examples=120, deadline=None)
    @given(case=hypergraphs())
    def test_random_hypergraphs(self, case):
        query, db, order, fixed = case
        frontier = leapfrog_join(query, db, order, materialize=True)
        assert counters(frontier) == counters(recursion(query, db, order))
        expected = leapfrog_reference(query, db, order)
        assert [tuple(row) for row in frontier.relation.data.tolist()] \
            == expected
        (attr, value), = fixed.items()
        pinned = leapfrog_join(query, db, order, fixed=fixed,
                               materialize=True)
        assert counters(pinned) \
            == counters(recursion(query, db, order, fixed=fixed))
        assert [tuple(row) for row in pinned.relation.data.tolist()] \
            == [row for row in expected if row[order.index(attr)] == value]


class TestChunking:
    @pytest.mark.parametrize("chunk", [1, 7, leapfrog_mod._CHUNK])
    @pytest.mark.parametrize("query_name", ["Q1", "Q5", "Q9"])
    def test_rows_come_out_in_lexicographic_order(self, monkeypatch,
                                                  query_name, chunk):
        """Chunk boundaries and several driver groups per chunk change
        neither the rows, their order, nor any counter."""
        query, db = skewed_case(query_name, seed=5)
        whole = counters(leapfrog_join(query, db))
        monkeypatch.setattr(leapfrog_mod, "_CHUNK", chunk)
        result = leapfrog_join(query, db, materialize=True)
        rows = [tuple(row) for row in result.relation.data.tolist()]
        assert rows == leapfrog_reference(query, db)
        assert len(rows) > 0
        assert counters(result) == whole

    def test_a_chunk_mixes_driver_groups(self):
        """The case above is only a test of the merge if bindings of one
        frontier really pick different participants as their driver."""
        query, db = skewed_case("Q1", seed=5)
        tries = leapfrog_mod.build_tries(query, db, query.attributes)
        a_of_r3, b_of_r2 = tries[2].levels(), tries[1].levels()
        # Level c of a<b<c: R2(b, c) and R3(a, c) participate.
        assert np.diff(a_of_r3.ptr[0]).min() < np.diff(b_of_r2.ptr[0]).max()
        assert np.diff(b_of_r2.ptr[0]).min() < np.diff(a_of_r3.ptr[0]).max()


class TestFixed:
    @pytest.mark.parametrize("position", [0, 2, 4])
    @pytest.mark.parametrize("value", [0, 5, 99])
    def test_fixed_first_middle_last(self, position, value):
        query, db = skewed_case("Q5", seed=7, n=120, dom=9)
        order = query.attributes
        attr = order[position]
        full = leapfrog_join(query, db, materialize=True).relation.data
        expected = full[full[:, position] == value]
        result = leapfrog_join(query, db, fixed={attr: value},
                               materialize=True)
        assert np.array_equal(result.relation.data, expected)
        assert (value == 99) == (result.count == 0)
        assert counters(result) \
            == counters(recursion(query, db, fixed={attr: value}))

    def test_sample_counts_equal_one_join_per_value(self):
        query, db = skewed_case("Q1", seed=9)
        values = np.array([0, 3, 3, 99, 0, 7])
        counts, stats = leapfrog_sample_counts(query, db, None, values)
        total = LeapfrogStats(level_tuples=[0] * 3, level_work=[0] * 3,
                              level_extensions=[0] * 3)
        for got, value in zip(counts, values):
            single = leapfrog_join(query, db, fixed={"a": int(value)})
            assert got == single.count
            total.add(single.stats)
        assert stats == total
        assert counts[3] == 0 < counts[0]


class TestBudget:
    def test_budget_contract(self):
        query, db = skewed_case("Q9", seed=4)
        free = leapfrog_join(query, db)
        total = free.stats.intersection_work
        # Within budget: never trips, same answer, same counters.
        assert counters(leapfrog_join(query, db, budget=total)) \
            == counters(free)
        for budget in (total - 1, 5):
            stats = LeapfrogStats()
            with pytest.raises(BudgetExceeded) as info:
                leapfrog_join(query, db, budget=budget, stats=stats)
            assert info.value.budget == budget
            assert info.value.work_done > budget
            # The caller's stats hold the partial run.
            assert stats.intersection_work == info.value.work_done
            assert sum(stats.level_work) == stats.intersection_work
            assert stats.extensions >= 1


class TestNoReferenceCycles:
    @pytest.mark.parametrize("materialize", [False, True])
    def test_collector_finds_nothing_after_a_call(self, materialize):
        """A cycle would keep tries, level arrays and result chunks
        alive until a gen-2 collection (a pool child's peak RSS)."""
        query, db = skewed_case("Q1", seed=6)
        leapfrog_join(query, db, materialize=materialize)   # warm imports
        gc.collect()
        gc.disable()
        try:
            result = leapfrog_join(query, db, materialize=materialize)
            assert result.count > 0
            del result
            assert gc.collect() == 0
        finally:
            gc.enable()
