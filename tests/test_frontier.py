"""The frontier-at-a-time Leapfrog evaluation (repro.wcoj.leapfrog).

Two oracles from :mod:`repro.wcoj.reference`: ``leapfrog_reference``
for results, and ``leapfrog_counters`` — Leapfrog one binding at a time
— for every ``LeapfrogStats`` counter.  Work is accounted from segment
lengths, so the counters must be the same integers on both paths.  With
``cache_capacity=`` (HCubeJ+Cache's CacheTrieJoin) the result and the
tuple counters stay those of the uncached run; only hits skip work.
"""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.wcoj.leapfrog as leapfrog_mod
from repro.data import Database, Relation
from repro.errors import BudgetExceeded, ConfigError, PlanError
from repro.query import Atom, JoinQuery, paper_query
from repro.wcoj import (
    LeapfrogStats,
    leapfrog_join,
    leapfrog_reference,
    leapfrog_sample_counts,
)
from repro.wcoj.reference import leapfrog_counters
from repro.workloads import graph_database_for

# ``parents * (max - min + 1)`` reaches 2**62: these levels are keyed by
# rank, not by offset.
WIDE = np.array([-2 ** 61, -1, 0, 7, 2 ** 61])

COUNTERS = ("level_tuples", "level_work", "level_extensions",
            "intersection_work", "extensions", "emitted")


def counters(result):
    return (result.count,
            *(getattr(result.stats, name) for name in COUNTERS))


def rows_of(result):
    return [tuple(row) for row in result.relation.data.tolist()]


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
            == counters(leapfrog_counters(query, db))

    @settings(max_examples=120, deadline=None)
    @given(case=hypergraphs())
    def test_random_hypergraphs(self, case):
        """Materializing runs enumerate every level; count-only runs
        (plain, ``fixed=`` and the sampler's) count their tail."""
        query, db, order, fixed = case
        oracle = counters(leapfrog_counters(query, db, order))
        frontier = leapfrog_join(query, db, order, materialize=True)
        assert counters(frontier) == oracle
        assert counters(leapfrog_join(query, db, order)) == oracle
        expected = leapfrog_reference(query, db, order)
        assert rows_of(frontier) == expected
        (attr, value), = fixed.items()
        pinned_oracle = counters(
            leapfrog_counters(query, db, order, fixed=fixed))
        pinned = leapfrog_join(query, db, order, fixed=fixed,
                               materialize=True)
        assert counters(pinned) == pinned_oracle
        assert counters(leapfrog_join(query, db, order, fixed=fixed)) \
            == pinned_oracle
        assert rows_of(pinned) \
            == [row for row in expected if row[order.index(attr)] == value]
        values = np.array([value, value, 3, 0])
        counts, stats = leapfrog_sample_counts(query, db, order, values)
        total = LeapfrogStats()
        for got, v in zip(counts, values):
            single = leapfrog_counters(query, db, order,
                                       fixed={order[0]: int(v)})
            assert got == single.count
            total.add(single.stats)
        assert stats == total


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
        rows = rows_of(result)
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


class TestCache:
    """``cache_capacity=``: each distinct node tuple of a chunk is
    extended once; hits skip work, nothing else moves."""

    @settings(max_examples=120, deadline=None)
    @given(case=hypergraphs())
    def test_zero_capacity_is_the_uncached_run(self, case):
        query, db, order, fixed = case
        for kwargs in ({}, {"fixed": fixed}):
            plain = leapfrog_join(query, db, order, materialize=True,
                                  **kwargs)
            cached = leapfrog_join(query, db, order, materialize=True,
                                   cache_capacity=0, **kwargs)
            assert counters(cached) == counters(plain)
            assert rows_of(cached) == rows_of(plain)
            assert cached.stats.cache_hits == 0

    @settings(max_examples=120, deadline=None)
    @given(case=hypergraphs())
    def test_unbounded_capacity_keeps_answer_and_tuple_counters(self, case):
        query, db, order, fixed = case
        for kwargs in ({}, {"fixed": fixed}):
            plain = leapfrog_join(query, db, order, materialize=True,
                                  **kwargs)
            cached = leapfrog_join(query, db, order, materialize=True,
                                   cache_capacity=2 ** 62, **kwargs)
            assert cached.count == plain.count
            assert rows_of(cached) == rows_of(plain)
            for name in ("level_tuples", "extensions", "emitted"):
                assert getattr(cached.stats, name) \
                    == getattr(plain.stats, name), name
            assert cached.stats.intersection_work \
                <= plain.stats.intersection_work

    @settings(max_examples=80, deadline=None)
    @given(case=hypergraphs(),
           capacity=st.sampled_from([0, 9, 60, 2 ** 62]))
    def test_every_free_extension_is_a_hit_or_a_miss(self, case, capacity):
        query, db, order, fixed = case
        pinned = order.index(next(iter(fixed)))
        for kwargs, fixed_levels in (({}, ()), ({"fixed": fixed}, (pinned,))):
            stats = leapfrog_join(query, db, order, cache_capacity=capacity,
                                  **kwargs).stats
            assert stats.cache_hits + stats.cache_misses == sum(
                n for d, n in enumerate(stats.level_extensions)
                if d not in fixed_levels)

    @pytest.mark.parametrize("chunk", [1, 7, leapfrog_mod._CHUNK])
    def test_small_chunks_keep_rows_lexicographic(self, monkeypatch, chunk):
        """Scattering a representative's children back keeps every
        binding's rows in place."""
        query, db = skewed_case("Q9", seed=5)
        plain = leapfrog_join(query, db, materialize=True)
        monkeypatch.setattr(leapfrog_mod, "_CHUNK", chunk)
        cached = leapfrog_join(query, db, materialize=True,
                               cache_capacity=2 ** 62)
        assert rows_of(cached) == rows_of(plain) \
            == leapfrog_reference(query, db)
        # A chunk of one binding has nothing to share; these seven-
        # candidate chunks hold too few bindings to repeat a key.
        assert (cached.stats.cache_hits > 0) == (chunk > 7)

    def test_negative_capacity_is_a_config_error(self):
        query, db = skewed_case("Q1", seed=1)
        with pytest.raises(ConfigError):
            leapfrog_join(query, db, cache_capacity=-1)


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
            == counters(leapfrog_counters(query, db, fixed={attr: value}))

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


def tail_case(atoms, order, seed, rows=60, dom=5):
    """Random relations for ``atoms`` (``(relation, attributes)``) with a
    hub first column, so tail segments of many lengths meet."""
    query = JoinQuery([Atom(r, attrs) for r, attrs in atoms])
    rng = np.random.default_rng(seed)
    relations = []
    for relation, attrs in atoms:
        data = rng.integers(0, dom, size=(rows, len(attrs)))
        data[: rows // 3, 0] = 0
        relations.append(Relation(relation, attrs, data))
    return query, Database(relations), order


def tail_start(query, order):
    """The first level from which every level has one participant."""
    s = len(order)
    while s and sum(order[s - 1] in a.attributes for a in query.atoms) == 1:
        s -= 1
    return s


# Each a query and an order whose trailing levels have one participant:
# ADJ's plan for Q5 (tail a, c), an interleaved tail (X, Y, X), a tail
# from level 0 (one atom; two disjoint atoms, a cross product).
TAILS = {
    "adj-q5": tail_case([("B1", ("b", "e", "a")), ("B2", ("b", "c", "d")),
                         ("R4", ("d", "e")), ("R7", ("b", "d"))],
                        ("b", "d", "e", "a", "c"), seed=11),
    "interleaved": tail_case([("X", ("a", "b", "d")), ("Y", ("a", "c"))],
                             ("a", "b", "c", "d"), seed=12),
    "one-atom": tail_case([("R", ("a", "b", "c"))], ("a", "b", "c"),
                          seed=13),
    "cross-product": tail_case([("R", ("a", "b")), ("S", ("c",))],
                               ("a", "b", "c"), seed=14),
}


class TestTail:
    """A count-only run counts its trailing one-participant levels from
    ``ptr`` ranges instead of gathering them; every counter stays the
    integer the enumeration accounts."""

    @pytest.mark.parametrize("name", TAILS)
    def test_counters_and_count(self, name):
        query, db, order = TAILS[name]
        assert tail_start(query, order) < len(order)
        result = leapfrog_join(query, db, order)
        assert counters(result) \
            == counters(leapfrog_counters(query, db, order))
        assert result.count == len(leapfrog_reference(query, db, order)) > 0
        assert counters(result) == counters(
            leapfrog_join(query, db, order, materialize=True))

    def test_tail_from_level_zero_is_a_product_of_sizes(self):
        query, db, order = TAILS["cross-product"]
        assert tail_start(query, order) == 0
        assert leapfrog_join(query, db, order).count \
            == len(db["R"]) * len(db["S"])
        query, db, order = TAILS["one-atom"]
        assert leapfrog_join(query, db, order).count == len(db["R"])

    @pytest.mark.parametrize("name", TAILS)
    def test_sample_counts(self, name):
        query, db, order = TAILS[name]
        values = np.array([0, 4, 0, 9, 2])
        counts, stats = leapfrog_sample_counts(query, db, order, values)
        total = LeapfrogStats()
        for got, value in zip(counts, values):
            single = leapfrog_counters(query, db, order,
                                       fixed={order[0]: int(value)})
            assert got == single.count
            total.add(single.stats)
        assert stats == total
        assert counts[3] == 0 < counts[0]

    @pytest.mark.parametrize("value,count", [(1, 3), (3, 3), (99, 0)])
    def test_empty_segment_in_the_middle(self, value, count):
        """A fixed level splits a one-atom chain: a binding whose
        segment lacks the value dies there (``a = 1`` for ``b = 1``,
        ``a = 0`` for ``b = 3``, all for 99), the rest reach the tail."""
        rows = [(0, 1, 0), (0, 1, 4), (0, 2, 1), (1, 2, 3), (1, 3, 0),
                (2, 1, 2), (2, 3, 3), (2, 3, 4)]
        query = JoinQuery([Atom("R", ("a", "b", "c"))])
        db = Database([Relation.from_tuples("R", ("x", "y", "z"), rows)])
        fixed = {"b": value}
        result = leapfrog_join(query, db, fixed=fixed)
        assert result.count == count
        assert counters(result) \
            == counters(leapfrog_counters(query, db, fixed=fixed))

    @pytest.mark.parametrize("name", ["adj-q5", "interleaved"])
    def test_budget_trips_inside_the_tail(self, name):
        query, db, order = TAILS[name]
        s = tail_start(query, order)
        free = leapfrog_join(query, db, order)
        total = free.stats.intersection_work
        assert counters(leapfrog_join(query, db, order, budget=total)) \
            == counters(free)
        before_tail = sum(free.stats.level_work[:s])
        for budget in (total - 1, before_tail):
            stats = LeapfrogStats()
            with pytest.raises(BudgetExceeded) as info:
                leapfrog_join(query, db, order, budget=budget, stats=stats)
            assert info.value.work_done > budget
            assert stats.intersection_work == info.value.work_done
            assert sum(stats.level_work) == stats.intersection_work
            assert stats.level_work[s] > 0

    @pytest.mark.parametrize("name", TAILS)
    def test_only_count_only_runs_skip_the_gather(self, monkeypatch, name):
        query, db, order = TAILS[name]
        s = tail_start(query, order)
        gathered = []
        real = leapfrog_mod._gather

        def recording(run, d, *args):
            gathered.append(d)
            return real(run, d, *args)

        monkeypatch.setattr(leapfrog_mod, "_gather", recording)
        leapfrog_join(query, db, order)
        assert all(d < s for d in gathered)
        for kwargs in ({"materialize": True}, {"cache_capacity": 2 ** 62}):
            gathered.clear()
            leapfrog_join(query, db, order, **kwargs)
            assert set(range(s, len(order))) <= set(gathered), kwargs


class TestStatsAdd:
    def test_an_empty_accumulator_adopts_the_levels(self):
        query, db = skewed_case("Q5", seed=2)
        stats = leapfrog_join(query, db).stats
        total = LeapfrogStats()
        total.add(stats)
        assert total == stats
        assert sum(total.level_work) == total.intersection_work
        stats.add(LeapfrogStats())
        assert stats == total

    def test_a_level_mismatch_raises(self):
        query, db = skewed_case("Q5", seed=2)
        stats = leapfrog_join(query, db).stats
        other = LeapfrogStats()
        other.reset(len(stats.level_tuples) - 1)
        with pytest.raises(PlanError):
            stats.add(other)


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
