"""Sort-once binary joins (repro.data.relation, repro.kernels.binary).

``leapfrog_reference`` is the oracle for results.  Three properties ride
on every comparison: set semantics on duplicated input rows, outputs
born lexsorted (``natural_join`` never sorts its result), and a count
that equals the materialized length without gathering it.  The pinned
numbers were taken from the commit before the rewrite: accounted work
must not move with the implementation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.data.relation as relation_mod
from repro.data import Database, Relation, lexsorted_rows
from repro.data.relation import JoinProbe, sorted_set_rows
from repro.errors import BudgetExceeded
from repro.kernels import create_kernel
from repro.query import Atom, JoinQuery, paper_query
from repro.wcoj import LeapfrogStats, leapfrog_reference
from repro.wcoj.binary_join import (
    greedy_left_deep_plan,
    greedy_plan_with_estimates,
    run_left_deep,
)
from repro.workloads import graph_database_for

BIG = 2 ** 61


def born_sorted(rel: Relation) -> bool:
    """Rows are a lexsorted set, and the relation says so."""
    data = rel.data
    return (rel._sorted
            and np.array_equal(data, lexsorted_rows(data))
            and len(np.unique(data, axis=0)) == len(data))


def skewed_case(query_name, seed, n=160, dom=14):
    """The deterministic hub graph ``tests/test_frontier.py`` uses."""
    query = paper_query(query_name)
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, dom, size=(n, 2))
    edges[: n // 4, 0] = 0
    edges[n // 4: n // 2, 1] = 0
    return query, graph_database_for(query, edges)


@st.composite
def relation_pairs(draw):
    """Two relations sharing 0-2 attributes: arity 1-3, duplicated rows,
    negative values, empty sides, any column order."""
    shared = draw(st.integers(0, 2))
    common = ["k0", "k1"][:shared]
    left_attrs = draw(st.permutations(
        common + ["x", "y"][: draw(st.integers(0 if shared else 1,
                                               3 - shared))]))
    right_attrs = draw(st.permutations(
        common + ["z", "w"][: draw(st.integers(0 if shared else 1,
                                               3 - shared))]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    offset = draw(st.sampled_from([0, -3, BIG]))

    def rows(attrs):
        n = draw(st.sampled_from([0, 1, 9, 40]))
        data = rng.integers(-4, 5, size=(n, len(attrs)))
        if offset == BIG and n:
            # A spread the packed key cannot hold: the fallback runs.
            data[: n // 2 + 1, 0] += BIG
            data[n // 2 + 1:, 0] -= BIG
        return data + (0 if offset == BIG else offset)

    return (Relation("L", left_attrs, rows(left_attrs), dedup=False),
            Relation("R", right_attrs, rows(right_attrs), dedup=False))


@st.composite
def join_queries(draw):
    """2-4 atoms, acyclic or cyclic, arity 1-3, self-joins, duplicated
    and negative rows, empty relations; unconnected atoms (a cartesian
    step) happen when attribute draws are disjoint."""
    pool = "abcd"[: draw(st.integers(2, 4))]
    arities: dict[str, int] = {}
    atoms = []
    for i in range(draw(st.integers(2, 4))):
        arity = draw(st.integers(1, min(3, len(pool))))
        same_arity = [r for r, a in arities.items() if a == arity]
        relation = draw(st.sampled_from(same_arity + [f"R{i}"]))
        arities[relation] = arity
        atoms.append(Atom(relation, tuple(draw(st.permutations(pool))[:arity])))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    relations = []
    for relation, arity in arities.items():
        n = draw(st.sampled_from([0, 5, 30]))
        data = rng.integers(-3, 4, size=(n, arity))
        relations.append(Relation(
            relation, tuple(f"c{j}" for j in range(arity)),
            np.vstack([data, data[: n // 2]]), dedup=False))
    return JoinQuery(atoms), Database(relations)


def step_sizes(query, db) -> list[int]:
    """Every intermediate size of the greedy plan's left-deep loop."""
    sizes = []
    run_left_deep(query, db, greedy_left_deep_plan(query, db),
                  lambda probe: sizes.append(probe.size))
    return sizes


def reference_join(left: Relation, right: Relation) -> set:
    common = left.common_attributes(right)
    rest = [a for a in right.attributes if a not in common]
    out = set()
    for lt in left:
        for rt in right:
            lrow = dict(zip(left.attributes, lt))
            rrow = dict(zip(right.attributes, rt))
            if all(lrow[a] == rrow[a] for a in common):
                out.add(lt + tuple(rrow[a] for a in rest))
    return out


class TestNaturalJoin:
    @settings(max_examples=150, deadline=None)
    @given(pair=relation_pairs())
    def test_equals_nested_loops_and_is_born_sorted(self, pair):
        left, right = pair
        joined = left.natural_join(right)
        assert joined.as_set() == reference_join(left, right)
        assert born_sorted(joined)
        probe = JoinProbe(left, right)
        assert probe.size == len(joined) == int(probe.counts.sum())
        # Set semantics on both inputs, whatever their row order.
        assert len(probe.left) == len(left.as_set())
        assert len(probe.right) == len(right.as_set())

    @settings(max_examples=60, deadline=None)
    @given(pair=relation_pairs())
    def test_semijoin_keeps_rows_order_and_duplicates(self, pair):
        left, right = pair
        common = left.common_attributes(right)
        keys = {tuple(r[right.column_index(a)] for a in common)
                for r in right}
        expected = [t for t in left
                    if tuple(t[left.column_index(a)] for a in common) in keys]
        assert list(left.semijoin(right)) == expected

    def test_cartesian_product_is_born_sorted(self):
        left = Relation("L", ("a",), [[3], [-1], [3]], dedup=False)
        right = Relation("R", ("b", "c"), [[2, 0], [1, 9], [1, 9]],
                         dedup=False)
        joined = left.natural_join(right)
        assert joined.attributes == ("a", "b", "c")
        assert joined.data.tolist() == [[-1, 1, 9], [-1, 2, 0],
                                        [3, 1, 9], [3, 2, 0]]
        assert born_sorted(joined)

    def test_wide_values_take_the_fallback_and_agree(self, monkeypatch):
        rng = np.random.default_rng(1)
        small_l = rng.integers(-5, 6, size=(60, 2))
        small_r = rng.integers(-5, 6, size=(60, 2))
        stretch = np.array([[BIG, 0]])      # widens column 0 past 2**62

        def join(extra):
            left = Relation("L", ("a", "b"),
                            np.vstack([small_l, extra, -extra]), dedup=False)
            right = Relation("R", ("b", "c"),
                             np.vstack([small_r, extra, -extra]), dedup=False)
            return left.natural_join(right)

        calls = []
        real = relation_mod.row_group_ids
        monkeypatch.setattr(
            relation_mod, "row_group_ids",
            lambda *arrays: calls.append(1) or real(*arrays))
        packed = join(np.empty((0, 2), dtype=np.int64))
        assert not calls
        wide = join(stretch)
        assert calls
        assert born_sorted(wide)
        # The stretched rows join nothing new on ``b`` = 0 beyond what
        # the small rows with b = 0 already give them.
        small = wide.data[np.abs(wide.data[:, 0]) < BIG]
        assert np.array_equal(small, packed.data)

    def test_sorted_set_rows_matches_unique(self):
        rng = np.random.default_rng(2)
        for shape, lo, hi in [((200, 3), -9, 9), ((50, 1), -2, 3),
                              ((80, 2), -BIG, BIG)]:
            arr = rng.integers(lo, hi, size=shape)
            assert np.array_equal(sorted_set_rows(arr),
                                  np.unique(arr, axis=0))


class TestSortedFlag:
    def rel(self):
        return Relation("R", ("a", "b"), [[2, 1], [1, 5], [1, 2], [2, 1]])

    def test_established_by_dedup_and_join(self):
        assert self.rel()._sorted
        raw = Relation("R", ("a", "b"), [[2, 1], [1, 5]], dedup=False)
        assert not raw._sorted
        assert raw.sorted_set()._sorted
        assert raw.natural_join(self.rel().rename({"a": "c"}))._sorted
        assert Relation("R", ("a",), [[7]], dedup=False)._sorted  # one row

    def test_a_known_sorted_set_is_not_sorted_again(self, monkeypatch):
        rel, twin = self.rel(), self.rel()
        other = rel.rename({"a": "b", "b": "c"})
        monkeypatch.setattr(
            relation_mod, "_sorted_rows",
            lambda *a, **k: pytest.fail("re-sorted a known sorted set"))
        assert rel.sorted_set() is rel
        # ``other`` is sorted by (b, c): join column first, as the step
        # needs it, so neither side is sorted and neither is the output.
        assert born_sorted(rel.natural_join(other))
        assert rel == twin

    def test_kept_by_row_filters_and_renames(self):
        rel = self.rel()
        kept = [rel.rename({"a": "x"}), rel.select_equals("a", 1),
                rel.select_in("b", np.array([1, 5])),
                rel.semijoin(Relation("S", ("b",), [[1], [2]])),
                rel.reorder(("a", "b"))]
        assert all(born_sorted(r) for r in kept)

    def test_dropped_by_column_permutations(self):
        rel = self.rel()
        assert not rel.reorder(("b", "a"))._sorted
        # project and union re-establish it by sorting.
        assert born_sorted(rel.project(("b", "a")))
        assert born_sorted(rel.union(rel.select_equals("a", 2)))

    def test_unknown_order_stays_unknown(self):
        raw = Relation("R", ("a", "b"), [[2, 1], [1, 5]], dedup=False)
        assert not raw.rename({"a": "x"})._sorted
        assert not raw.select_in("a", np.array([1, 2]))._sorted
        assert not raw.semijoin(raw)._sorted
        assert raw == Relation("R", ("a", "b"), [[1, 5], [2, 1]])


class TestBinaryKernel:
    @settings(max_examples=120, deadline=None)
    @given(case=join_queries())
    def test_count_materialize_and_plan_join_agree_with_reference(self, case):
        query, db = case
        expected = leapfrog_reference(query, db)
        kernel = create_kernel("binary")
        counted = kernel.execute(query, db)
        full = kernel.execute(query, db, materialize=True)
        assert counted.relation is None
        assert counted.count == full.count == len(expected)
        # Rows are sorted in join order, columns permuted to the query's.
        assert sorted(map(tuple, full.relation.data.tolist())) == expected
        assert counted.stats == full.stats
        # The planner's step loop, run directly on the same duplicated
        # rows, gives the same set (columns in join order).
        plan_join, _ = run_left_deep(query, db,
                                     greedy_left_deep_plan(query, db),
                                     lambda probe: None)
        assert plan_join.reorder(query.attributes).as_set() == set(expected)

    def test_chain_sorts_each_input_once(self, monkeypatch):
        query, db = skewed_case("Q4", seed=3)
        raw = Database(Relation(r.name, r.attributes, r.data[::-1],
                                dedup=False) for r in db)
        sorts = []
        real = relation_mod._sorted_rows
        monkeypatch.setattr(
            relation_mod, "_sorted_rows",
            lambda arr, dedup: sorts.append(len(arr)) or real(arr, dedup))
        create_kernel("binary").execute(query, raw)
        # One sort per atom (first atom + one per right side); no
        # intermediate, 548..23147 rows long, is ever sorted.
        assert sorts == [len(r) for r in raw]

    @pytest.mark.parametrize("query_name, count, work, sizes", [
        ("Q7", 548, 712, [548]),
        ("Q4", 8114, 47586, [548, 3550, 23147, 11735, 8114]),
    ])
    def test_pinned_numbers_from_the_parent_commit(self, query_name, count,
                                                   work, sizes):
        query, db = skewed_case(query_name, seed=3)
        kernel = create_kernel("binary")
        n = len(query.attributes)
        for materialize in (False, True):
            result = kernel.execute(query, db, materialize=materialize)
            assert result.count == result.stats.emitted == count
            assert result.stats.intersection_work == work
            assert result.stats.level_tuples == [0] * (n - 1) + [count]
            assert result.stats.extensions == query.num_atoms - 1
        assert len(result.relation) == count
        assert step_sizes(query, db) == sizes

    def test_single_atom_query(self):
        db = Database([Relation("R", ("x", "y"), [[1, 2], [1, 2], [0, 3]],
                                dedup=False)])
        query = JoinQuery([Atom("R", ("a", "b"))])
        result = create_kernel("binary").execute(query, db, ("b", "a"),
                                                 materialize=True)
        assert result.count == result.stats.intersection_work == 2
        assert result.relation.data.tolist() == [[3, 0], [2, 1]]


class TestBudget:
    def test_kernel_budget_contract(self):
        query, db = skewed_case("Q4", seed=3)
        kernel = create_kernel("binary")
        free = kernel.execute(query, db)
        total = free.stats.intersection_work
        assert kernel.execute(query, db, budget=total).stats == free.stats
        # The parent's payloads: the whole run, and the first step
        # (160-row inputs deduplicated to 82 each, 548 out).
        for budget, work_done in ((total - 1, 47586), (5, 712)):
            stats = LeapfrogStats()
            with pytest.raises(BudgetExceeded) as info:
                kernel.execute(query, db, budget=budget, stats=stats)
            assert (info.value.work_done, info.value.budget) \
                == (work_done, budget)
            assert stats.intersection_work == work_done

    def test_an_over_budget_step_is_never_gathered(self, monkeypatch):
        query, db = skewed_case("Q4", seed=3)
        gathered = []
        real = JoinProbe.rows
        monkeypatch.setattr(
            JoinProbe, "rows",
            lambda self, name=None: gathered.append(self.size)
            or real(self, name))
        # Step 3 would produce 23147 rows; the budget stops at its size.
        with pytest.raises(BudgetExceeded):
            create_kernel("binary").execute(query, db, budget=20_000)
        assert gathered == [548, 3550]
        del gathered[:]
        # Count-only: the last step is sized, not gathered.
        assert create_kernel("binary").execute(query, db).count == 8114
        assert gathered == [548, 3550, 23147, 11735]


class TestPlanner:
    @pytest.mark.parametrize("query_name",
                             [f"Q{i}" for i in range(1, 12)])
    def test_plan_equals_the_fully_estimated_plan(self, query_name):
        for seed in (3, 8):
            query, db = skewed_case(query_name, seed=seed)
            plan, estimates = greedy_plan_with_estimates(query, db)
            assert greedy_left_deep_plan(query, db) == plan
            assert len(estimates) == query.num_atoms - 1

    def test_forced_steps_cost_no_distinct_count(self, monkeypatch):
        query, db = skewed_case("Q7", seed=3)
        monkeypatch.setattr(
            Relation, "distinct_count",
            lambda self, attr: pytest.fail("estimated a forced step"))
        assert greedy_left_deep_plan(query, db).atom_order == (0, 1)

    def test_deferred_estimate_is_replayed_when_a_choice_follows(self):
        """A leaf-first spider: the first step is forced, the second has
        two candidates and needs the running size the first one left."""
        query = JoinQuery([Atom("S", ("a", "b")), Atom("M", ("b", "c")),
                           Atom("T", ("c", "d")), Atom("U", ("c", "e"))])
        rng = np.random.default_rng(0)
        db = Database([
            Relation("S", ("x", "y"), rng.integers(0, 9, size=(10, 2))),
            Relation("M", ("x", "y"), rng.integers(0, 9, size=(60, 2))),
            Relation("T", ("x", "y"), rng.integers(0, 9, size=(50, 2))),
            Relation("U", ("x", "y"), rng.integers(0, 3, size=(40, 2))),
        ])
        plan, _ = greedy_plan_with_estimates(query, db)
        assert plan.atom_order[:2] == (0, 1)
        assert greedy_left_deep_plan(query, db) == plan
