"""Tests for repro.wcoj: cache, binary joins, AGM bound."""

import numpy as np
import pytest

from repro.data import Database, Relation
from repro.errors import BudgetExceeded, PlanError
from repro.kernels import create_kernel
from repro.query import paper_query, parse_query
from repro.wcoj import (
    BinaryPlan,
    IntersectionCache,
    agm_bound,
    brute_force_join,
    fractional_edge_cover_number,
    greedy_left_deep_plan,
    leapfrog_join,
)
from repro.wcoj.binary_join import run_left_deep


def _entry(num_values):
    vals = np.arange(num_values, dtype=np.int64)
    return (vals, [(vals.copy(), vals.copy())])


class TestIntersectionCache:
    def test_put_get_roundtrip(self):
        c = IntersectionCache(100)
        c.put(("k",), _entry(5))
        assert c.get(("k",)) is not None
        assert c.hits == 1

    def test_miss_counted(self):
        c = IntersectionCache(100)
        assert c.get(("missing",)) is None
        assert c.misses == 1

    def test_eviction_lru_order(self):
        c = IntersectionCache(30)
        c.put(("a",), _entry(5))   # 15 values
        c.put(("b",), _entry(5))   # 30 values total
        c.get(("a",))              # a becomes most-recent
        c.put(("c",), _entry(5))   # evicts b
        assert c.get(("b",)) is None
        assert c.get(("a",)) is not None
        assert c.evictions == 1

    def test_oversized_entry_never_admitted(self):
        c = IntersectionCache(10)
        c.put(("big",), _entry(100))
        assert len(c) == 0

    def test_replace_same_key(self):
        c = IntersectionCache(100)
        c.put(("k",), _entry(5))
        c.put(("k",), _entry(6))
        assert len(c) == 1

    def test_clear(self):
        c = IntersectionCache(100)
        c.put(("k",), _entry(5))
        c.clear()
        assert len(c) == 0 and c.used_values == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            IntersectionCache(-1)

    def test_zero_capacity_admits_nothing(self):
        c = IntersectionCache(0)
        c.put(("empty",), _entry(0))
        assert len(c) == 0 and c.get(("empty",)) is None


class TestBinaryJoin:
    def _db(self, seed=0):
        q = paper_query("Q1")
        rng = np.random.default_rng(seed)
        edges = rng.integers(0, 8, size=(50, 2))
        return q, Database([Relation(f"R{i}", ("x", "y"), edges)
                            for i in (1, 2, 3)])

    def test_matches_bruteforce(self):
        q, db = self._db()
        out = create_kernel("binary").execute(q, db, materialize=True)
        assert out.relation.as_set() == brute_force_join(q, db)

    def test_matches_leapfrog_on_q2(self):
        q = paper_query("Q2")
        rng = np.random.default_rng(1)
        edges = rng.integers(0, 10, size=(80, 2))
        db = Database([Relation(f"R{i}", ("x", "y"), edges)
                       for i in range(1, 7)])
        assert create_kernel("binary").execute(q, db).count \
            == leapfrog_join(q, db).count

    def test_plan_covers_all_atoms(self):
        q, db = self._db()
        plan = greedy_left_deep_plan(q, db)
        assert sorted(plan.atom_order) == [0, 1, 2]

    def test_incomplete_plan_rejected(self):
        q, db = self._db()
        with pytest.raises(PlanError):
            run_left_deep(q, db, BinaryPlan((0, 1)), lambda probe: None)

    def test_duplicate_plan_rejected(self):
        with pytest.raises(PlanError):
            BinaryPlan((0, 0, 1))

    def test_budget_enforced(self):
        q, db = self._db()
        with pytest.raises(BudgetExceeded):
            create_kernel("binary").execute(q, db, budget=1)

    def test_stats_record_intermediates(self):
        """``run_left_deep`` shows every step's probe to ``on_step``; the
        last step's size is the result's."""
        q, db = self._db()
        sizes = []
        result, count = run_left_deep(
            q, db, greedy_left_deep_plan(q, db),
            lambda probe: sizes.append(probe.size))
        assert len(sizes) == 2
        assert sizes[-1] == count == len(result)

    def test_disconnected_query_cartesian(self):
        q = parse_query("R(a,b), S(x,y)")
        db = Database([
            Relation("R", ("a", "b"), [(1, 2)]),
            Relation("S", ("x", "y"), [(3, 4), (5, 6)]),
        ])
        out = create_kernel("binary").execute(q, db, materialize=True)
        assert out.count == len(out.relation) == 2


class TestAGM:
    def _triangle_db(self, n):
        # complete directed graph on n nodes
        edges = [(i, j) for i in range(n) for j in range(n) if i != j]
        return Database([Relation(f"R{i}", ("x", "y"), np.array(edges))
                         for i in (1, 2, 3)])

    def test_triangle_cover_number(self):
        assert fractional_edge_cover_number(paper_query("Q1")) == \
            pytest.approx(1.5)

    def test_clique_cover_numbers(self):
        # k-clique: rho* = k/2.
        assert fractional_edge_cover_number(paper_query("Q2")) == \
            pytest.approx(2.0)
        assert fractional_edge_cover_number(paper_query("Q3")) == \
            pytest.approx(2.5)

    def test_agm_is_an_upper_bound(self):
        q = paper_query("Q1")
        db = self._triangle_db(6)
        count = leapfrog_join(q, db).count
        assert count <= agm_bound(q, db) + 1e-6

    def test_agm_triangle_formula(self):
        # Equal sizes N: bound = N^1.5.
        q = paper_query("Q1")
        db = self._triangle_db(5)
        n = len(db["R1"])
        assert agm_bound(q, db) == pytest.approx(n ** 1.5, rel=1e-6)

    def test_agm_zero_when_empty(self):
        q = paper_query("Q1")
        db = self._triangle_db(4)
        db.replace(Relation("R2", ("x", "y")))
        assert agm_bound(q, db) == 0.0

    def test_agm_tight_weighting(self):
        # One tiny relation should pull the bound down: the LP must put
        # weight on the cheap edge.
        q = paper_query("Q1")
        db = self._triangle_db(6)
        db.replace(Relation("R2", ("x", "y"), [(0, 1)]))
        n = len(db["R1"])
        assert agm_bound(q, db) < n ** 1.5
