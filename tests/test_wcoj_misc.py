"""Tests for repro.wcoj: cache, binary joins, AGM bound."""

import numpy as np
import pytest

from repro.data import Database, Relation
from repro.errors import BudgetExceeded, ConfigError, PlanError
from repro.kernels import create_kernel
from repro.query import paper_query, parse_query
from repro.wcoj import (
    BinaryPlan,
    agm_bound,
    brute_force_join,
    fractional_edge_cover_number,
    greedy_left_deep_plan,
    leapfrog_join,
)
from repro.wcoj.binary_join import run_left_deep


def _hub_case(num_a=2):
    """``R(a, b), S(b, c)``: every ``a`` reaches the one ``b = 5``, whose
    two ``c`` children (an entry of 2 x (1 + 2) = 6 values) every
    level-``c`` binding shares."""
    q = parse_query("R(a,b), S(b,c)")
    db = Database([Relation("R", ("x", "y"), [(a, 5) for a in range(num_a)]),
                   Relation("S", ("x", "y"), [(5, 7), (5, 8)])])
    return q, db


class TestIntersectionCache:
    """CacheTrieJoin's admission rules on the frontier (``cache_capacity``
    values per chunk)."""

    def test_put_get_roundtrip(self):
        q, db = _hub_case()
        cached = leapfrog_join(q, db, cache_capacity=100)
        assert cached.count == leapfrog_join(q, db).count == 4
        assert cached.stats.cache_hits == 1
        # The hit's segment (2 values of S) is not charged.
        assert cached.stats.intersection_work \
            == leapfrog_join(q, db).stats.intersection_work - 2

    def test_miss_counted(self):
        """The first binding of every distinct key is a miss: one at
        ``a``, two at ``b`` (different ``a`` nodes), one at ``c``."""
        q, db = _hub_case()
        assert leapfrog_join(q, db, cache_capacity=100).stats.cache_misses \
            == 4

    def test_eviction_lru_order(self, monkeypatch):
        """Nothing outlives a chunk: one binding per chunk, no hit."""
        import repro.wcoj.leapfrog as leapfrog_mod

        q, db = _hub_case()
        monkeypatch.setattr(leapfrog_mod, "_CHUNK", 1)
        stats = leapfrog_join(q, db, cache_capacity=100).stats
        assert (stats.cache_hits, stats.cache_misses) == (0, 5)

    def test_oversized_entry_never_admitted(self):
        q, db = _hub_case()
        assert leapfrog_join(q, db, cache_capacity=5).stats.cache_hits == 0
        assert leapfrog_join(q, db, cache_capacity=6).stats.cache_hits == 1

    def test_replace_same_key(self):
        """A key repeated by many bindings takes its entry size once."""
        q, db = _hub_case(num_a=10)
        assert leapfrog_join(q, db, cache_capacity=6).stats.cache_hits == 9

    def test_clear(self):
        """A caller-owned stats object reused across cached runs reports
        the last run's hits and misses, not their sum."""
        from repro.wcoj import LeapfrogStats

        q, db = _hub_case()
        stats = LeapfrogStats()
        for _ in range(2):
            leapfrog_join(q, db, cache_capacity=100, stats=stats)
        fresh = leapfrog_join(q, db, cache_capacity=100).stats
        assert (stats.cache_hits, stats.cache_misses) \
            == (fresh.cache_hits, fresh.cache_misses) == (1, 4)

    def test_negative_capacity_rejected(self):
        q, db = _hub_case()
        with pytest.raises(ConfigError):
            leapfrog_join(q, db, cache_capacity=-1)

    def test_zero_capacity_admits_nothing(self):
        q, db = _hub_case(num_a=10)
        stats = leapfrog_join(q, db, cache_capacity=0).stats
        assert stats.cache_hits == 0
        assert stats.cache_misses == stats.extensions
        assert stats.intersection_work \
            == leapfrog_join(q, db).stats.intersection_work


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
