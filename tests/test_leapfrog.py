"""Tests for repro.wcoj.leapfrog — correctness against oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Database, Relation
from repro.errors import BudgetExceeded, PlanError
from repro.query import PAPER_QUERIES, paper_query, parse_query
from repro.wcoj import (
    brute_force_join,
    build_tries,
    intersect_sorted,
    leapfrog_join,
    leapfrog_reference,
)


def db_for(query, edges):
    rels = []
    seen = set()
    for atom in query.atoms:
        if atom.relation in seen:
            continue
        seen.add(atom.relation)
        rels.append(Relation(atom.relation, ("x", "y"), edges))
    return Database(rels)


COUNTERS = ("level_tuples", "level_work", "level_extensions",
            "intersection_work", "extensions", "emitted")


def random_edges(seed, n=50, dom=8):
    rng = np.random.default_rng(seed)
    return rng.integers(0, dom, size=(n, 2))


class TestIntersectSorted:
    def test_basic(self):
        a = np.array([1, 3, 5, 7], dtype=np.int64)
        b = np.array([3, 4, 5], dtype=np.int64)
        assert intersect_sorted([a, b]).tolist() == [3, 5]

    def test_empty_input(self):
        a = np.array([1, 2], dtype=np.int64)
        e = np.empty(0, dtype=np.int64)
        assert intersect_sorted([a, e]).shape == (0,)
        assert intersect_sorted([]).shape == (0,)

    def test_single_array(self):
        a = np.array([1, 2], dtype=np.int64)
        assert intersect_sorted([a]).tolist() == [1, 2]

    def test_three_way(self):
        arrays = [np.array(x, dtype=np.int64)
                  for x in ([1, 2, 3, 9], [2, 3, 9], [0, 2, 9])]
        assert intersect_sorted(arrays).tolist() == [2, 9]

    def test_work_accounting(self):
        from repro.wcoj import LeapfrogStats
        stats = LeapfrogStats()
        a = np.array([1, 2, 3], dtype=np.int64)
        b = np.array([2, 3], dtype=np.int64)
        intersect_sorted([a, b], stats)
        assert stats.intersection_work == 5

    @given(sets=st.lists(st.sets(st.integers(0, 30)), min_size=1, max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_matches_python_set_intersection(self, sets):
        arrays = [np.array(sorted(s), dtype=np.int64) for s in sets]
        expected = sorted(set.intersection(*sets)) if sets else []
        assert intersect_sorted(arrays).tolist() == expected


class TestLeapfrogBasics:
    def test_triangle_counts_match_bruteforce(self):
        q = paper_query("Q1")
        db = db_for(q, random_edges(0))
        assert leapfrog_join(q, db).count == len(brute_force_join(q, db))

    def test_materialize_matches_bruteforce(self):
        q = paper_query("Q1")
        db = db_for(q, random_edges(1))
        res = leapfrog_join(q, db, materialize=True)
        assert res.relation.as_set() == brute_force_join(q, db)

    def test_reference_implementation_agrees(self):
        q = paper_query("Q1")
        db = db_for(q, random_edges(2))
        res = leapfrog_join(q, db, materialize=True)
        assert sorted(res.relation.as_set()) == leapfrog_reference(q, db)

    def test_empty_relation_empty_result(self):
        q = paper_query("Q1")
        db = db_for(q, random_edges(3))
        db.replace(Relation("R2", ("x", "y")))
        assert leapfrog_join(q, db).count == 0

    def test_custom_order_same_count(self):
        q = paper_query("Q1")
        db = db_for(q, random_edges(4))
        base = leapfrog_join(q, db).count
        import itertools
        for order in itertools.permutations(("a", "b", "c")):
            assert leapfrog_join(q, db, order).count == base

    def test_bad_order_rejected(self):
        q = paper_query("Q1")
        db = db_for(q, random_edges(5))
        with pytest.raises(PlanError):
            leapfrog_join(q, db, ("a", "b"))

    def test_ternary_atom(self):
        q = parse_query("R(a,b,c), S(b,c,d)")
        rng = np.random.default_rng(6)
        db = Database([
            Relation("R", ("x", "y", "z"), rng.integers(0, 4, size=(30, 3))),
            Relation("S", ("x", "y", "z"), rng.integers(0, 4, size=(30, 3))),
        ])
        assert leapfrog_join(q, db).count == len(brute_force_join(q, db))


class TestLeapfrogInstrumentation:
    def test_level_tuples_lengths(self):
        q = paper_query("Q4")
        db = db_for(q, random_edges(8, n=80))
        res = leapfrog_join(q, db)
        assert len(res.stats.level_tuples) == 5
        assert len(res.stats.level_work) == 5
        assert res.stats.level_tuples[-1] == res.count

    def test_level_fractions_sum_to_one(self):
        q = paper_query("Q1")
        db = db_for(q, random_edges(9))
        res = leapfrog_join(q, db)
        if res.stats.total_tuples:
            assert abs(sum(res.stats.level_fractions()) - 1.0) < 1e-12

    def test_budget_exceeded(self):
        q = paper_query("Q4")
        db = db_for(q, random_edges(10, n=200, dom=10))
        with pytest.raises(BudgetExceeded):
            leapfrog_join(q, db, budget=5)

    def test_fixed_attribute_restricts(self):
        q = paper_query("Q1")
        db = db_for(q, random_edges(11))
        full = leapfrog_join(q, db, materialize=True)
        vals = sorted({t[0] for t in full.relation.as_set()})
        total = 0
        for v in vals:
            total += leapfrog_join(q, db, fixed={"a": v}).count
        assert total == full.count

    def test_fixed_unknown_attr_rejected(self):
        q = paper_query("Q1")
        db = db_for(q, random_edges(12))
        with pytest.raises(PlanError):
            leapfrog_join(q, db, fixed={"zz": 1})

    def test_prebuilt_tries_reused(self):
        q = paper_query("Q1")
        db = db_for(q, random_edges(13))
        order = ("a", "b", "c")
        tries = build_tries(q, db, order)
        r1 = leapfrog_join(q, db, order, tries=tries)
        r2 = leapfrog_join(q, db, order)
        assert r1.count == r2.count


class TestLeapfrogWithCache:
    def test_cache_does_not_change_result(self):
        q = paper_query("Q4")
        db = db_for(q, random_edges(14, n=120))
        plain = leapfrog_join(q, db)
        cached = leapfrog_join(q, db, cache_capacity=100_000)
        assert cached.count == plain.count
        assert cached.stats.cache_hits + cached.stats.cache_misses > 0

    def test_cache_hits_reduce_work(self):
        q = paper_query("Q4")
        db = db_for(q, random_edges(15, n=150))
        plain = leapfrog_join(q, db)
        cached = leapfrog_join(q, db, cache_capacity=1_000_000)
        assert cached.stats.cache_hits > 0
        assert (cached.stats.intersection_work
                < plain.stats.intersection_work)

    def test_zero_capacity_cache_is_neutral(self):
        q = paper_query("Q1")
        db = db_for(q, random_edges(16))
        res = leapfrog_join(q, db, cache_capacity=0)
        plain = leapfrog_join(q, db)
        assert res.count == plain.count
        assert res.stats.cache_hits == 0
        for name in COUNTERS:
            assert getattr(res.stats, name) == getattr(plain.stats, name)

    def test_zero_capacity_cache_admits_no_empty_intersection(self):
        """A key whose intersection comes out empty still sizes by its
        driver segment, so a cache of capacity 0 admits it neither."""
        q = paper_query("Q9")
        db = db_for(q, np.random.default_rng(0).integers(0, 10, size=(25, 2)))
        res = leapfrog_join(q, db, cache_capacity=0)
        plain = leapfrog_join(q, db)
        assert res.stats.cache_hits == 0
        assert res.stats.cache_misses == sum(res.stats.level_extensions)
        for name in COUNTERS:
            assert getattr(res.stats, name) == getattr(plain.stats, name)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000),
       query_name=st.sampled_from(["Q1", "Q7", "Q8", "Q9", "Q11"]))
def test_leapfrog_equals_bruteforce_property(seed, query_name):
    """Leapfrog agrees with the Cartesian oracle on random small inputs."""
    q = PAPER_QUERIES[query_name]
    rng = np.random.default_rng(seed)
    db = db_for(q, rng.integers(0, 6, size=(25, 2)))
    res = leapfrog_join(q, db, materialize=True)
    assert res.relation.as_set() == brute_force_join(q, db)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_leapfrog_order_invariance_property(seed):
    """The result count does not depend on the attribute order."""
    import itertools
    q = paper_query("Q1")
    rng = np.random.default_rng(seed)
    db = db_for(q, rng.integers(0, 7, size=(40, 2)))
    counts = {leapfrog_join(q, db, order).count
              for order in itertools.permutations(("a", "b", "c"))}
    assert len(counts) == 1
