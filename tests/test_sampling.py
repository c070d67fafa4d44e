"""Tests for repro.core.sampling — the Sec. IV estimator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CardinalityEstimator,
    required_samples,
)
from repro.data import Database, Relation
from repro.errors import EstimationError
from repro.query import paper_query, parse_query
from repro.wcoj import LeapfrogStats, leapfrog_join


def triangle_case(seed=0, n=120, dom=15):
    q = paper_query("Q1")
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, dom, size=(n, 2))
    db = Database([Relation(f"R{i}", ("x", "y"), edges) for i in (1, 2, 3)])
    return q, db


class TestRequiredSamples:
    def test_lemma2_formula(self):
        # k = ceil(0.5 * p^-2 * ln(2/delta))
        assert required_samples(0.1, 0.05) == math.ceil(
            0.5 * 100 * math.log(40))

    def test_monotone_in_error(self):
        assert required_samples(0.05, 0.05) > required_samples(0.2, 0.05)

    def test_monotone_in_confidence(self):
        assert required_samples(0.1, 0.01) > required_samples(0.1, 0.2)

    def test_invalid_inputs(self):
        with pytest.raises(EstimationError):
            required_samples(0.0, 0.05)
        with pytest.raises(EstimationError):
            required_samples(0.1, 1.5)


class TestCardinalityEstimator:
    def test_exact_when_fully_enumerated(self):
        q, db = triangle_case()
        true = leapfrog_join(q, db).count
        est = CardinalityEstimator(db, num_samples=10_000).estimate(q)
        assert est.exact
        assert est.estimate == pytest.approx(true)

    def test_empty_join(self):
        q = paper_query("Q1")
        db = Database([
            Relation("R1", ("x", "y"), [(1, 2)]),
            Relation("R2", ("x", "y"), [(5, 6)]),
            Relation("R3", ("x", "y"), [(8, 9)]),
        ])
        est = CardinalityEstimator(db).estimate(q)
        assert est.estimate == 0.0
        assert est.exact

    def test_single_attribute_query(self):
        q = parse_query("R(a), S(a)")
        db = Database([
            Relation("R", ("v",), [(1,), (2,), (3,)]),
            Relation("S", ("v",), [(2,), (3,), (4,)]),
        ])
        est = CardinalityEstimator(db).estimate(q)
        assert est.estimate == pytest.approx(2.0)

    def test_sampled_estimate_reasonable(self):
        q, db = triangle_case(seed=1, n=400, dom=40)
        true = leapfrog_join(q, db).count
        est = CardinalityEstimator(db, num_samples=25, seed=3).estimate(q)
        assert not est.exact
        if true:
            d = max(est.estimate, true) / max(1.0, min(est.estimate, true))
            assert d < 5.0  # loose: 25 samples, heavy-tailed input

    def test_accuracy_improves_with_samples(self):
        """The Fig. 10 trend: max relative difference -> 1."""
        q, db = triangle_case(seed=2, n=500, dom=50)
        true = leapfrog_join(q, db).count

        def d_for(k):
            est = CardinalityEstimator(db, num_samples=k, seed=1).estimate(q)
            lo, hi = sorted((max(est.estimate, 1.0), max(float(true), 1.0)))
            return hi / lo

        assert d_for(10_000) <= d_for(5) + 1e-9

    def test_cache_reuses_result(self):
        q, db = triangle_case()
        est = CardinalityEstimator(db, num_samples=20)
        a = est.estimate(q)
        b = est.estimate(q)
        assert a is b
        assert est.calls == 1

    def test_level_stats_scaled(self):
        q, db = triangle_case()
        est = CardinalityEstimator(db, num_samples=10_000).estimate(q)
        # Exact enumeration: the scaled level tuples at the last level
        # equal the true count.
        true = leapfrog_join(q, db).count
        assert est.level_tuples[-1] == pytest.approx(true)

    def test_error_bound_zero_when_exact(self):
        q, db = triangle_case()
        est = CardinalityEstimator(db, num_samples=10_000).estimate(q)
        assert est.error_bound() == 0.0

    def test_error_bound_positive_when_sampled(self):
        q, db = triangle_case(seed=4, n=400, dom=40)
        est = CardinalityEstimator(db, num_samples=10, seed=0).estimate(q)
        if not est.exact:
            assert est.error_bound(0.05) > 0

    def test_invalid_sample_count(self):
        _, db = triangle_case()
        with pytest.raises(EstimationError):
            CardinalityEstimator(db, num_samples=0)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_unbiasedness_property(self, seed):
        """Averaging estimates over seeds approaches the truth."""
        q, db = triangle_case(seed=seed, n=150, dom=12)
        true = leapfrog_join(q, db).count
        if true == 0:
            return
        estimates = [
            CardinalityEstimator(db, num_samples=30, seed=s).estimate(q).estimate
            for s in range(8)
        ]
        mean = sum(estimates) / len(estimates)
        assert 0.3 * true <= mean <= 3.0 * true

    def test_lemma2_bound_holds_empirically(self):
        """Chernoff-Hoeffding: error > p*b*|val| in < delta of trials."""
        q, db = triangle_case(seed=9, n=300, dom=25)
        p_err, delta = 0.25, 0.2
        k = required_samples(p_err, delta)
        true = leapfrog_join(q, db).count
        violations = 0
        trials = 20
        for s in range(trials):
            est = CardinalityEstimator(db, num_samples=k, seed=s).estimate(q)
            if est.exact:
                return  # instance too small to stress the bound
            bound = p_err * est.sample_max * est.val_size
            if abs(est.estimate - true) > bound:
                violations += 1
        assert violations / trials <= delta + 0.15


def looped_sample_counts(query, db, order, values, tries=None):
    """``leapfrog_sample_counts`` as one ``leapfrog_join(fixed=)`` per
    sampled value."""
    counts = np.zeros(len(values), dtype=np.int64)
    total = LeapfrogStats(level_tuples=[0] * len(order),
                          level_work=[0] * len(order),
                          level_extensions=[0] * len(order))
    for i, value in enumerate(values):
        single = leapfrog_join(query, db, order, tries=tries,
                               fixed={order[0]: int(value)})
        counts[i] = single.count
        total.add(single.stats)
    return counts, total


class TestBatchedEqualsLooped:
    """One frontier run over all samples vs one join per sample: the
    same ``SampleEstimate``."""

    @staticmethod
    def _skewed_triangle():
        q = paper_query("Q1")
        rng = np.random.default_rng(21)
        edges = rng.integers(0, 120, size=(900, 2))
        edges[:250, 0] = 0          # a hub: samples differ 100x in work
        db = Database([Relation(f"R{i}", ("x", "y"), edges)
                       for i in (1, 2, 3)])
        return q, db

    @pytest.mark.parametrize("samples", [5, 50, 10_000])
    @pytest.mark.parametrize("case", ["skewed-triangle", "wb-Q5"])
    def test_estimates_equal_field_for_field(self, case, samples,
                                             monkeypatch):
        import repro.core.sampling as sampling_mod
        from repro.workloads import make_testcase

        q, db = (self._skewed_triangle() if case == "skewed-triangle"
                 else make_testcase("wb", "Q5", scale=5e-5))
        batched = CardinalityEstimator(db, num_samples=samples, seed=4)
        looped = CardinalityEstimator(db, num_samples=samples, seed=4)
        for order in (q.attributes, q.attributes[::-1]):
            a = batched.estimate(q, order)
            with monkeypatch.context() as patch:
                patch.setattr(sampling_mod, "leapfrog_sample_counts",
                              looped_sample_counts)
                b = looped.estimate(q, order)
            assert a == b
            assert a.exact == (samples >= a.val_size)
            assert a.work > 0
        assert batched.total_work == looped.total_work


class TestSamplerTries:
    """The sampler's tries live in its estimator, not on the relations."""

    def test_an_estimator_memoizes_no_trie_on_its_relations(self):
        q, db = triangle_case(seed=3)
        est = CardinalityEstimator(db, num_samples=20, seed=1)
        for order in (q.attributes, q.attributes[::-1], q.attributes):
            est.estimate(q, order)
        assert all(db[a.relation].index_nbytes == 0 for a in q.atoms)
        # One trie per (relation, column order), however many orders
        # and repeats asked for it.
        assert len(est._tries) == len({(a.relation, cols) for a in q.atoms
                                       for cols in ((0, 1), (1, 0))})

    def test_a_cold_adj_run_leaves_no_sampler_trie(self):
        from repro import JoinSession
        from repro.core import PLAN_CACHE
        from repro.engines.adj import PRECOMPUTE_CACHE
        from repro.workloads import make_testcase

        PLAN_CACHE.clear()
        PRECOMPUTE_CACHE.clear()
        q, db = make_testcase("wb", "Q5", scale=5e-5)
        with JoinSession(backend="serial") as session:
            job = session.query_from(q, db)
            result = job.run("adj")
            plan = job.explain().report.plan      # a hit: samples nothing
        assert result.ok and result.extra["plan_cache"] == "miss"
        # Relations a pre-computed bag joins on the coordinator keep
        # that join's tries; the others were read by the sampler alone.
        bagged = {a.relation for cand in plan.candidates
                  for a in cand.subquery.atoms}
        alone = [a.relation for a in q.atoms if a.relation not in bagged]
        assert alone
        assert all(db[name].index_nbytes == 0 for name in alone)
