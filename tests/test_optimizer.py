"""Tests for repro.core.optimizer — Algorithm 2."""

import numpy as np
import pytest

from repro.core import (
    PLAN_CACHE,
    CardinalityEstimator,
    Optimizer,
    communication_first_plan,
    optimize_plan,
)
from repro.data import Database, Relation
from repro.distributed import Cluster, CostModelParams
from repro.engines import ADJ, YannakakisJoin
from repro.engines.adj import PRECOMPUTE_CACHE, PRECOMPUTE_CACHE_CAPACITY
from repro.errors import BudgetExceeded
from repro.ghd import Hypertree, enumerate_ghds, optimal_hypertree
from repro.obs.metrics import METRICS
from repro.query import JoinQuery, example_query, paper_query
from repro.workloads import make_testcase


@pytest.fixture(scope="module")
def q5_case():
    return make_testcase("lj", "Q5", scale=8e-6)


@pytest.fixture(scope="module")
def q5_report(q5_case):
    q, db = q5_case
    est = CardinalityEstimator(db, num_samples=40, seed=0)
    return optimize_plan(q, db, Cluster(num_workers=4), estimator=est)


class TestAlgorithm2:
    def test_plan_is_valid(self, q5_report):
        plan = q5_report.plan
        assert plan.hypertree.is_traversal_order(plan.traversal)
        assert plan.hypertree.is_valid_attribute_order(plan.attribute_order)

    def test_lemma1_exploration_bound(self, q5_report):
        """Alg. 2 evaluates O(0.5 * 2n*(2n*-1)) configurations."""
        n_star = q5_report.plan.hypertree.num_bags
        bound = (2 * n_star) * (2 * n_star - 1) // 2
        assert 0 < q5_report.explored_configurations <= bound

    def test_traversal_covers_all_bags(self, q5_report):
        plan = q5_report.plan
        assert sorted(plan.traversal) == sorted(
            b.index for b in plan.hypertree.bags)

    def test_precompute_only_multi_atom_bags(self, q5_report):
        plan = q5_report.plan
        bags = {b.index: b for b in plan.hypertree.bags}
        for idx in plan.precompute:
            assert not bags[idx].is_single_atom

    def test_sampling_work_recorded(self, q5_report):
        assert q5_report.sampling_work > 0
        assert q5_report.wall_seconds > 0

    def test_cost_trace_one_entry_per_bag(self, q5_report):
        assert len(q5_report.cost_trace) == q5_report.plan.hypertree.num_bags

    def test_deterministic_given_seed(self, q5_case):
        q, db = q5_case
        cluster = Cluster(num_workers=4)
        plans = []
        for _ in range(2):
            est = CardinalityEstimator(db, num_samples=40, seed=7)
            plans.append(optimize_plan(q, db, cluster, estimator=est).plan)
        assert plans[0].traversal == plans[1].traversal
        assert plans[0].precompute == plans[1].precompute
        assert plans[0].attribute_order == plans[1].attribute_order


class TestCostSensitivity:
    """The optimizer must react to the cost-model rates the way the
    paper describes the communication/computation trade-off."""

    def _plan_with(self, q, db, params):
        cluster = Cluster(num_workers=4, params=params)
        est = CardinalityEstimator(db, num_samples=40, seed=0)
        return optimize_plan(q, db, cluster, estimator=est).plan

    def test_free_computation_discourages_precompute(self, q5_case):
        """If computing is (nearly) free, trading communication for
        computation is pointless — nothing should be pre-computed."""
        q, db = q5_case
        params = CostModelParams(beta_work=1e15, beta_trie_lookup=1e15)
        plan = self._plan_with(q, db, params)
        assert plan.precompute == frozenset()

    def test_free_communication_encourages_precompute(self, q5_case):
        """If shuffling is free, pre-computing only costs its join work
        and saves Leapfrog work — the dense Q5 should pre-compute."""
        q, db = q5_case
        params = CostModelParams(alpha_push=1e15, alpha_pull=1e15,
                                 alpha_merge=1e15, block_latency=0.0)
        plan = self._plan_with(q, db, params)
        assert plan.precompute != frozenset()


class TestCommunicationFirst:
    def test_no_precompute(self, q5_case):
        q, db = q5_case
        plan = communication_first_plan(q, db, Cluster(num_workers=4))
        assert plan.precompute == frozenset()
        assert plan.hypertree.is_valid_attribute_order(plan.attribute_order)

    def test_reuses_supplied_hypertree(self, q5_case):
        q, db = q5_case
        tree = optimal_hypertree(q)
        plan = communication_first_plan(q, db, Cluster(num_workers=4),
                                        hypertree=tree)
        assert plan.hypertree is tree


def _plan_hit(adj, query, db, cluster):
    """Whether ``adj.plan`` was answered by the process-wide cache."""
    before = METRICS.counter("core.plan_cache_hits").value
    adj.plan(query, db, cluster)
    return METRICS.counter("core.plan_cache_hits").value > before


def _copy(db, changed=None):
    """A new Database with the same content; ``changed`` names one
    relation whose first row is altered."""
    rels = []
    for rel in db:
        data = rel.data.copy()
        if rel.name == changed:
            data[0, 0] = data[:, 0].max() + 1
        rels.append(Relation(rel.name, rel.attributes, data))
    return Database(rels)


class TestPlanCache:
    """ADJ plans once per (query, data, settings, cluster, hypertree)."""

    def test_hit_is_identical_to_miss_and_samples_nothing(
            self, q5_case, monkeypatch):
        import repro.core.sampling as sampling

        q, db = q5_case
        cluster = Cluster(num_workers=4)
        calls = []
        real = sampling.leapfrog_sample_counts
        monkeypatch.setattr(
            sampling, "leapfrog_sample_counts",
            lambda *a, **k: calls.append(1) or real(*a, **k))
        PLAN_CACHE.clear()
        miss = ADJ(num_samples=40).run(q, db, cluster)
        sampled = len(calls)
        hit = ADJ(num_samples=40).run(q, db, cluster)
        assert sampled > 0 and len(calls) == sampled
        assert (miss.extra["plan_cache"], hit.extra["plan_cache"]) \
            == ("miss", "hit")
        assert hit.count == miss.count
        assert hit.breakdown == miss.breakdown
        for key in ("estimated_cost", "explored_configurations",
                    "level_tuples", "leapfrog_work", "plan"):
            assert hit.extra[key] == miss.extra[key], key

    def test_what_hits_and_what_misses(self, q5_case):
        q, db = q5_case
        cluster = Cluster(num_workers=4)
        adj = ADJ(num_samples=40)
        PLAN_CACHE.clear()
        adj.plan(q, db, cluster)
        # Hits: the same content in a new Database object; knobs that
        # Algorithm 2 does not read.
        assert _plan_hit(adj, q, _copy(db), cluster)
        assert _plan_hit(ADJ(num_samples=40, work_budget=10**9),
                         q, db, cluster)
        assert _plan_hit(ADJ(num_samples=40, kernel="binary"),
                         q, db, cluster)
        # Misses: content, name, samples, seed, cluster.
        assert not _plan_hit(adj, q, _copy(db, q.atoms[0].relation),
                             cluster)
        renamed = JoinQuery(q.atoms, name="Other")
        assert not _plan_hit(adj, renamed, db, cluster)
        assert adj.run(renamed, db, cluster).query == "Other"
        assert not _plan_hit(ADJ(num_samples=41), q, db, cluster)
        assert not _plan_hit(ADJ(num_samples=40, seed=1), q, db, cluster)
        assert not _plan_hit(adj, q, db, Cluster(num_workers=3))

    def test_runtime_hint_is_not_in_the_key(self, q5_case):
        """Algorithm 2 never reads the cluster's backend hint."""
        q, db = q5_case
        PLAN_CACHE.clear()
        PRECOMPUTE_CACHE.clear()
        ADJ(num_samples=40).run(q, db, Cluster(num_workers=2))
        result, bags_hit = _precompute_run(
            ADJ(num_samples=40), q, db,
            Cluster(num_workers=2, runtime="threads"))
        assert result.extra["plan_cache"] == "hit" and bags_hit

    def test_caller_hypertree_keys_on_structure(self, q5_case):
        q, db = q5_case
        cluster = Cluster(num_workers=4)
        PLAN_CACHE.clear()
        best = optimal_hypertree(q)
        other = next(t for t in enumerate_ghds(q)
                     if t.num_bags != best.num_bags)
        assert not _plan_hit(ADJ(num_samples=40, hypertree=other),
                             q, db, cluster)
        twin = Hypertree(q, other.bags, other.tree_edges, other.bag_widths)
        assert _plan_hit(ADJ(num_samples=40, hypertree=twin),
                         q, db, cluster)
        ADJ(num_samples=40).plan(q, db, cluster)
        assert not _plan_hit(ADJ(num_samples=40, hypertree=best),
                             q, db, cluster)


def _precompute_run(adj, query, db, cluster):
    """``adj.run`` and whether its bags came from the precompute cache."""
    before = METRICS.counter("core.precompute_cache_hits").value
    result = adj.run(query, db, cluster)
    return result, METRICS.counter("core.precompute_cache_hits").value > before


class TestPrecomputeCache:
    """ADJ materializes a plan's bags once per (plan key, kernel)."""

    def test_hit_equals_miss(self, q5_case):
        q, db = q5_case
        cluster = Cluster(num_workers=4)
        ADJ(num_samples=40).plan(q, db, cluster)   # both runs hit the plan
        PRECOMPUTE_CACHE.clear()
        miss, miss_hit = _precompute_run(ADJ(num_samples=40), q, db, cluster)
        hit, hit_hit = _precompute_run(ADJ(num_samples=40), q, db, cluster)
        assert (miss_hit, hit_hit) == (False, True)
        assert miss.extra["precomputed"]           # there are bags
        assert hit.count == miss.count
        assert hit.breakdown == miss.breakdown
        assert hit.extra.keys() == miss.extra.keys()
        for key in miss.extra:
            if key != "telemetry":
                assert hit.extra[key] == miss.extra[key], key

    def test_work_budget_trips_on_a_hit(self, q5_case):
        q, db = q5_case
        cluster = Cluster(num_workers=4)
        PRECOMPUTE_CACHE.clear()
        with pytest.raises(BudgetExceeded) as missed:
            ADJ(num_samples=40, work_budget=1).run(q, db, cluster)
        _, hit = _precompute_run(ADJ(num_samples=40), q, db, cluster)
        assert not hit                     # the tripped miss cached nothing
        before = METRICS.counter("core.precompute_cache_hits").value
        with pytest.raises(BudgetExceeded) as tripped:
            ADJ(num_samples=40, work_budget=1).run(q, db, cluster)
        assert METRICS.counter("core.precompute_cache_hits").value > before
        assert tripped.value.budget == missed.value.budget == 1

    def test_what_hits_and_what_misses(self, q5_case):
        q, db = q5_case
        cluster = Cluster(num_workers=4)
        adj = ADJ(num_samples=40)
        PRECOMPUTE_CACHE.clear()
        adj.run(q, db, cluster)
        assert _precompute_run(adj, q, _copy(db), cluster)[1]
        assert not _precompute_run(ADJ(num_samples=40, kernel="binary"),
                                   q, db, cluster)[1]
        changed = _copy(db)
        name = q.atoms[0].relation
        changed.replace(_copy(db, name)[name])      # a new fingerprint
        assert not _precompute_run(adj, q, changed, cluster)[1]

    def test_the_lru_stays_bounded(self, q5_case):
        q, db = q5_case
        PRECOMPUTE_CACHE.clear()
        ADJ(num_samples=40).run(q, db, Cluster(num_workers=4))
        assert len(PRECOMPUTE_CACHE) == 1
        for i in range(PRECOMPUTE_CACHE_CAPACITY + 3):
            PRECOMPUTE_CACHE.lookup(("filler", i), tuple)
        assert len(PRECOMPUTE_CACHE) == PRECOMPUTE_CACHE_CAPACITY
        # The run's entry was the least recently used: evicted.
        assert not _precompute_run(ADJ(num_samples=40), q, db,
                                   Cluster(num_workers=4))[1]


class TestHypertreeMemo:
    def test_equal_atoms_return_the_identical_tree(self, q5_case):
        q, db = q5_case
        tree = optimal_hypertree(q)
        assert optimal_hypertree(JoinQuery(q.atoms, name="again")) is tree
        assert optimal_hypertree(paper_query("Q1")) is not tree

    def test_yannakakis_results_unchanged(self):
        from repro.runtime import SerialExecutor
        from repro.wcoj import leapfrog_join

        q, db = make_testcase("wb", "Q9", scale=1e-5)
        expected = leapfrog_join(q, db).count
        tree = optimal_hypertree(q)
        fresh = Hypertree(q, tree.bags, tree.tree_edges, tree.bag_widths)
        for hypertree in (fresh, None):      # fresh vs memoized tree
            result = YannakakisJoin(hypertree=hypertree).run(
                q, db, Cluster(num_workers=2), executor=SerialExecutor())
            assert result.count == expected


class TestSingleBagQueries:
    def test_triangle_optimizes_without_error(self):
        q, db = make_testcase("wb", "Q1", scale=2e-5)
        report = optimize_plan(q, db, Cluster(num_workers=4),
                               estimator=CardinalityEstimator(
                                   db, num_samples=30, seed=0))
        # Q1's optimal hypertree is one bag: nothing to pre-compute.
        assert report.plan.traversal == (0,)
        assert report.plan.precompute == frozenset()
