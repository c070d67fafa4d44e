"""Tests for the repro.api front door: session, jobs, config, registry.

Covers the acceptance round-trip (all registered engines agree through
``JoinSession``), lifecycle guarantees (lazy executor, teardown even on
worker crash), the laziness of ``explain``/``estimate`` (verified by
data-plane counters) and configuration precedence (explicit > env >
defaults).
"""

import warnings

import numpy as np
import pytest

import repro
from repro import JoinSession, RunConfig
from repro.api import ComparisonReport, EngineOptions, QueryJob
from repro.data import Database, Relation
from repro.distributed import Cluster
from repro.engines import (
    ADJ,
    HCubeJ,
    SparkSQLJoin,
    YannakakisJoin,
    registry,
    run_engine_safely,
)
from repro.engines.base import EngineResult, engine_from_options
from repro.errors import ConfigError, WorkerCrashed
from repro.query import paper_query
from repro.runtime.transport import default_transport_name
from repro.wcoj import leapfrog_join

ALL_ENGINES = ("sparksql", "bigjoin", "hcubej", "hcubej-cache", "adj",
               "yannakakis")


def graph_case(query_name, seed=0, n=250, dom=40):
    query = paper_query(query_name)
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, dom, size=(n, 2))
    db = Database(Relation(a.relation, ("x", "y"), edges)
                  for a in query.atoms)
    return query, db


# -- the engine registry ------------------------------------------------------

class TestRegistry:
    def test_available_lists_all_six(self):
        assert registry.available() == ALL_ENGINES

    def test_create_maps_options_to_constructor_kwargs(self):
        engine = registry.create("adj", EngineOptions(samples=7, seed=3))
        assert isinstance(engine, ADJ)
        assert engine.num_samples == 7
        assert engine.seed == 3

    def test_create_keyword_overrides_beat_options(self):
        engine = registry.create("adj", EngineOptions(samples=7),
                                 samples=11)
        assert engine.num_samples == 11

    def test_create_ignores_irrelevant_fields(self):
        """One options object drives the whole lineup."""
        opts = EngineOptions(samples=5, budget_tuples=100,
                             budget_bindings=200, work_budget=300)
        spark = registry.create("sparksql", opts)
        assert isinstance(spark, SparkSQLJoin)
        assert spark.budget_tuples == 100
        hcj = registry.create("hcubej", opts)
        assert hcj.work_budget == 300

    def test_create_defaults_when_field_none(self):
        engine = registry.create("adj")
        assert engine.num_samples == ADJ().num_samples

    def test_unknown_engine_lists_choices(self):
        with pytest.raises(ConfigError, match="sparksql"):
            registry.create("nope")

    def test_unknown_option_rejected(self):
        with pytest.raises(ConfigError, match="unknown engine option"):
            registry.create("adj", wibble=3)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigError, match="already registered"):
            registry.register("adj", ADJ)

    def test_register_new_engine_shows_up(self, monkeypatch):
        monkeypatch.setattr(registry, "_REGISTRY",
                            dict(registry._REGISTRY))

        @registry.register("custom", summary="test engine")
        class Custom:
            name = "Custom"
            options_map = {}

        assert "custom" in registry.available()
        assert isinstance(registry.create("custom"), Custom)
        assert registry.display_name("custom") == "Custom"

    def test_engine_from_options_with_none(self):
        engine = engine_from_options(HCubeJ, None)
        assert engine.work_budget is None


# -- RunConfig precedence -----------------------------------------------------

class TestRunConfig:
    def test_defaults(self, monkeypatch):
        for var in ("REPRO_WORKERS", "REPRO_BACKEND", "REPRO_SAMPLES",
                    "REPRO_SEED"):
            monkeypatch.delenv(var, raising=False)
        cfg = RunConfig()
        assert cfg.workers == 8
        assert cfg.backend == "serial"
        assert cfg.transport is None
        assert cfg.samples == 100
        assert cfg.seed == 0

    def test_env_beats_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        monkeypatch.setenv("REPRO_BACKEND", "threads")
        monkeypatch.setenv("REPRO_SAMPLES", "17")
        monkeypatch.setenv("REPRO_SEED", "5")
        cfg = RunConfig()
        assert (cfg.workers, cfg.backend, cfg.samples, cfg.seed) == \
            (3, "threads", 17, 5)

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        monkeypatch.setenv("REPRO_BACKEND", "threads")
        cfg = RunConfig(workers=5, backend="serial")
        assert (cfg.workers, cfg.backend) == (5, "serial")

    def test_invalid_env_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "gpu")
        with pytest.raises(ConfigError, match="REPRO_BACKEND"):
            RunConfig()

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(workers=0)
        with pytest.raises(ConfigError):
            RunConfig(backend="gpu")

    def test_replace_drops_none(self):
        cfg = RunConfig(workers=4)
        assert cfg.replace(workers=None) is cfg
        assert cfg.replace(workers=6).workers == 6

    def test_engine_options_fold_session_defaults(self):
        cfg = RunConfig(samples=33, seed=2, work_budget=99)
        opts = cfg.engine_options()
        assert (opts.samples, opts.seed, opts.work_budget) == (33, 2, 99)
        assert cfg.engine_options(samples=7).samples == 7
        merged = cfg.engine_options(EngineOptions(seed=9))
        assert (merged.samples, merged.seed) == (33, 9)


# -- JoinSession lifecycle ----------------------------------------------------

class TestJoinSession:
    def test_round_trip_all_engines_agree(self):
        """The acceptance criterion, scaled to test size: every
        registered engine, one compare call, agreeing counts."""
        query, db = graph_case("Q1", seed=1)
        expected = leapfrog_join(query, db).count
        with JoinSession(workers=4, samples=20) as session:
            report = session.query_from(query, db).compare(
                engines=session.engines())
        assert isinstance(report, ComparisonReport)
        assert len(report.results) == len(ALL_ENGINES)
        assert report.agreed
        assert report.count == expected
        assert not report.failures

    def test_runtime_round_trip_processes_shm(self):
        """The literal acceptance shape: processes backend + shm
        transport, full lineup, no leaked executor."""
        query, db = graph_case("Q1", seed=2, n=150)
        expected = leapfrog_join(query, db).count
        with JoinSession(workers=2, backend="processes",
                         transport="shm", samples=10) as session:
            report = session.query_from(query, db).compare()
            executor = session._executor
            assert executor is not None
        assert report.agreed and report.count == expected
        # Teardown happened: the pool is gone and shm segments released.
        assert executor._pool is None

    def test_named_testcase(self):
        with JoinSession(workers=4, samples=10) as session:
            job = session.query("wb", "Q1", scale=1e-5)
            assert isinstance(job, QueryJob)
            result = job.run("adj")
        assert result.ok
        assert result.count == leapfrog_join(job.query, job.db).count

    def test_query_from_text(self):
        _, db = graph_case("Q1")
        with JoinSession(workers=2) as session:
            job = session.query_from(
                "Q(a, b, c) :- R1(a, b), R2(b, c), R3(a, c)", db)
            assert job.query.num_atoms == 3

    def test_serial_session_owns_a_serial_executor(self):
        query, db = graph_case("Q1")
        with JoinSession(workers=2) as session:
            assert not session.executor_created
            result = session.query_from(query, db).run("hcubej")
            assert result.ok
            assert session.executor_created
            assert session.executor().name == "serial"
            assert result.telemetry.backend == "serial"
            assert result.data_plane["transport"] \
                == session.transport_label == default_transport_name()

    def test_executor_is_lazy_and_cached(self):
        with JoinSession(workers=2, backend="threads") as session:
            assert not session.executor_created
            ex = session.executor()
            assert ex is not None and session.executor_created
            assert session.executor() is ex

    def test_close_is_idempotent_and_final(self):
        session = JoinSession(workers=2, backend="threads")
        session.executor()
        session.close()
        session.close()
        with pytest.raises(ConfigError, match="closed"):
            session.query_from(*graph_case("Q1"))
        with pytest.raises(ConfigError, match="closed"):
            session.executor()
        with pytest.raises(ConfigError, match="closed"):
            with session:
                pass  # pragma: no cover

    def test_teardown_even_on_worker_crash(self, monkeypatch):
        """The executor (and its transport) is reclaimed when a worker
        dies mid-run."""
        import repro.runtime.scheduler as scheduler_mod

        def crashing_run(executor, tasks, **kwargs):
            raise WorkerCrashed(0, "simulated death")

        monkeypatch.setattr(scheduler_mod, "run_streamed_tasks",
                            crashing_run)
        query, db = graph_case("Q1", seed=3)
        with JoinSession(workers=2, backend="threads",
                         transport="pickle") as session:
            result = session.query_from(query, db).run("hcubej")
            assert result.failure == "crash"
            executor = session._executor
            assert executor is not None
        assert executor._pool is None  # torn down despite the crash

    def test_custom_cluster_wins(self):
        cluster = Cluster(num_workers=3, runtime="threads")
        with JoinSession(config=RunConfig(workers=9),
                         cluster=cluster) as session:
            assert session.cluster is cluster
            assert session.config.workers == 3
            assert session.config.backend == "threads"

    def test_cluster_conflicting_kwargs_rejected(self):
        cluster = Cluster(num_workers=3)
        with pytest.raises(ConfigError, match="conflicts"):
            JoinSession(workers=5, cluster=cluster)
        with pytest.raises(ConfigError, match="conflicts"):
            JoinSession(backend="processes", cluster=cluster)
        # Matching explicit kwargs are fine.
        JoinSession(workers=3, backend="serial", cluster=cluster).close()

    def test_kwargs_override_config(self):
        cfg = RunConfig(workers=2, samples=5)
        session = JoinSession(workers=6, config=cfg)
        assert session.config.workers == 6
        assert session.config.samples == 5
        session.close()


# -- QueryJob laziness --------------------------------------------------------

class TestQueryJobLaziness:
    def test_explain_performs_no_execution(self):
        """explain() touches neither the executor nor the data plane."""
        query, db = graph_case("Q4", seed=4)
        with JoinSession(workers=2, backend="threads",
                         transport="pickle", samples=10) as session:
            explain = session.query_from(query, db).explain()
            # No executor was ever created ...
            assert not session.executor_created
            # ... and once one exists, its transport counters are zero:
            # nothing was published or shipped by explain().
            stats = session.executor().transport.stats
            assert stats.published_blocks == 0
            assert stats.shipped_refs == 0
            assert stats.shipped_bytes == 0
        assert explain.plan.estimated_cost < float("inf")
        assert set(explain.cost_breakdown) == \
            {"precompute", "communication", "computation"}
        text = explain.describe()
        assert "hypertree" in text and "plan[" in text

    def test_explain_matches_adj_run(self):
        """The explained plan is the plan ADJ actually executes."""
        query, db = graph_case("Q4", seed=4)
        with JoinSession(workers=2, samples=10, seed=0) as session:
            job = session.query_from(query, db)
            explain = job.explain()
            result = job.run("adj")
        assert result.extra["plan"] == explain.plan.describe()

    @pytest.mark.parametrize("query_name,expected", [
        ("Q5", (0.00035625, 0.0004688, 0.0004937223639455783)),
        ("Q9", (0.0, 0.00024, 1.1891300298062593e-06)),
    ])
    def test_explain_costs_equal_the_parent(self, query_name, expected):
        """explain()'s per-phase costs (precompute, communication,
        computation) on wb at scale 1e-5, bit for bit."""
        with JoinSession(workers=8, samples=100, seed=0,
                         scale=1e-5) as session:
            costs = session.query("wb", query_name).explain().cost_breakdown
        assert (costs["precompute"], costs["communication"],
                costs["computation"]) == expected

    def test_estimate_uses_session_defaults(self):
        query, db = graph_case("Q1", seed=5)
        with JoinSession(workers=2, samples=25, seed=1) as session:
            job = session.query_from(query, db)
            est = job.estimate()
            assert not session.executor_created
            again = job.estimate(samples=25, seed=1)
        assert est.estimate == again.estimate

    def test_run_accepts_engine_instance(self):
        query, db = graph_case("Q1", seed=6)
        with JoinSession(workers=2) as session:
            result = session.query_from(query, db).run(
                HCubeJ(work_budget=10**9))
        assert result.ok

    def test_options_with_engine_instance_rejected(self):
        """Options cannot silently vanish on an already-built engine."""
        query, db = graph_case("Q1", seed=6)
        with JoinSession(workers=2) as session:
            job = session.query_from(query, db)
            with pytest.raises(ConfigError, match="engine instance"):
                job.run(HCubeJ(), work_budget=5)
            with pytest.raises(ConfigError, match="engine instance"):
                job.compare(engines=["adj", HCubeJ()],
                            options=EngineOptions(samples=5))

    def test_compare_reports_disagreement(self):
        query, db = graph_case("Q1", seed=7)

        class Liar:
            name = "Liar"

            def run(self, query, db, cluster, executor=None):
                from repro.distributed.metrics import CostBreakdown
                return EngineResult(engine=self.name, query=query.name,
                                    count=-42,
                                    breakdown=CostBreakdown())

        with JoinSession(workers=2, samples=10) as session:
            report = session.query_from(query, db).compare(
                engines=["hcubej", Liar()])
        assert not report.agreed
        assert report.count is None
        assert "DISAGREEMENT" in report.describe()


# -- top-level exports --------------------------------------------------------

class TestTopLevelApi:
    def test_new_exports(self):
        assert repro.JoinSession is JoinSession
        assert repro.RunConfig is RunConfig
        assert repro.EngineOptions is EngineOptions
        assert repro.YannakakisJoin is YannakakisJoin
        assert repro.registry is registry
        for name in ("JoinSession", "RunConfig", "EngineOptions",
                     "YannakakisJoin", "registry"):
            assert name in repro.__all__

    def test_deep_imports_do_not_warn(self):
        """Library-internal plumbing stays warning-free."""
        query, db = graph_case("Q1", seed=9)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = run_engine_safely(HCubeJ(), query, db,
                                       Cluster(num_workers=2))
        assert result.ok

    def test_direct_engine_construction_unchanged(self):
        """Direct class construction keeps working, warning-free."""
        query, db = graph_case("Q1", seed=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = ADJ(num_samples=10).run(query, db,
                                             Cluster(num_workers=2))
        assert result.count == leapfrog_join(query, db).count

    def test_unknown_top_level_attribute(self):
        with pytest.raises(AttributeError):
            repro.does_not_exist
