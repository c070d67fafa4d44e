"""The repro.kernels layer: registry, adaptive choice, plumbing, parity.

Four invariant families:

- **registry / config plumbing** — ``REPRO_KERNEL`` env vs explicit
  argument precedence, unknown kernels rejected with the registered
  choices named, the CLI flag, and session kwargs;
- **equivalence** — ``wcoj``, ``binary`` and ``adaptive`` produce
  identical counts *and tuple sets*, cross-checked against the textbook
  :func:`~repro.wcoj.leapfrog.leapfrog_reference`, over random queries
  and databases (Hypothesis) and across every transport on both
  dispatchers (in-process and pooled);
- **survival** — the kernel key crosses spawn process pools and remote
  :class:`~repro.net.WorkerAgent` tasks intact;
- **seed parity** — ``kernel="wcoj"`` reproduces the historical
  pure-Leapfrog counters bit-for-bit, including the batched-leaf fast
  path and its overflow fallback.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import JoinSession, RunConfig
from repro.cli import main
from repro.data import Database, Relation
from repro.distributed import Cluster
from repro.engines import ADJ, HCubeJ, SparkSQLJoin, YannakakisJoin
from repro.engines.base import EngineOptions
from repro.errors import ConfigError
from repro.kernels import KERNELS, create_kernel
from repro.knobs import env
from repro.kernels.adaptive import choose_kernel
from repro.obs.metrics import METRICS
from repro.query import paper_query
from repro.wcoj import (
    build_tries,
    leapfrog_join,
    leapfrog_reference,
)

TRANSPORTS = ("pickle", "shm", "tcp")


def graph_db(query, edges) -> Database:
    return Database(Relation(a.relation, ("x", "y"), edges)
                    for a in {a.relation: a for a in query.atoms}.values())


def result_tuples(result) -> list:
    return sorted(map(tuple, result.relation.data.tolist()))


# -- registry and configuration plumbing --------------------------------------

class TestRegistry:
    def test_available_lists_all_three_in_order(self):
        assert KERNELS.keys() == ("wcoj", "binary", "adaptive")

    def test_unknown_kernel_names_choices(self):
        with pytest.raises(ConfigError, match="wcoj.*binary.*adaptive"):
            KERNELS.get("hash")

    def test_create_unknown_kernel_rejected(self):
        with pytest.raises(ConfigError, match="unknown kernel"):
            create_kernel("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigError, match="already registered"):
            KERNELS.register("wcoj", lambda: None)

    def test_specs_have_summaries(self):
        for key in KERNELS.keys():
            assert KERNELS.summary(key)

    def test_default_kernel_unset_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert env("REPRO_KERNEL") == "adaptive"

    def test_default_kernel_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "binary")
        assert env("REPRO_KERNEL") == "binary"

    def test_default_kernel_invalid_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "turbo")
        with pytest.raises(ConfigError, match="unknown kernel"):
            env("REPRO_KERNEL")


class TestConfigPlumbing:
    def test_runconfig_default_is_adaptive(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert RunConfig().kernel == "adaptive"

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "wcoj")
        assert RunConfig().kernel == "wcoj"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "wcoj")
        assert RunConfig(kernel="binary").kernel == "binary"

    def test_unknown_kernel_rejected_naming_choices(self):
        with pytest.raises(ConfigError, match="wcoj.*binary.*adaptive"):
            RunConfig(kernel="turbo")

    def test_session_kwarg_flows_to_engine_options(self):
        with JoinSession(workers=2, kernel="binary") as session:
            assert session.config.kernel == "binary"
            assert session.config.engine_options().kernel == "binary"

    def test_session_rejects_unknown_kernel(self):
        with pytest.raises(ConfigError, match="unknown kernel"):
            JoinSession(workers=2, kernel="nope")

    def test_cli_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "binary")
        assert main(["run", "wb", "Q1", "--scale", "1e-5",
                     "--samples", "10", "--kernel", "wcoj",
                     "--engine", "hcubej"]) == 0
        assert "kernel=wcoj" in capsys.readouterr().out

    def test_cli_env_applies_without_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "binary")
        assert main(["run", "wb", "Q1", "--scale", "1e-5",
                     "--samples", "10", "--engine", "hcubej"]) == 0
        assert "kernel=binary" in capsys.readouterr().out

    def test_cli_rejects_unknown_kernel(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "wb", "Q1", "--kernel", "turbo"])


# -- equivalence: all kernels, one answer -------------------------------------

class TestKernelEquivalence:
    @pytest.mark.parametrize("qname", ["Q1", "Q4", "Q7", "Q9"])
    def test_kernels_match_reference_on_paper_queries(self, qname):
        query = paper_query(qname)
        rng = np.random.default_rng(7)
        db = graph_db(query, rng.integers(0, 30, size=(200, 2)))
        expected = leapfrog_reference(query, db)
        for key in KERNELS.keys():
            result = create_kernel(key).execute(query, db,
                                                query.attributes,
                                                materialize=True)
            assert result.count == len(expected), key
            assert result_tuples(result) == expected, key

    @settings(max_examples=25, deadline=None)
    @given(qname=st.sampled_from(["Q1", "Q2", "Q7"]),
           n=st.integers(min_value=0, max_value=60),
           dom=st.integers(min_value=1, max_value=12),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_kernels_match_reference_on_random_dbs(self, qname, n, dom,
                                                   seed):
        query = paper_query(qname)
        rng = np.random.default_rng(seed)
        db = graph_db(query, rng.integers(0, dom, size=(n, 2)))
        expected = leapfrog_reference(query, db)
        for key in KERNELS.keys():
            result = create_kernel(key).execute(query, db,
                                                query.attributes,
                                                materialize=True)
            assert result.count == len(expected), key
            assert result_tuples(result) == expected, key

    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("pooled", [True, False])
    def test_kernels_agree_across_transports(self, transport, pooled):
        counts = {}
        for kernel in KERNELS.keys():
            with JoinSession(workers=2, transport=transport,
                             backend="threads" if pooled else "serial",
                             kernel=kernel,
                             scale=1e-5, samples=10) as session:
                result = session.query("wb", "Q7").run("hcubej")
            assert result.ok, (kernel, transport, result.failure)
            counts[kernel] = result.count
        assert len(set(counts.values())) == 1, counts

    def test_adaptive_mixes_kernels_per_bag(self):
        """Yannakakis under adaptive: per-bag subqueries may resolve to
        different kernels within one run, and counts still agree."""
        query = paper_query("Q7")
        rng = np.random.default_rng(3)
        db = graph_db(query, rng.integers(0, 40, size=(120, 2)))
        cluster = Cluster(num_workers=2)
        base = YannakakisJoin().run(query, db, cluster)
        res = YannakakisJoin(kernel="adaptive").run(query, db, cluster)
        assert res.count == base.count
        decisions = res.extra["kernel_decisions"]
        assert {key for key, _ in decisions.values()} \
            <= set(KERNELS.keys())
        assert all(reason for _, reason in decisions.values())


# -- survival: spawn pools and remote agents ----------------------------------

class TestKernelSurvival:
    def test_kernel_survives_process_pool(self):
        with JoinSession(workers=2, backend="processes",
                         kernel="binary", scale=1e-5,
                         samples=10) as session:
            base = session.query("wb", "Q1")
            result = base.run("hcubej")
        assert result.ok
        assert result.extra["kernel"] == "binary"
        inline = HCubeJ(kernel="binary").run(
            paper_query("Q1"),
            base.db, Cluster(num_workers=2))
        assert result.count == inline.count

    def test_kernel_survives_remote_agent(self):
        from repro.net import WorkerAgent

        with WorkerAgent(slots=2, mode="inline") as agent:
            with JoinSession(workers=2, backend="remote",
                             hosts=(f"127.0.0.1:{agent.port}",),
                             kernel="binary", scale=1e-5,
                             samples=10) as session:
                result = session.query("wb", "Q1").run("hcubej")
        assert result.ok
        assert result.extra["kernel"] == "binary"
        assert agent.tasks_run > 0


# -- seed parity: kernel="wcoj" is the historical engine ----------------------

class TestSeedParity:
    @pytest.mark.parametrize("qname", ["Q1", "Q7"])
    def test_wcoj_kernel_reproduces_seed_counters(self, qname):
        query = paper_query(qname)
        rng = np.random.default_rng(11)
        db = graph_db(query, rng.integers(0, 25, size=(150, 2)))
        cluster = Cluster(num_workers=4)
        seed = HCubeJ().run(query, db, cluster)
        kern = HCubeJ(kernel="wcoj").run(query, db, cluster)
        assert kern.count == seed.count
        assert kern.extra["level_tuples"] == seed.extra["level_tuples"]
        assert kern.extra["leapfrog_work"] == seed.extra["leapfrog_work"]
        assert kern.extra["kernel"] == "wcoj"

    def test_wcoj_kernel_matches_seed_adj(self):
        query = paper_query("Q1")
        rng = np.random.default_rng(13)
        db = graph_db(query, rng.integers(0, 25, size=(150, 2)))
        cluster = Cluster(num_workers=4)
        seed = ADJ(num_samples=10).run(query, db, cluster)
        kern = ADJ(num_samples=10, kernel="wcoj").run(query, db, cluster)
        assert kern.count == seed.count
        assert kern.extra["level_tuples"] == seed.extra["level_tuples"]
        assert kern.extra["leapfrog_work"] == seed.extra["leapfrog_work"]

    def test_binary_budget_trips_in_binary_units(self):
        from repro.errors import BudgetExceeded

        query = paper_query("Q7")
        rng = np.random.default_rng(5)
        db = graph_db(query, rng.integers(0, 10, size=(400, 2)))
        with pytest.raises(BudgetExceeded):
            create_kernel("binary").execute(query, db, query.attributes,
                                            budget=10)


# -- adaptive choice, spans and metrics ---------------------------------------

class TestAdaptiveChoice:
    def test_cyclic_query_forces_wcoj(self):
        query = paper_query("Q1")   # triangle: cyclic
        rng = np.random.default_rng(0)
        db = graph_db(query, rng.integers(0, 20, size=(100, 2)))
        choice = choose_kernel("adaptive", query, db)
        assert choice.key == "wcoj"
        assert "cyclic" in choice.reason

    def test_low_blowup_acyclic_picks_binary(self):
        query = paper_query("Q7")   # path: acyclic
        rng = np.random.default_rng(0)
        # Sparse: many nodes, few collisions -> small intermediates.
        db = graph_db(query, rng.integers(0, 4000, size=(400, 2)))
        choice = choose_kernel("adaptive", query, db)
        assert choice.key == "binary", choice.reason

    def test_forced_key_passes_through(self):
        query = paper_query("Q1")
        db = graph_db(query, np.zeros((1, 2), dtype=np.int64))
        for key in ("wcoj", "binary"):
            choice = choose_kernel(key, query, db)
            assert choice.key == key
            assert choice.reason == "forced"

    def test_selection_increments_metric(self):
        query = paper_query("Q1")
        rng = np.random.default_rng(0)
        db = graph_db(query, rng.integers(0, 20, size=(80, 2)))
        cluster = Cluster(num_workers=2)
        before = METRICS.counter("kernel.selected.wcoj").snapshot()
        HCubeJ(kernel="adaptive").run(query, db, cluster)
        after = METRICS.counter("kernel.selected.wcoj").snapshot()
        assert after == before + 1

    def test_kernel_select_span_in_session_trace(self, tmp_path):
        trace = tmp_path / "trace.json"
        with JoinSession(workers=2, kernel="adaptive", scale=1e-5,
                         samples=10,
                         trace_path=str(trace)) as session:
            result = session.query("wb", "Q1").run("hcubej")
        events = result.extra["trace"]["traceEvents"]
        names = {e.get("name") for e in events}
        assert "kernel_select" in names
        run_spans = [e for e in events if e.get("name") == "engine_run"]
        assert run_spans and all(
            e["args"]["kernel"] == "adaptive" for e in run_spans)

    def test_explain_reports_kernel_decisions(self):
        with JoinSession(workers=2, kernel="adaptive", scale=1e-5,
                         samples=10) as session:
            report = session.query("wb", "Q7").explain()
        assert report.kernel_decisions
        for key, reason in report.kernel_decisions.values():
            assert key in KERNELS.keys()
            assert reason
        assert "kernel decisions:" in report.describe()


# -- supporting machinery -----------------------------------------------------

class TestDistinctCountCache:
    def test_memoized_per_column(self):
        rel = Relation("R", ("x", "y"),
                       np.array([[1, 2], [1, 3], [2, 3]]))
        assert rel.distinct_count("x") == 2
        assert rel._distinct == {0: 2}
        assert rel.distinct_count("x") == 2   # cached, no recompute
        assert rel.distinct_count("y") == 2
        assert rel._distinct == {0: 2, 1: 2}

    def test_shared_through_rename_and_reorder(self):
        rel = Relation("R", ("x", "y"),
                       np.array([[1, 2], [1, 3], [2, 3]]))
        rel.distinct_count("x")
        renamed = rel.rename({"x": "a", "y": "b"})
        assert renamed._distinct is rel._distinct
        swapped = rel.reorder(("y", "x"))
        assert swapped._distinct == {1: 2}
        assert swapped.distinct_count("x") == 2

    def test_projection_keeps_kept_columns(self):
        rel = Relation("R", ("x", "y"),
                       np.array([[1, 2], [1, 3], [2, 3]]))
        rel.distinct_count("y")
        proj = rel.project(("y",))
        assert proj._distinct == {0: 2}


class TestBatchedLeafFallback:
    def test_huge_values_run_on_the_frontier_with_rank_keys(self):
        """``parent * width + offset`` keys would overflow int64 near
        2**62; such levels key a value by its rank among the level's
        distinct values, so the frontier still runs, same answer."""
        big = 2 ** 61
        query = paper_query("Q1")
        edges = np.array([[0, big], [0, 0], [1, big], [1, 0], [big, 0],
                          [-big, 0], [0, -big]], dtype=np.int64)
        db = graph_db(query, edges)
        expected = leapfrog_reference(query, db)
        tries = build_tries(query, db, query.attributes)
        assert all(t.levels().distinct[1] is not None for t in tries)
        assert all(t.levels().keys[1] is not None for t in tries)
        result = leapfrog_join(query, db, materialize=True)
        assert result.count == len(expected) > 0
        assert result_tuples(result) == expected

    def test_small_values_batch_and_recursive_agree_on_counters(self):
        """A cached run whose capacity admits nothing charges every
        binding as the uncached one does; it still counts misses, so the
        comparison is over the counters both runs fill.
        tests/test_frontier holds the randomized version of this."""
        query = paper_query("Q9")
        rng = np.random.default_rng(2)
        db = graph_db(query, rng.integers(0, 15, size=(120, 2)))
        batched = leapfrog_join(query, db)
        recursive = leapfrog_join(query, db, cache_capacity=0)
        assert batched.count == recursive.count
        assert recursive.stats.cache_hits == 0
        for name in ("level_tuples", "level_work", "level_extensions",
                     "intersection_work", "extensions", "emitted"):
            assert getattr(batched.stats, name) \
                == getattr(recursive.stats, name), name


class TestEngineKernelOptions:
    def test_all_engines_accept_kernel_option(self):
        from repro.engines import registry

        opts = EngineOptions(kernel="adaptive")
        for name in registry.available():
            registry.create(name, opts)   # must not raise

    def test_sparksql_reports_pinned_binary(self):
        query = paper_query("Q7")
        rng = np.random.default_rng(0)
        db = graph_db(query, rng.integers(0, 30, size=(100, 2)))
        res = SparkSQLJoin().run(query, db, Cluster(num_workers=2))
        assert res.extra["kernel"] == "binary"

    def test_bigjoin_reports_pinned_wcoj(self):
        from repro.engines import BigJoin

        query = paper_query("Q1")
        rng = np.random.default_rng(0)
        db = graph_db(query, rng.integers(0, 20, size=(80, 2)))
        res = BigJoin().run(query, db, Cluster(num_workers=2))
        assert res.extra["kernel"] == "wcoj"
