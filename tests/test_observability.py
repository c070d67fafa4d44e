"""Observability: span tracing, metrics registry, structured logging.

Covers the repro.obs package itself (tracer semantics, the zero-cost
noop contract, Chrome trace export, counter/gauge/histogram behaviour,
key=value logging) plus the wiring: traced runs through JoinSession,
span propagation across process pools and worker agents, metrics
agreement with EngineResult.data_plane, and the RuntimeTelemetry edge
cases that feed the bench tables.
"""

import json
import logging
import os
import pickle

import pytest

from repro.distributed.metrics import CostBreakdown
from repro.errors import ConfigError
from repro.obs import tracing
from repro.obs.log import (
    KeyValueFormatter,
    configure_logging,
    get_logger,
    kv,
    resolve_level,
)
from repro.obs.expo import prometheus_text
from repro.obs.metrics import (
    METRICS,
    MetricsRegistry,
    snapshot_delta,
)
from repro.obs.tracing import (
    NOOP_TRACER,
    Span,
    Tracer,
    chrome_trace_events,
    current_tracer,
    set_thread_tracer,
    set_tracer,
    task_tracer,
    trace_context,
    use_tracer,
    write_chrome_trace,
)
from repro.runtime.scheduler import absorb_result_observability
from repro.runtime.telemetry import RuntimeTelemetry, modeled_vs_measured
from repro.runtime.worker import WorkerTaskResult


@pytest.fixture(autouse=True)
def _clean_observability_state():
    """Every test starts and ends with NOOP tracing and fresh metrics."""
    set_tracer(None)
    set_thread_tracer(None)
    METRICS.reset()
    yield
    set_tracer(None)
    set_thread_tracer(None)
    METRICS.reset()


# -- tracer core --------------------------------------------------------------


class TestTracer:
    def test_span_records_wall_clock_and_origin(self):
        t = Tracer(host="h1")
        with t.span("work", cat="test", items=3):
            pass
        (span,) = t.spans
        assert span.name == "work"
        assert span.cat == "test"
        assert span.args == {"items": 3}
        assert span.host == "h1"
        assert span.pid == os.getpid()
        assert span.tid != 0
        assert span.dur >= 0.0

    def test_span_survives_exception_and_tags_error(self):
        t = Tracer()
        with pytest.raises(ValueError):
            with t.span("boom"):
                raise ValueError("x")
        (span,) = t.spans
        assert span.args["error"] == "ValueError"

    def test_nested_spans_both_recorded(self):
        t = Tracer()
        with t.span("outer"):
            with t.span("inner"):
                pass
        assert [s.name for s in t.spans] == ["inner", "outer"]

    def test_add_span_clamps_negative_duration(self):
        t = Tracer()
        span = t.add_span("x", ts=1.0, dur=-0.5)
        assert span.dur == 0.0

    def test_mark_and_export_since(self):
        t = Tracer()
        t.add_span("a", 1.0, 0.1)
        mark = t.mark()
        t.add_span("b", 2.0, 0.1)
        payload = t.export_payload(since=mark)
        assert [p["name"] for p in payload] == ["b"]

    def test_export_merge_round_trip_preserves_spans(self):
        src = Tracer(host="worker-host")
        src.add_span("task", 1.0, 0.5, cat="task", worker=4)
        payload = pickle.loads(pickle.dumps(src.export_payload()))
        dst = Tracer(host="coord")
        assert dst.merge_payload(payload) == 1
        (span,) = dst.spans
        assert span.name == "task"
        assert span.host == "worker-host"   # worker's stamp kept
        assert span.args == {"worker": 4}

    def test_merge_fills_only_missing_host(self):
        dst = Tracer()
        dst.merge_payload([{"name": "a", "ts": 1, "dur": 0, "host": ""}],
                          host="agent-7")
        dst.merge_payload([{"name": "b", "ts": 1, "dur": 0,
                            "host": "real"}], host="agent-7")
        assert dst.spans[0].host == "agent-7"
        assert dst.spans[1].host == "real"

    def test_merge_none_payload_is_noop(self):
        t = Tracer()
        assert t.merge_payload(None) == 0
        assert len(t) == 0

    def test_tracer_records_creating_pid(self):
        assert Tracer().pid == os.getpid()

    def test_query_id_stamped_into_span_args(self):
        t = Tracer(query_id="q0001:Q5")
        with t.span("route", cat="engine"):
            pass
        t.add_span("publish", 1.0, 0.1, query_id="q0042:Q1")
        assert t.spans[0].args["query_id"] == "q0001:Q5"
        # An explicit query_id in args wins over the tracer's.
        assert t.spans[1].args["query_id"] == "q0042:Q1"

    def test_query_id_off_by_default(self):
        t = Tracer()
        assert t.query_id is None
        with t.span("route"):
            pass
        assert "query_id" not in t.spans[0].args
        assert NOOP_TRACER.query_id is None


class TestChromeExport:
    def test_events_are_sorted_and_complete(self):
        t = Tracer(host="h")
        t.add_span("late", ts=5.0, dur=0.1)
        t.add_span("early", ts=1.0, dur=0.2)
        doc = t.chrome_trace()
        assert doc["displayTimeUnit"] == "ms"
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert [e["name"] for e in xs] == ["early", "late"]
        ts = [e["ts"] for e in xs]
        assert ts == sorted(ts)
        for e in xs:
            assert set(e) >= {"name", "cat", "ts", "dur", "pid", "tid"}
        assert xs[0]["ts"] == pytest.approx(1.0 * 1e6)
        assert xs[0]["dur"] == pytest.approx(0.2 * 1e6)

    def test_metadata_event_names_process_per_host_pid(self):
        events = chrome_trace_events([
            Span(name="a", ts=1.0, pid=11, host="hostA"),
            Span(name="b", ts=2.0, pid=11, host="hostA"),
            Span(name="c", ts=3.0, pid=22, host="hostB"),
        ])
        metas = [e for e in events if e["ph"] == "M"]
        assert len(metas) == 2
        assert {m["args"]["name"] for m in metas} == \
            {"hostA (pid 11)", "hostB (pid 22)"}

    def test_span_host_lands_in_event_args(self):
        (meta, x) = chrome_trace_events(
            [Span(name="a", ts=1.0, pid=1, host="远端")])
        assert x["args"]["host"] == "远端"

    def test_write_chrome_trace_returns_x_count(self, tmp_path):
        path = str(tmp_path / "t.json")
        n = write_chrome_trace(path, [Span(name="a", ts=1.0, pid=1)])
        assert n == 1
        doc = json.load(open(path))
        assert len(doc["traceEvents"]) == 2   # one M + one X


class TestNoopTracer:
    def test_span_returns_the_singleton_itself(self):
        assert NOOP_TRACER.span("anything", cat="x", k=1) is NOOP_TRACER
        with NOOP_TRACER.span("ctx") as got:
            assert got is NOOP_TRACER

    def test_all_queries_report_empty(self):
        NOOP_TRACER.add_span("x", 1.0, 1.0)
        assert len(NOOP_TRACER) == 0
        assert NOOP_TRACER.export_payload() == []
        assert NOOP_TRACER.merge_payload([{"name": "a"}]) == 0
        assert NOOP_TRACER.mark() == 0

    def test_disabled_run_allocates_no_span_objects(self, monkeypatch):
        """Tracing off => zero Span construction on the hot path."""
        def exploding_span(*args, **kwargs):
            raise AssertionError("Span allocated with tracing off")

        monkeypatch.setattr(tracing, "Span", exploding_span)
        # The module-level default is the noop path.
        with current_tracer().span("hot", cat="task", worker=0):
            pass
        assert current_tracer() is NOOP_TRACER

    def test_profile_off_run_allocates_no_span_objects(self,
                                                       monkeypatch):
        """Tracing off AND profiling off => a full query run constructs
        zero Span objects anywhere on the coordinator (the PR-6 noop
        contract, extended to the profiler)."""
        from repro import JoinSession

        def exploding_span(*args, **kwargs):
            raise AssertionError("Span allocated with profiling off")

        monkeypatch.setattr(tracing, "Span", exploding_span)
        with JoinSession(workers=2, backend="threads",
                         transport="pickle") as session:
            result = session.query("wb", "Q1", scale=1e-5).run(
                "adj", profile=False)
        assert result.ok
        assert result.profile is None


class TestTracerInstallation:
    def test_thread_local_wins_over_global(self):
        global_t, local_t = Tracer(), Tracer()
        set_tracer(global_t)
        assert current_tracer() is global_t
        prev = set_thread_tracer(local_t)
        assert current_tracer() is local_t
        set_thread_tracer(prev)
        assert current_tracer() is global_t

    def test_use_tracer_restores_previous(self):
        t = Tracer()
        with use_tracer(t):
            assert current_tracer() is t
        assert current_tracer() is NOOP_TRACER

    def test_trace_context_none_when_disabled(self):
        assert trace_context() is None
        with use_tracer(Tracer(host="org")):
            assert trace_context() == {"enabled": True, "origin": "org"}

    def test_trace_context_carries_query_id_across_processes(self):
        """The chain that attributes pool/agent spans to a query: the
        coordinator's context carries query_id, and task_tracer builds
        the child's tracer with it."""
        with use_tracer(Tracer(host="org", query_id="q0003:Q9")):
            ctx = trace_context()
        assert ctx["query_id"] == "q0003:Q9"
        child = task_tracer(ctx)        # fresh worker process path
        assert child.query_id == "q0003:Q9"
        with child.span("agent_task", cat="task"):
            pass
        assert child.spans[0].args["query_id"] == "q0003:Q9"

    def test_task_tracer_rules(self):
        # No context: the free path.
        assert task_tracer(None) is NOOP_TRACER
        # Context but nothing current (a fresh worker process): record
        # locally to ship home.
        local = task_tracer({"enabled": True})
        assert isinstance(local, Tracer) and local.enabled
        # A same-process recording tracer is current: record directly.
        with use_tracer(Tracer()):
            assert task_tracer({"enabled": True}) is NOOP_TRACER

    def test_task_tracer_detects_forked_copy_by_pid(self):
        """A forked child inherits the coordinator's tracer object but
        must still build a local one — spans recorded into the inherited
        copy would never ship home."""
        inherited = Tracer()
        inherited.pid = os.getpid() + 1     # simulate the parent's pid
        with use_tracer(inherited):
            local = task_tracer({"enabled": True})
        assert local is not inherited
        assert isinstance(local, Tracer) and local.enabled


# -- metrics ------------------------------------------------------------------


class TestMetrics:
    def test_counter_accumulates_and_snapshots_int(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(2)
        assert reg.snapshot()["c"] == 3
        assert isinstance(reg.snapshot()["c"], int)

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("c").inc(-1)

    def test_gauge_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("g")
        g.set(5.0)
        g.inc(2.0)
        g.dec(3.0)
        assert reg.snapshot()["g"] == 4.0

    def test_histogram_stats(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        snap = reg.snapshot()["h"]
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(6.0)
        assert snap["min"] == 1.0 and snap["max"] == 3.0
        assert snap["mean"] == pytest.approx(2.0)

    def test_empty_histogram_snapshots_zeros(self):
        reg = MetricsRegistry()
        reg.histogram("h")
        assert reg.snapshot()["h"]["count"] == 0

    def test_kind_mismatch_raises_type_error(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_snapshot_is_sorted_and_reset_clears(self):
        reg = MetricsRegistry()
        reg.counter("b.z").inc()
        reg.counter("a.y").inc()
        assert list(reg.snapshot()) == ["a.y", "b.z"]
        reg.reset()
        assert reg.snapshot() == {}

    def test_histogram_snapshot_keeps_legacy_keys_and_quantiles(self):
        """Existing ``runtime.task_seconds`` consumers read count/sum/
        min/max/mean; the reservoir adds p50/p95/p99 alongside."""
        reg = MetricsRegistry()
        h = reg.histogram("h")
        for v in range(1, 101):
            h.observe(float(v))
        snap = reg.snapshot()["h"]
        assert set(snap) == {"count", "sum", "min", "max", "mean",
                             "p50", "p95", "p99"}
        assert snap["count"] == 100
        # Exact while the reservoir (512 slots) hasn't overflowed.
        assert snap["p50"] == pytest.approx(50.0, abs=2.0)
        assert snap["p95"] == pytest.approx(95.0, abs=2.0)
        assert snap["p99"] == pytest.approx(99.0, abs=2.0)

    def test_histogram_reservoir_is_bounded_and_deterministic(self):
        from repro.obs.metrics import RESERVOIR_SIZE

        def fill(reg):
            h = reg.histogram("h")
            for v in range(10 * RESERVOIR_SIZE):
                h.observe(float(v))
            return h

        a, b = fill(MetricsRegistry()), fill(MetricsRegistry())
        assert len(a._samples) == RESERVOIR_SIZE
        # Same name => same seed => reproducible quantiles.
        assert a._samples == b._samples
        # Algorithm R keeps a uniform sample: the median of 0..5119
        # stays near the true midpoint.
        mid = 10 * RESERVOIR_SIZE / 2
        assert a.percentile(0.50) == pytest.approx(mid, rel=0.25)

    def test_scope_windows_counters_and_histograms(self):
        reg = MetricsRegistry()
        reg.counter("tasks").inc(10)        # pre-window noise
        reg.histogram("lat").observe(99.0)
        with reg.scope("q0001:Q1") as scope:
            reg.counter("tasks").inc(2)
            reg.gauge("depth").set(3.0)
            reg.histogram("lat").observe(1.0)
            reg.histogram("lat").observe(2.0)
        reg.counter("tasks").inc(5)         # post-window noise
        window = scope.snapshot()
        assert window["tasks"] == 2
        assert window["depth"] == 3.0
        assert window["lat"]["count"] == 2
        assert window["lat"]["max"] == 2.0  # 99.0 stayed outside
        # Quantiles are computed over the window's own reservoir.
        assert window["lat"]["p95"] == pytest.approx(2.0)
        # The parent registry saw everything.
        assert reg.snapshot()["tasks"] == 17

    def test_scopes_nest_and_detach_cleanly(self):
        reg = MetricsRegistry()
        with reg.scope("outer") as outer:
            reg.counter("c").inc()
            with reg.scope("inner") as inner:
                reg.counter("c").inc()
        assert inner.snapshot()["c"] == 1
        assert outer.snapshot()["c"] == 2
        reg.counter("c").inc()              # both windows closed
        assert outer.snapshot()["c"] == 2

    def test_snapshot_delta_diffs_counters_and_windows_histograms(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.counter("same").inc(1)
        h = reg.histogram("h")
        h.observe(1.0)
        before = reg.snapshot()
        reg.counter("c").inc(4)
        h.observe(5.0)
        h.observe(7.0)
        reg.counter("new").inc(9)
        delta = snapshot_delta(before, reg.snapshot())
        assert delta["c"] == 4
        assert delta["new"] == 9
        assert "same" not in delta          # zero-change entries omitted
        assert delta["h"]["count"] == 2
        assert delta["h"]["sum"] == pytest.approx(12.0)
        assert delta["h"]["mean"] == pytest.approx(6.0)

    def test_instruments_returns_sorted_typed_pairs(self):
        reg = MetricsRegistry()
        reg.counter("b.count").inc()
        reg.gauge("a.level").set(1.0)
        reg.histogram("c.lat").observe(0.5)
        names = [name for name, _ in reg.instruments()]
        assert names == ["a.level", "b.count", "c.lat"]


class TestPrometheusExposition:
    def test_counters_get_total_suffix_and_type_lines(self):
        reg = MetricsRegistry()
        reg.counter("runtime.tasks_completed").inc(7)
        text = prometheus_text(reg)
        assert "# TYPE repro_runtime_tasks_completed_total counter" \
            in text
        assert "repro_runtime_tasks_completed_total 7" in text

    def test_histograms_render_as_summaries(self):
        reg = MetricsRegistry()
        h = reg.histogram("runtime.task_seconds")
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        text = prometheus_text(reg)
        assert "# TYPE repro_runtime_task_seconds summary" in text
        assert 'repro_runtime_task_seconds{quantile="0.5"} 2' in text
        assert "repro_runtime_task_seconds_sum 6" in text
        assert "repro_runtime_task_seconds_count 3" in text

    def test_per_host_series_fold_into_labels(self):
        reg = MetricsRegistry()
        reg.gauge("net.heartbeat_rtt_seconds.10.0.0.7:7070").set(0.25)
        reg.counter("kernel.selected.wcoj").inc()
        text = prometheus_text(reg)
        assert ('repro_net_heartbeat_rtt_seconds'
                '{host="10.0.0.7:7070"} 0.25') in text
        assert 'repro_kernel_selected_total{kernel="wcoj"} 1' in text

    def test_extra_gauges_appended(self):
        text = prometheus_text(MetricsRegistry(),
                               extra={"agent_slots": 4})
        assert "# TYPE repro_agent_slots gauge" in text
        assert "repro_agent_slots 4" in text

    def test_output_is_parseable_line_format(self):
        reg = MetricsRegistry()
        reg.counter("a.b").inc(2)
        reg.gauge("c.d").set(1.5)
        reg.histogram("e.f").observe(1.0)
        for line in prometheus_text(reg).splitlines():
            assert line == line.strip() and line
            if line.startswith("#"):
                assert line.split()[1] in ("TYPE", "HELP")
                continue
            sample, value = line.rsplit(" ", 1)
            float(value)                    # every value parses
            assert sample.startswith("repro_")


# -- logging ------------------------------------------------------------------


class TestLogging:
    def test_get_logger_prefixes_hierarchy(self):
        assert get_logger("net.agent").name == "repro.net.agent"
        assert get_logger("repro.cli").name == "repro.cli"

    def test_kv_quotes_values_with_spaces(self):
        line = kv(port=7070, msg="agent went away", ok=True)
        assert "port=7070" in line
        assert 'msg="agent went away"' in line
        assert "ok=True" in line

    def test_formatter_emits_key_value_line(self):
        record = logging.LogRecord("repro.test", logging.INFO, "f.py", 1,
                                   "hello %s", ("world",), None)
        line = KeyValueFormatter().format(record)
        assert "level=INFO" in line
        assert "logger=repro.test" in line
        assert 'msg="hello world"' in line
        assert line.startswith("ts=")

    def test_resolve_level_precedence(self, monkeypatch):
        monkeypatch.delenv("REPRO_LOG", raising=False)
        assert resolve_level(None) == logging.WARNING
        monkeypatch.setenv("REPRO_LOG", "info")
        assert resolve_level(None) == logging.INFO
        assert resolve_level("debug") == logging.DEBUG   # flag beats env
        with pytest.raises(ValueError):
            resolve_level("chatty")

    def test_configure_logging_is_idempotent(self):
        root = logging.getLogger("repro")
        before = list(root.handlers)
        try:
            configure_logging("info")
            configure_logging("debug")
            ours = [h for h in root.handlers
                    if getattr(h, "_repro_obs", False)]
            assert len(ours) == 1
            assert root.level == logging.DEBUG
        finally:
            for h in list(root.handlers):
                if getattr(h, "_repro_obs", False):
                    root.removeHandler(h)
            root.handlers = before
            root.setLevel(logging.NOTSET)


# -- telemetry edge cases -----------------------------------------------------


class TestTelemetryEdgeCases:
    def test_measure_records_phase_on_exception(self):
        tel = RuntimeTelemetry()
        with pytest.raises(RuntimeError):
            with tel.measure("shuffle"):
                raise RuntimeError("boom")
        assert tel.phase_seconds["shuffle"] >= 0.0

    def test_record_overlap_clamps_negative(self):
        tel = RuntimeTelemetry()
        tel.record_overlap(-1.0)
        assert tel.overlap_seconds == 0.0
        tel.record_overlap(0.5)
        tel.record_overlap(-2.0)
        assert tel.overlap_seconds == 0.5

    def test_as_row_key_stability(self):
        tel = RuntimeTelemetry()
        tel.record("shuffle", 1.0)
        tel.record_worker(0, 2.0)
        tel.record_worker(1, 3.0)
        row = tel.as_row()
        assert set(row) == {"measured_shuffle", "measured_total",
                            "measured_overlap", "measured_straggler"}
        assert row["measured_straggler"] == 3.0

    def test_modeled_vs_measured_carries_overlap_and_straggler(self):
        breakdown = CostBreakdown()
        rec = modeled_vs_measured(breakdown, None)
        assert rec["measured_overlap"] is None
        assert rec["straggler_seconds"] is None
        tel = RuntimeTelemetry(backend="threads")
        tel.record_overlap(0.25)
        tel.record_worker(3, 1.5)
        rec = modeled_vs_measured(breakdown, tel)
        assert rec["measured_overlap"] == 0.25
        assert rec["straggler_seconds"] == 1.5
        assert rec["backend"] == "threads"


# -- scheduler absorption -----------------------------------------------------


class TestAbsorbResultObservability:
    def test_crashed_task_spans_still_merge(self):
        shipped = Tracer(host="worker-9")
        shipped.add_span("worker_task", 1.0, 0.5, cat="task")
        crashed = WorkerTaskResult(worker=9, failure="crash",
                                   spans=shipped.export_payload(),
                                   total_seconds=0.5)
        coord = Tracer(host="coord")
        with use_tracer(coord):
            absorb_result_observability([crashed])
        assert [s.name for s in coord.spans] == ["worker_task"]
        assert coord.spans[0].host == "worker-9"
        snap = METRICS.snapshot()
        assert snap["runtime.tasks_failed"] == 1
        assert "runtime.tasks_completed" not in snap
        assert snap["runtime.task_seconds"]["count"] == 1

    def test_results_without_spans_count_as_completed(self):
        ok = WorkerTaskResult(worker=0, total_seconds=0.1)
        absorb_result_observability([ok])
        assert METRICS.snapshot()["runtime.tasks_completed"] == 1


# -- config / session / CLI wiring --------------------------------------------


class TestConfigWiring:
    def test_trace_path_env_default(self, monkeypatch):
        from repro.api.config import RunConfig

        monkeypatch.setenv("REPRO_TRACE", "/tmp/via-env.json")
        assert RunConfig().trace_path == "/tmp/via-env.json"
        assert RunConfig(trace_path="/tmp/flag.json").trace_path == \
            "/tmp/flag.json"

    def test_log_level_validated(self):
        from repro.api.config import RunConfig

        with pytest.raises(ConfigError):
            RunConfig(log_level="chatty")

    def test_profile_env_default(self, monkeypatch):
        from repro.api.config import RunConfig

        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        assert RunConfig().profile is False
        monkeypatch.setenv("REPRO_PROFILE", "on")
        assert RunConfig().profile is True
        assert RunConfig(profile=False).profile is False  # flag wins
        monkeypatch.setenv("REPRO_PROFILE", "sometimes")
        with pytest.raises(ConfigError):
            RunConfig()

    def test_session_tracer_noop_without_trace_path(self):
        from repro import JoinSession

        with JoinSession(workers=2) as session:
            assert session.tracer() is NOOP_TRACER
            assert session.metrics() == METRICS.snapshot()


class TestTracedRuns:
    def test_threads_run_covers_route_publish_and_tasks(self, tmp_path):
        from repro import JoinSession

        path = str(tmp_path / "run.json")
        with JoinSession(workers=2, backend="threads",
                         transport="pickle", trace_path=path) as session:
            result = session.query("wb", "Q1", scale=1e-5).run("adj")
            assert result.ok
            names = {s.name for s in session.tracer().spans}
            assert {"engine_run", "route", "publish",
                    "worker_task"} <= names
            # The per-run slice rides on the result too.
            xs = [e for e in result.trace["traceEvents"]
                  if e["ph"] == "X"]
            assert {e["name"] for e in xs} >= {"engine_run",
                                               "worker_task"}
        doc = json.load(open(path))
        ts = [e["ts"] for e in doc["traceEvents"] if e["ph"] == "X"]
        assert ts and ts == sorted(ts)

    def test_untraced_run_attaches_no_trace(self):
        from repro import JoinSession

        with JoinSession(workers=2, backend="threads",
                         transport="pickle") as session:
            result = session.query("wb", "Q1", scale=1e-5).run("adj")
            assert result.ok
            assert result.trace is None

    def test_metrics_agree_with_data_plane(self):
        from repro import JoinSession

        # The supported windowing pattern: diff two snapshots instead
        # of resetting the process-global registry.
        before = METRICS.snapshot()
        with JoinSession(workers=2, backend="threads",
                         transport="pickle") as session:
            result = session.query("wb", "Q1", scale=1e-5).run("adj")
            assert result.ok
            plane = result.data_plane
            snap = session.metrics(delta_from=before)
            for key in ("published_blocks", "published_bytes",
                        "shipped_refs", "shipped_bytes",
                        "fetched_blocks", "fetched_bytes"):
                # Zero-valued stats are skipped at teardown, and the
                # delta omits unchanged entries, so a missing counter
                # reads as 0.
                assert snap.get(f"transport.{key}", 0) == plane[key]

    def test_session_metrics_delta_is_a_window(self):
        from repro import JoinSession

        with JoinSession(workers=2) as session:
            METRICS.counter("query.runs").inc(5)
            before = session.metrics()
            METRICS.counter("query.runs").inc(2)
            METRICS.histogram("query.seconds").observe(0.5)
            delta = session.metrics(delta_from=before)
        assert delta["query.runs"] == 2
        assert delta["query.seconds"]["count"] == 1
        assert delta["query.seconds"]["mean"] == pytest.approx(0.5)

    def test_cli_run_trace_flag_writes_chrome_json(self, tmp_path,
                                                   capsys):
        from repro.cli import main

        path = str(tmp_path / "cli.json")
        assert main(["run", "wb", "Q1", "--engine", "adj",
                     "--backend", "threads", "--transport", "pickle",
                     "--scale", "1e-5", "--samples", "10",
                     "--trace", path]) == 0
        assert f"trace written to {path}" in capsys.readouterr().out
        doc = json.load(open(path))
        assert any(e["ph"] == "X" for e in doc["traceEvents"])


# -- remote agent propagation -------------------------------------------------


class TestAgentObservability:
    def test_task_reply_meta_ships_agent_spans(self):
        from repro.net import WorkerAgent
        from repro.net.protocol import (
            OP_BYE,
            OP_DATA,
            OP_TASK,
            connect,
            request,
            send_frame,
        )

        agent = WorkerAgent(port=0, slots=1, mode="inline").start()
        try:
            sock = connect("127.0.0.1", agent.port)
            payload = pickle.dumps((_echo_task, 7))
            op, meta, _ = request(
                sock, OP_TASK,
                {"trace": {"enabled": True, "origin": "t"}, "slot": 0},
                payload)
            assert op == OP_DATA
            assert [s["name"] for s in meta["spans"]] == ["agent_task"]
            send_frame(sock, OP_BYE, {})
            sock.close()
        finally:
            agent.stop()

    def test_err_reply_meta_ships_agent_spans(self):
        from repro.errors import NetError
        from repro.net import WorkerAgent
        from repro.net.protocol import OP_TASK, connect, request

        agent = WorkerAgent(port=0, slots=1, mode="inline").start()
        try:
            sock = connect("127.0.0.1", agent.port)
            payload = pickle.dumps((_crash_task, None))
            with pytest.raises(NetError) as info:
                request(sock, OP_TASK,
                        {"trace": {"enabled": True, "origin": "t"},
                         "slot": 0}, payload)
            spans = info.value.meta["spans"]
            assert [s["name"] for s in spans] == ["agent_task"]
            assert spans[0]["args"]["error"] == "RuntimeError"
            sock.close()
        finally:
            agent.stop()

    def test_agent_stats_returns_counters_and_metrics(self):
        from repro.net import WorkerAgent, agent_stats

        agent = WorkerAgent(port=0, slots=3, mode="inline").start()
        try:
            stats = agent_stats("127.0.0.1", agent.port)
        finally:
            agent.stop()
        assert stats["service"] == "worker-agent"
        assert stats["slots"] == 3
        assert stats["tasks_run"] == 0
        assert isinstance(stats["metrics"], dict)

    def test_stat_returns_history_when_asked(self):
        from repro.net import WorkerAgent
        from repro.net.protocol import (
            OP_BYE,
            OP_STAT,
            connect,
            request,
            send_frame,
        )

        agent = WorkerAgent(port=0, slots=1, mode="inline",
                            history_interval=0.1).start()
        try:
            import time

            time.sleep(0.35)            # let the sampler tick a few times
            sock = connect("127.0.0.1", agent.port)
            _op, plain, _ = request(sock, OP_STAT, {})
            _op, with_hist, _ = request(sock, OP_STAT, {"history": 2})
            send_frame(sock, OP_BYE, {})
            sock.close()
        finally:
            agent.stop()
        assert "history" not in plain   # default reply stays small
        samples = with_hist["history"]
        assert 1 <= len(samples) <= 2
        for sample in samples:
            assert set(sample) >= {"ts", "tasks_run", "tasks_failed",
                                   "tasks_active"}
        assert [s["ts"] for s in samples] == \
            sorted(s["ts"] for s in samples)

    def test_expo_opcode_serves_prometheus_text(self):
        from repro.net import WorkerAgent
        from repro.net.agent import agent_expo

        agent = WorkerAgent(port=0, slots=2, mode="inline").start()
        try:
            text = agent_expo("127.0.0.1", agent.port)
        finally:
            agent.stop()
        assert "# TYPE repro_agent_slots gauge" in text
        assert "repro_agent_slots 2" in text
        assert "repro_agent_tasks_run 0" in text
        # Every sample line parses as "<series> <float>".
        for line in text.splitlines():
            if line and not line.startswith("#"):
                float(line.rsplit(" ", 1)[1])

    def test_expo_http_endpoint_matches_frame_opcode(self):
        import urllib.request

        from repro.net import WorkerAgent
        from repro.net.agent import agent_expo

        agent = WorkerAgent(port=0, slots=1, mode="inline",
                            expo_port=0)
        # expo_port=0 is not routable for HTTP (BaseHTTPServer binds an
        # ephemeral port); read it back from the server object.
        agent.start()
        try:
            http_port = agent._expo_server.server_address[1]
            with urllib.request.urlopen(
                    f"http://127.0.0.1:{http_port}/metrics",
                    timeout=5) as resp:
                assert resp.headers["Content-Type"].startswith(
                    "text/plain")
                http_text = resp.read().decode()
            frame_text = agent_expo("127.0.0.1", agent.port)
        finally:
            agent.stop()
        # Same collector behind both surfaces (gauge samples may move
        # between scrapes; the family lines are stable).
        http_families = {l for l in http_text.splitlines()
                         if l.startswith("# TYPE")}
        frame_families = {l for l in frame_text.splitlines()
                          if l.startswith("# TYPE")}
        assert http_families == frame_families

    def test_agent_records_task_latency_metrics(self):
        from repro.net import WorkerAgent
        from repro.net.protocol import (
            OP_BYE,
            OP_TASK,
            connect,
            request,
            send_frame,
        )

        from repro.net.agent import agent_stats

        agent = WorkerAgent(port=0, slots=1, mode="inline").start()
        try:
            sock = connect("127.0.0.1", agent.port)
            # A STAT right after each reply sees that task: the agent
            # records it before sending the reply.
            for n in range(1, 21):
                request(sock, OP_TASK, {"slot": 0},
                        pickle.dumps((_echo_task, 1)))
                stats = agent_stats("127.0.0.1", agent.port)
                if n == 1:
                    reply_bytes = stats["metrics"]["agent.reply_bytes"]
                    assert reply_bytes > 0
                assert stats["metrics"]["agent.task_seconds"]["count"] == n
                assert stats["metrics"]["agent.reply_bytes"] \
                    == n * reply_bytes
                assert (stats["tasks_active"], stats["tasks_run"]) == (0, n)
            send_frame(sock, OP_BYE, {})
            sock.close()
        finally:
            agent.stop()

    def test_cli_stat_and_top_commands(self, capsys):
        from repro.cli import main
        from repro.net import WorkerAgent

        agent = WorkerAgent(port=0, slots=2, mode="inline").start()
        addr = f"127.0.0.1:{agent.port}"
        try:
            assert main(["stat", addr]) == 0
            out = capsys.readouterr().out
            assert f"agent {addr}" in out and "slots=2" in out

            assert main(["stat", addr, "--json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["slots"] == 2 and doc["service"] == "worker-agent"

            assert main(["top", addr, "--iterations", "1",
                         "--json"]) == 0
            tick = json.loads(capsys.readouterr().out)
            (row,) = tick["hosts"]
            assert row["status"] == "up" and row["slots"] == 2
            assert row["rtt_ms"] >= 0.0

            assert main(["top", addr, "--iterations", "1"]) == 0
            table = capsys.readouterr().out
            assert "repro top" in table and addr in table
        finally:
            agent.stop()

    def test_cli_top_polls_each_host_over_one_connection(self, capsys):
        """One HELLO at connect, then PING + STAT per tick on the same
        socket: the fetched-bytes column comes from the STAT metrics
        snapshot, not from a second EXPO connection."""
        from repro.cli import main
        from repro.net import WorkerAgent

        agent = WorkerAgent(port=0, slots=1, mode="inline")
        serve, opened = agent._client_loop, []

        def counting_client_loop(sock):
            opened.append(sock)
            serve(sock)

        agent._client_loop = counting_client_loop
        agent.start()
        try:
            assert main(["top", f"127.0.0.1:{agent.port}", "--iterations",
                         "2", "--interval", "0", "--json"]) == 0
        finally:
            agent.stop()
        ticks = [json.loads(line)
                 for line in capsys.readouterr().out.splitlines()]
        assert [t["hosts"][0]["status"] for t in ticks] == ["up", "up"]
        assert len(opened) == 1

    def test_cli_top_marks_dead_hosts_down(self, capsys):
        from repro.cli import main

        # Port 1 on loopback: nothing listens there.
        assert main(["top", "127.0.0.1:1", "--iterations", "1",
                     "--timeout", "0.5", "--json"]) == 1
        tick = json.loads(capsys.readouterr().out)
        assert tick["hosts"][0]["status"] == "down"

    def test_cli_top_monitors_every_frame_server(self, capsys):
        """A query server and a block store answer the same HELLO/PING/
        STAT as an agent, so ``top`` shows them up, named by service."""
        from repro.cli import main
        from repro.net import BlockStoreServer, QueryServer

        with QueryServer(port=0, max_concurrent=1) as query_server, \
                BlockStoreServer() as store:
            hosts = [f"127.0.0.1:{port}" for port in
                     (query_server.port, store.port)]
            assert main(["top", ",".join(hosts), "--iterations", "1",
                         "--json"]) == 0
            tick = json.loads(capsys.readouterr().out)
            assert [(row["status"], row["service"])
                    for row in tick["hosts"]] == \
                [("up", "query-service"), ("up", "blockstore")]
            assert main(["top", ",".join(hosts), "--iterations", "1"]) == 0
            table = capsys.readouterr().out
            assert "query-service" in table and "blockstore" in table

    def test_remote_run_merges_agent_spans(self, tmp_path):
        from repro import JoinSession
        from repro.net import WorkerAgent

        agent = WorkerAgent(port=0, slots=2, mode="inline").start()
        path = str(tmp_path / "remote.json")
        try:
            with JoinSession(workers=2, backend="remote",
                             hosts=(f"127.0.0.1:{agent.port}",),
                             trace_path=path) as session:
                result = session.query("wb", "Q1", scale=1e-5).run("adj")
                assert result.ok
                names = {s.name for s in session.tracer().spans}
                assert {"agent_task", "worker_task", "route",
                        "publish"} <= names
        finally:
            agent.stop()
        doc = json.load(open(path))
        assert any(e["ph"] == "X" and e["name"] == "agent_task"
                   for e in doc["traceEvents"])


def _echo_task(task):
    return {"echo": task}


def _crash_task(_task):
    raise RuntimeError("deliberate")
