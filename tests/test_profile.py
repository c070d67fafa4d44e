"""EXPLAIN ANALYZE profiles (repro.obs.profile + the CLI surface).

The profile is assembled from streams the stack already produces, so
these tests pin the reconciliation contract: measured phase rows sum to
``RuntimeTelemetry.total``, ``data_plane`` is the result's dict
verbatim, per-atom bytes agree with the transport's published bytes,
and modeled columns are the run's own ``CostBreakdown``.  The matrix
covers Q1/Q9 across serial/threads/processes/remote and
pickle/shm/tcp (the remote leg stands up a loopback agent).
"""

import json

import pytest

from repro import JoinSession
from repro.obs.metrics import METRICS
from repro.obs.profile import (
    PROFILE_SCHEMA_VERSION,
    PhaseRow,
    QueryProfile,
    build_profile,
)
from repro.obs.tracing import Span, set_thread_tracer, set_tracer


@pytest.fixture(autouse=True)
def _clean_observability_state():
    set_tracer(None)
    set_thread_tracer(None)
    METRICS.reset()
    yield
    set_tracer(None)
    set_thread_tracer(None)
    METRICS.reset()


def _profiled_run(query, backend, transport, hosts=None):
    with JoinSession(workers=2, backend=backend, transport=transport,
                     hosts=hosts) as session:
        result = session.query("wb", query, scale=1e-5).run(
            "adj", profile=True)
    assert result.ok, result.failure
    return result


def _assert_reconciles(result):
    """The acceptance contract: profile rows == the run's own streams."""
    profile = result.profile
    assert isinstance(profile, QueryProfile)

    # Modeled column is the run's CostBreakdown, phase by phase.
    breakdown = result.breakdown
    by_name = {row.name: row for row in profile.phases}
    for phase in ("optimization", "precompute", "communication",
                  "computation"):
        assert by_name[phase].modeled == \
            pytest.approx(getattr(breakdown, phase))
    assert profile.modeled_total == pytest.approx(breakdown.total)

    # Measured column sums to RuntimeTelemetry.total exactly (unmapped
    # phases become modeled=0 rows, so nothing leaks).
    telemetry = result.telemetry
    if telemetry is not None:
        measured = sum(row.measured for row in profile.phases
                       if row.measured is not None)
        assert measured == pytest.approx(telemetry.total)
        assert profile.measured_total == pytest.approx(telemetry.total)
        assert profile.tasks_executed == telemetry.tasks_executed
        assert profile.worker_seconds == \
            {str(w): s for w, s in telemetry.worker_seconds.items()}
        if profile.worker_seconds:
            peak = max(profile.worker_seconds.values())
            assert profile.straggler_seconds == pytest.approx(peak)
            assert profile.skew_ratio >= 1.0 or peak == 0.0

    # data_plane rides through verbatim.
    assert profile.data_plane == result.data_plane
    plane = result.data_plane or {}
    if plane.get("published_bytes"):
        # Publishing transports (shm/tcp): per-atom bytes account for
        # every published byte.
        assert sum(profile.atom_bytes.values()) == \
            plane["published_bytes"]


class TestProfileMatrix:
    """Q1/Q9 across the local backend x transport grid."""

    @pytest.mark.parametrize("query,backend,transport", [
        ("Q1", "serial", None),
        ("Q9", "serial", None),
        ("Q1", "threads", "pickle"),
        ("Q9", "threads", "shm"),
        ("Q1", "threads", "shm"),
        ("Q9", "threads", "pickle"),
    ])
    def test_reconciles_with_result_streams(self, query, backend,
                                            transport):
        _assert_reconciles(_profiled_run(query, backend, transport))

    def test_processes_backend_reconciles(self):
        _assert_reconciles(_profiled_run("Q1", "processes", "pickle"))

    def test_remote_tcp_reconciles_and_ships_tagged_spans(self):
        from repro.net import WorkerAgent

        agent = WorkerAgent(port=0, slots=2, mode="inline").start()
        try:
            result = _profiled_run(
                "Q9", "remote", "tcp",
                hosts=(f"127.0.0.1:{agent.port}",))
        finally:
            agent.stop()
        _assert_reconciles(result)
        profile = result.profile
        # Agent-side spans shipped home land in the wall table and are
        # already stamped with this run's query id.
        assert "agent_task" in profile.span_wall
        events = result.trace["traceEvents"]
        agent_events = [e for e in events
                        if e["ph"] == "X" and e["name"] == "agent_task"]
        assert agent_events
        assert all(e["args"].get("query_id") == profile.query_id
                   for e in agent_events)


class TestProfileContents:
    def test_query_ids_are_sequential_per_session(self):
        with JoinSession(workers=2, backend="threads",
                         transport="pickle") as session:
            job = session.query("wb", "Q1", scale=1e-5)
            first = job.run("adj", profile=True)
            second = job.run("adj", profile=True)
        assert first.profile.query_id == "q0001:Q1"
        assert second.profile.query_id == "q0002:Q1"

    def test_spans_carry_query_id_attribution(self):
        result = _profiled_run("Q1", "threads", "pickle")
        qid = result.profile.query_id
        events = [e for e in result.trace["traceEvents"]
                  if e["ph"] == "X"]
        assert events
        # Coordinator spans and shipped worker spans alike.
        assert all(e["args"].get("query_id") == qid for e in events)
        assert any(e["name"] == "worker_task" for e in events)

    @pytest.mark.parametrize("engine", ["sparksql", "yannakakis"])
    def test_pair_and_bag_tasks_are_observable_from_pool_children(
            self, engine):
        """Every task shape ships its spans home and counts in the
        metrics window (SparkSQL's partition pairs used to do neither)."""
        import os

        with JoinSession(workers=2, backend="processes",
                         transport="shm") as session:
            result = session.query("wb", "Q9", scale=1e-5).run(
                engine, profile=True)
        assert result.ok, result.failure
        tasks = [e for e in result.trace["traceEvents"]
                 if e["ph"] == "X" and e["name"] == "worker_task"]
        assert tasks and all(e["pid"] != os.getpid() for e in tasks)
        assert len(tasks) == result.telemetry.tasks_executed
        window = result.profile.metrics
        assert window["runtime.tasks_completed"] == len(tasks)
        assert window["runtime.task_seconds"]["count"] == len(tasks)

    def test_sparksql_phase_rows_are_the_common_vocabulary(self):
        """Routing books as ``shuffle``, minting as ``publish`` (both
        communication), joining as ``local_join`` — no ``partition``."""
        with JoinSession(workers=2) as session:
            result = session.query("wb", "Q9", scale=1e-5).run(
                "sparksql", profile=True)
        assert result.ok, result.failure
        assert set(result.telemetry.phase_seconds) \
            == {"shuffle", "publish", "local_join"}
        rows = {row.name: row for row in result.profile.phases}
        assert set(rows) == {"optimization", "precompute",
                             "communication", "computation"}
        assert set(rows["communication"].parts) == {"shuffle", "publish"}
        assert set(rows["computation"].parts) == {"local_join"}

    def test_metrics_window_is_scoped_to_the_run(self):
        # Pollute the global registry first: the window must not see it.
        METRICS.counter("runtime.tasks_completed").inc(999)
        result = _profiled_run("Q1", "threads", "pickle")
        window = result.profile.metrics
        assert window["runtime.tasks_completed"] == \
            result.telemetry.tasks_executed
        hist = window["runtime.task_seconds"]
        assert hist["count"] == result.telemetry.tasks_executed
        # Windowed quantiles are real reservoir quantiles.
        assert hist["min"] <= hist["p50"] <= hist["p95"] <= hist["max"]
        # Transport counters in the window agree with the data plane.
        assert window.get("transport.shipped_bytes", 0) == \
            result.data_plane["shipped_bytes"]

    def test_kernel_decisions_annotated_with_realized_sizes(self):
        result = _profiled_run("Q9", "serial", None)
        profile = result.profile
        assert profile.kernel is not None
        if profile.kernel_decisions and profile.level_tuples and \
                len(profile.kernel_decisions) == len(profile.level_tuples):
            for dec, realized in zip(profile.kernel_decisions,
                                     profile.level_tuples):
                assert dec["realized_tuples"] == realized
        assert profile.level_tuples == \
            [int(n) for n in result.extra.get("level_tuples", ())]

    def test_profile_off_attaches_nothing(self):
        with JoinSession(workers=2, backend="threads",
                         transport="pickle") as session:
            result = session.query("wb", "Q1", scale=1e-5).run("adj")
        assert result.ok
        assert result.profile is None
        assert "profile" not in result.extra

    def test_compare_profiles_every_engine(self):
        with JoinSession(workers=2, backend="threads",
                         transport="pickle") as session:
            report = session.query("wb", "Q1", scale=1e-5).compare(
                engines=["adj", "bigjoin"], profile=True)
        assert report.agreed
        for result in report.results:
            assert result.profile is not None
            assert result.profile.engine == result.engine


class TestProfileSchema:
    def test_as_dict_is_json_round_trippable_and_versioned(self):
        result = _profiled_run("Q9", "threads", "shm")
        doc = json.loads(json.dumps(result.profile.as_dict()))
        assert doc["version"] == PROFILE_SCHEMA_VERSION
        assert set(doc) >= {
            "query_id", "query", "engine", "count", "ok", "backend",
            "transport", "kernel", "phases", "modeled_total",
            "measured_total", "span_wall", "worker_seconds",
            "data_plane", "atom_bytes", "kernel_decisions", "metrics",
        }
        for row in doc["phases"]:
            assert set(row) == {"name", "modeled", "measured", "parts"}

    def test_render_mentions_every_section(self):
        result = _profiled_run("Q9", "threads", "shm")
        text = result.profile.render()
        assert text.startswith(f"profile {result.profile.query_id} ")
        for needle in ("phases (modeled", "communication", "computation",
                       "span wall", "workers (n=", "data plane",
                       "metrics window"):
            assert needle in text, needle

    def test_build_profile_tolerates_failed_results(self):
        """A crashed run still profiles whatever phases completed."""
        from repro.distributed.metrics import CostBreakdown

        class _Failed:
            query = "Q1"
            engine = "ADJ"
            count = 0
            ok = False
            failure = "oom"
            breakdown = CostBreakdown()
            telemetry = None
            data_plane = None
            extra = {}

        profile = build_profile(_Failed(), query_id="q0009:Q1",
                                backend="threads", transport_label=None)
        assert not profile.ok and profile.failure == "oom"
        assert profile.measured_total is None
        assert [row.name for row in profile.phases] == \
            ["optimization", "precompute", "communication", "computation"]
        assert "FAILED (oom)" in profile.render()
        json.dumps(profile.as_dict())

    def test_atom_bytes_strips_block_suffixes_and_rel_prefix(self):
        spans = [
            Span(name="publish", ts=1.0, dur=0.0, pid=1,
                 args={"key": "rel:R1#0", "bytes": 100}),
            Span(name="publish", ts=1.0, dur=0.0, pid=1,
                 args={"key": "rel:R1#1", "bytes": 50}),
            Span(name="publish", ts=1.0, dur=0.0, pid=1,
                 args={"key": "R2", "bytes": 7}),
            Span(name="publish", ts=1.0, dur=0.0, pid=1, args={}),
            Span(name="route", ts=1.0, dur=0.0, pid=1,
                 args={"key": "rel:R3", "bytes": 1}),
        ]
        from repro.obs.profile import _atom_bytes

        assert _atom_bytes(spans) == {"R1": 150, "R2": 7}


class TestProfileCli:
    def test_profile_subcommand_renders_tree(self, capsys):
        from repro.cli import main

        assert main(["profile", "wb", "Q1", "--backend", "threads",
                     "--transport", "pickle", "--scale", "1e-5",
                     "--samples", "10"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("profile q0001:Q1 ")
        assert "phases (modeled" in out

    def test_profile_subcommand_json_matches_schema(self, capsys):
        from repro.cli import main

        assert main(["profile", "wb", "Q9", "--engine", "adj",
                     "--backend", "threads", "--transport", "shm",
                     "--scale", "1e-5", "--samples", "10",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == PROFILE_SCHEMA_VERSION
        assert doc["ok"] is True
        measured = sum(row["measured"] for row in doc["phases"]
                       if row["measured"] is not None)
        assert measured == pytest.approx(doc["measured_total"])

    def test_profile_yannakakis_reports_per_bag_decisions(self, capsys):
        """The engine stores ``(key, reason)`` per bag — the one shape
        ``build_profile`` and ``ExplainReport`` share."""
        from repro.cli import main

        assert main(["profile", "wb", "Q9", "--engine", "yannakakis",
                     "--scale", "1e-5", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == PROFILE_SCHEMA_VERSION
        assert doc["ok"] is True and doc["engine"] == "Yannakakis"
        assert doc["kernel_decisions"]
        for dec in doc["kernel_decisions"]:
            assert set(dec) >= {"bag", "kernel", "reason"}
            assert dec["kernel"] in ("wcoj", "binary") and dec["reason"]

    def test_run_profile_flag_appends_tree_per_engine(self, capsys):
        from repro.cli import main

        assert main(["run", "wb", "Q1", "--engine", "adj",
                     "--backend", "threads", "--transport", "pickle",
                     "--scale", "1e-5", "--samples", "10",
                     "--profile"]) == 0
        out = capsys.readouterr().out
        assert "profile q0001:Q1 " in out
        assert "metrics window" in out

    def test_run_without_profile_flag_prints_no_tree(self, capsys):
        from repro.cli import main

        assert main(["run", "wb", "Q1", "--engine", "adj",
                     "--scale", "1e-5", "--samples", "10"]) == 0
        assert "profile q" not in capsys.readouterr().out


class TestPhaseRow:
    def test_as_dict_copies_parts(self):
        row = PhaseRow(name="communication", modeled=1.0,
                       measured=0.5, parts={"shuffle": 0.5})
        doc = row.as_dict()
        doc["parts"]["shuffle"] = 99
        assert row.parts["shuffle"] == 0.5
