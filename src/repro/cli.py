"""Command-line interface: explore the reproduction without writing code.

Examples::

    python -m repro datasets
    python -m repro queries
    python -m repro run lj Q5 --engine adj --scale 2e-5
    python -m repro run wb Q1 --engine all
    python -m repro plan lj Q5 --samples 100
    python -m repro estimate lj Q4 --samples 500 --check
    python -m repro profile lj Q9 --backend threads   # EXPLAIN ANALYZE
    python -m repro lint --list-rules   # the domain lint engine

    # multi-machine: stand up worker agents, then drive them
    python -m repro serve --port 7070 --expo-port 9090  # each worker
    python -m repro run wb Q1 --backend remote \
        --hosts 127.0.0.1:7070,127.0.0.1:7071
    python -m repro stat 127.0.0.1:7070        # one STAT snapshot
    python -m repro top 127.0.0.1:7070,127.0.0.1:7071   # live monitor

    # the query service: one warm cluster, many concurrent callers
    python -m repro serve-sql --port 7075 --max-concurrent 8
    python -m repro query 127.0.0.1:7075 "Q1" --dataset wb
    python -m repro query 127.0.0.1:7075     # interactive REPL

Every command goes through :class:`repro.api.JoinSession`, so the
``--engine`` choices come from :mod:`repro.engines.registry` and executor /
transport lifecycle is owned by the session.  The config flags
(``--workers``, ``--backend``, ``--kernel``, ...) are built from the knob
table (:mod:`repro.knobs`) and folded into one :class:`RunConfig` (flags >
env > defaults).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from .api import JoinSession, RunConfig
from .data import DATASETS, dataset_names, load_dataset
from .engines import registry
from .errors import ConfigError
from .knobs import TABLE, env
from .query import PAPER_QUERIES
from .wcoj import leapfrog_join

__all__ = ["main"]


#: The CLI's own scale default — smaller than the library's (1e-4) so
#: interactive runs finish in seconds.  Applies only when neither the
#: --scale flag nor REPRO_SCALE is given.
_CLI_DEFAULT_SCALE = 2e-5


def _config_flags(parser, *fields: str) -> None:
    """Add the knob table's CLI flags for the RunConfig ``fields``.

    Every flag defaults to None, so :func:`_run_config` keeps the
    precedence flag > ``REPRO_*`` env > built-in default.
    """
    for knob in TABLE.values():
        if knob.field not in fields:
            continue
        shown = f" or {knob.shown_default}" if knob.shown_default else ""
        kind = ({"action": "store_true"} if knob.kind == "onoff"
                else {"type": int} if knob.kind == "int"
                else {"choices": knob.choice_keys()} if knob.choices
                else {})
        parser.add_argument(
            knob.flag, dest=knob.field, default=None,
            help=f"{knob.doc} (default: ${knob.name}{shown})", **kind)


def _run_config(args, **extra) -> RunConfig:
    """The RunConfig the parsed config flags (and ``extra``) describe."""
    flags = {knob.field: getattr(args, knob.field, None)
             for knob in TABLE.values() if knob.flag}
    return RunConfig().replace(**flags, **extra)


def _session_for(args) -> JoinSession:
    scale = args.scale if args.scale is not None else \
        env("REPRO_SCALE", _CLI_DEFAULT_SCALE)
    return JoinSession(config=_run_config(args, scale=scale))


def _parse_host_port(spec: str) -> tuple[str, int]:
    """``HOST:PORT`` -> ``(host, port)`` (stat/top targets)."""
    host, sep, port = spec.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise SystemExit(f"expected HOST:PORT, got {spec!r}")
    return host, int(port)


def _cmd_datasets(args) -> int:
    scale = args.scale if args.scale is not None else env("REPRO_SCALE")
    print(f"{'key':>4} {'paper edges':>12} {'scaled':>8}  description")
    for key in dataset_names():
        spec = DATASETS[key]
        edges = load_dataset(key, scale=scale)
        print(f"{key:>4} {spec.paper_edges:>12,} {edges.shape[0]:>8,}  "
              f"{spec.description}")
    return 0


def _cmd_queries(args) -> int:
    for name, query in PAPER_QUERIES.items():
        print(f"{name:>4}: {query!r}")
    return 0


def _fmt_bytes(n) -> str:
    """Compact byte counts for the run table (None renders as '-')."""
    if n is None:
        return "-"
    n = int(n)
    for unit in ("B", "K", "M", "G"):
        if n < 1024 or unit == "G":
            return f"{n}{unit}" if unit == "B" else f"{n:.1f}{unit}"
        n /= 1024
    return f"{n}"  # pragma: no cover - unreachable


def _print_result_row(result) -> None:
    if result.ok:
        b = result.breakdown
        measured = result.measured_seconds
        wall = f"{measured:8.3f}" if measured is not None else f"{'-':>8}"
        plane = result.data_plane or {}
        ship = _fmt_bytes(plane.get("shipped_bytes"))
        fetch = _fmt_bytes(plane.get("fetched_bytes"))
        print(f"{result.engine:14} {result.count:>12,} "
              f"{b.optimization:>8.3f} {b.precompute:>8.3f} "
              f"{b.communication:>8.3f} {b.computation:>8.3f} "
              f"{b.total:>8.3f} {wall} {ship:>8} {fetch:>8}")
    else:
        print(f"{result.engine:14} {'-':>12} "
              f"{'FAILED (' + result.failure + ')':>44}")


def _cmd_run(args) -> int:
    with _session_for(args) as session:
        job = session.query(args.dataset, args.query)
        print(f"test-case ({args.dataset.upper()},{args.query}), "
              f"{len(job.db[job.query.atoms[0].relation]):,} "
              f"edges/relation, {session.cluster.num_workers} workers, "
              f"backend={session.config.backend}, "
              f"transport={session.transport_label}, "
              f"kernel={session.config.kernel}")
        print(f"{'engine':14} {'count':>12} {'opt':>8} {'pre':>8} "
              f"{'comm':>8} {'comp':>8} {'total':>8} {'wall':>8} "
              f"{'ship':>8} {'fetch':>8}")
        engines = session.engines() if args.engine == "all" \
            else [args.engine]
        report = job.compare(engines=engines)
        for result in report.results:
            _print_result_row(result)
        for result in report.results:
            if result.profile is not None:
                print()
                print(result.profile.render())
        trace_path = session.config.trace_path
    # Leaving the `with` closed the session, which wrote the trace.
    if trace_path:
        print(f"trace written to {trace_path}")
    if not report.agreed:
        print(f"ERROR: engines disagree: {report.counts}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_profile(args) -> int:
    """EXPLAIN ANALYZE one engine run (tree or JSON)."""
    import json as _json

    with _session_for(args) as session:
        job = session.query(args.dataset, args.query)
        result = job.run(args.engine, profile=True)
    profile = result.profile
    if profile is None:
        print(f"ERROR: run failed before profiling "
              f"({result.failure})", file=sys.stderr)
        return 1
    if args.json:
        print(_json.dumps(profile.as_dict(), indent=2))
    else:
        print(profile.render())
    if not result.ok:
        print(f"ERROR: run failed ({result.failure})", file=sys.stderr)
        return 1
    return 0


def _cmd_stat(args) -> int:
    """One STAT snapshot of a running `repro serve` agent."""
    import json as _json

    from .net.protocol import FrameClient

    host, port = _parse_host_port(args.agent)
    try:
        with FrameClient(host, port, args.timeout) as client:
            stats = client.stat({"history": args.history})
    except OSError as exc:
        print(f"cannot reach agent at {host}:{port}: {exc}",
              file=sys.stderr)
        return 1
    if args.json:
        print(_json.dumps(stats, indent=2, sort_keys=True))
        return 0
    metrics = stats.get("metrics") or {}
    task_hist = metrics.get("agent.task_seconds") or {}
    print(f"agent {host}:{port}  pid={stats.get('pid')} "
          f"mode={stats.get('mode')}")
    print(f"  slots={stats.get('slots')} "
          f"busy={stats.get('tasks_active', 0)} "
          f"tasks_run={stats.get('tasks_run')} "
          f"failed={stats.get('tasks_failed')}")
    if task_hist.get("count"):
        print(f"  task_seconds: count={task_hist['count']} "
              f"mean={task_hist['mean']:.4f} p95={task_hist['p95']:.4f} "
              f"max={task_hist['max']:.4f}")
    fetched = metrics.get("net.fetched_bytes")
    if fetched is not None:
        print(f"  fetched={_fmt_bytes(fetched)}")
    for sample in stats.get("history", ()):
        print(f"  history ts={sample['ts']:.1f} "
              f"run={sample['tasks_run']} "
              f"failed={sample['tasks_failed']} "
              f"active={sample['tasks_active']}")
    return 0


class _TopHost:
    """One monitored server: one persistent connection, per-tick sampling.

    HELLO once at connect (version check; any of the three services —
    worker agent, query service, block store), then each tick a PING
    (measured round-trip = the heartbeat RTT column) and a STAT (busy
    slots, counters, task-latency quantiles and the fetched-bytes
    counter, all from its metrics snapshot; fields a service does not
    report render as ``-``).  A dead host renders as ``down`` and is
    re-dialed on the next tick.
    """

    def __init__(self, spec: str, timeout: float = 5.0):
        self.spec = spec
        self.host, self.port = _parse_host_port(spec)
        self.timeout = timeout
        self.service = None
        self._client = None

    def close(self) -> None:
        client, self._client = self._client, None
        if client is not None:
            client.close()

    def sample(self) -> dict:
        """One row of the table; ``{"status": "down"}`` on failure."""
        import time as _time

        from .errors import NetError
        from .net.protocol import FrameClient

        try:
            if self._client is None:
                client = FrameClient(self.host, self.port, self.timeout)
                self.service = client.hello(
                    "worker-agent", "query-service",
                    "blockstore")["service"]
                self._client = client
            t0 = _time.perf_counter()
            self._client.ping()
            rtt = _time.perf_counter() - t0
            stats = self._client.stat()
        except (OSError, EOFError, NetError) as exc:
            self.close()
            return {"host": self.spec, "status": "down",
                    "error": str(exc)}
        metrics = stats.get("metrics") or {}
        task_hist = metrics.get("agent.task_seconds") or {}
        fetched = metrics.get("net.fetched_bytes")
        return {"host": self.spec, "status": "up",
                "service": self.service,
                "pid": stats.get("pid"),
                "slots": stats.get("slots"),
                "busy": stats.get("tasks_active", 0),
                "tasks_run": stats.get("tasks_run", 0),
                "tasks_failed": stats.get("tasks_failed", 0),
                "rtt_ms": rtt * 1e3,
                "task_p95_ms": (task_hist.get("p95", 0.0) * 1e3
                                if task_hist.get("count") else None),
                "fetched_bytes": (int(fetched)
                                  if fetched is not None else None)}


def _render_top(rows, clear: bool) -> None:
    import time as _time

    if clear:
        print("\x1b[2J\x1b[H", end="")
    print(f"repro top — {len(rows)} host"
          f"{'s' if len(rows) != 1 else ''} @ "
          f"{_time.strftime('%H:%M:%S')}")
    print(f"{'host':22} {'st':>4} {'service':>13} {'slots':>5} "
          f"{'busy':>4} {'run':>8} {'fail':>5} {'rtt(ms)':>8} "
          f"{'p95(ms)':>8} {'fetched':>8}")
    for row in rows:
        if row["status"] != "up":
            print(f"{row['host']:22} {'down':>4}")
            continue
        p95 = (f"{row['task_p95_ms']:8.2f}"
               if row["task_p95_ms"] is not None else f"{'-':>8}")
        slots = "-" if row["slots"] is None else row["slots"]
        print(f"{row['host']:22} {'up':>4} {row['service']:>13} {slots:>5} "
              f"{row['busy']:>4} {row['tasks_run']:>8} "
              f"{row['tasks_failed']:>5} {row['rtt_ms']:>8.2f} {p95} "
              f"{_fmt_bytes(row['fetched_bytes']):>8}")


def _cmd_top(args) -> int:
    """Live per-host monitor over HELLO/PING/STAT."""
    import json as _json
    import time as _time

    specs = [s.strip() for s in args.hosts.split(",") if s.strip()]
    if not specs:
        print("no hosts given", file=sys.stderr)
        return 1
    hosts = [_TopHost(spec, timeout=args.timeout) for spec in specs]
    clear = sys.stdout.isatty() and not args.json \
        and args.iterations != 1
    iteration = 0
    try:
        while True:
            rows = [host.sample() for host in hosts]
            if args.json:
                print(_json.dumps({"iteration": iteration,
                                   "ts": _time.time(), "hosts": rows}),
                      flush=True)
            else:
                _render_top(rows, clear=clear)
            iteration += 1
            if args.iterations is not None \
                    and iteration >= args.iterations:
                break
            _time.sleep(args.interval)
    except KeyboardInterrupt:   # pragma: no cover - interactive exit
        pass
    finally:
        for host in hosts:
            host.close()
    return 0 if any(r["status"] == "up" for r in rows) else 1


def _serve(server, args, name: str, details: str, summary) -> int:
    """Stand ``server`` up, serve until Ctrl-C, SIGTERM or
    ``--max-seconds``, then stop it — the one loop behind ``serve`` and
    ``serve-sql``; ``details`` and ``summary()`` fill the status lines."""
    import signal
    import time

    try:
        server.start()
    except OSError as exc:
        print(f"cannot listen on {server.host}:{server.port}: {exc}",
              file=sys.stderr)
        server.stop()
        return 1
    print(f"repro {name} listening on {server.host}:{server.port} "
          f"({details}, pid={os.getpid()})", flush=True)
    if args.expo_port is not None:
        print(f"metrics exposition on "
              f"http://{server.host}:{args.expo_port}/metrics", flush=True)

    # `kill <pid>` (how CI stops servers) should shut down as cleanly as
    # Ctrl-C does.
    def _sigterm(_signum, _frame):  # pragma: no cover - signal path
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _sigterm)
    deadline = None if args.max_seconds is None else \
        time.monotonic() + args.max_seconds
    try:
        while server.running and (deadline is None
                                  or time.monotonic() < deadline):
            time.sleep(0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        print(f"{name} on {server.host}:{server.port} stopped "
              f"({summary()})", flush=True)
    return 0


def _cmd_serve(args) -> int:
    """Stand up a worker agent and serve until interrupted."""
    from .net import WorkerAgent
    from .obs.log import configure_logging

    configure_logging(args.log_level)
    agent = WorkerAgent(host=args.host, port=args.port, slots=args.slots,
                        mode="inline" if args.inline else "processes",
                        expo_port=args.expo_port)
    return _serve(agent, args, "worker agent",
                  f"slots={agent.slots}",
                  lambda: f"{agent.tasks_run} tasks run, "
                          f"{agent.tasks_failed} failed")


def _parse_tenant_budgets(specs) -> dict[str, int] | None:
    """``NAME=UNITS`` flags -> the service's ``tenant_budgets`` dict."""
    budgets: dict[str, int] = {}
    for spec in specs or ():
        name, sep, units = spec.partition("=")
        try:
            budgets[name] = int(float(units))
        except ValueError:
            sep = ""
        if not sep or not name:
            raise SystemExit(
                f"expected TENANT=UNITS (e.g. free=50000), got {spec!r}")
    return budgets or None


def _cmd_serve_sql(args) -> int:
    """Stand up the query-service front door and serve until stopped."""
    from .net.service import QueryServer
    from .obs.log import configure_logging

    configure_logging(args.log_level)
    config = _run_config(args)
    server = QueryServer(
        host=args.host, config=config,
        port=args.port if args.port is not None
        else env("REPRO_SERVICE_PORT"),
        expo_port=args.expo_port,
        max_concurrent=args.max_concurrent,
        queue_depth=args.queue_depth,
        tenant_budgets=_parse_tenant_budgets(args.tenant_budget),
        budget_policy=args.budget_policy,
        budget_window=args.budget_window,
        result_cache_bytes=args.result_cache_bytes)
    svc = server.service
    return _serve(server, args, "query service",
                  f"max_concurrent={svc.max_concurrent}, "
                  f"queue_depth={svc.queue_depth}, "
                  f"policy={svc.budget_policy}, backend={config.backend}",
                  lambda: "plan_cache={plan_cache_entries}, result_cache="
                          "{result_cache_entries}".format(**svc.stats()))


def _print_wire_result(meta: dict) -> None:
    if meta.get("ok"):
        plane = meta.get("data_plane") or {}
        parts = [f"count={meta['count']:,}",
                 f"engine={meta['engine']}",
                 f"seconds={meta['seconds']:.4f}"]
        if meta.get("cached"):
            parts.append("cached=yes")
        elif plane:
            parts.append(f"ship={_fmt_bytes(plane.get('shipped_bytes'))}")
            parts.append(
                f"fetch={_fmt_bytes(plane.get('fetched_bytes'))}")
        if "tenant_remaining" in meta:
            parts.append(f"budget_left={meta['tenant_remaining']}")
        print("  ".join(parts))
    else:
        print(f"FAILED ({meta.get('failure')})")


def _repl(client, args) -> int:
    """The interactive loop behind bare ``repro query HOST:PORT``."""
    import json as _json

    from .errors import AdmissionError, NetError

    print(f"connected to query service at {args.server} "
          f"(max_concurrent={client.hello.get('max_concurrent')}); "
          f"\\stats for server state, \\q to quit")
    while True:
        try:
            line = input("repro> ").strip()
        except (EOFError, KeyboardInterrupt):
            print()
            return 0
        if not line:
            continue
        if line in (r"\q", "quit", "exit"):
            return 0
        if line == r"\stats":
            print(_json.dumps({k: v for k, v in client.stats().items()
                               if k != "metrics"}, indent=2,
                              sort_keys=True))
            continue
        try:
            meta = client.run(line, dataset=args.dataset,
                              engine=args.engine, tenant=args.tenant,
                              scale=args.scale, seed=args.seed,
                              use_cache=not args.no_cache)
        except AdmissionError as exc:
            print(f"REJECTED ({exc.reason}): {exc}")
            continue
        except NetError as exc:
            print(f"ERROR: {exc}")
            continue
        _print_wire_result(meta)


def _cmd_query(args) -> int:
    """One-shot query (or REPL) against a ``serve-sql`` endpoint."""
    import json as _json

    from .errors import AdmissionError, NetError
    from .net.service import ServiceClient

    host, port = _parse_host_port(args.server)
    try:
        client = ServiceClient(host, port, timeout=args.timeout)
    except (OSError, NetError) as exc:
        print(f"cannot reach query service at {args.server}: {exc}",
              file=sys.stderr)
        return 1
    try:
        if args.query_text is None:
            return _repl(client, args)
        try:
            meta = client.run(args.query_text, dataset=args.dataset,
                              engine=args.engine, tenant=args.tenant,
                              scale=args.scale, seed=args.seed,
                              use_cache=not args.no_cache)
        except AdmissionError as exc:
            print(f"REJECTED ({exc.reason}): {exc}", file=sys.stderr)
            return 2
        if args.json:
            print(_json.dumps(meta, indent=2, sort_keys=True))
        else:
            _print_wire_result(meta)
        return 0 if meta.get("ok") else 1
    finally:
        client.close()


def _cmd_lint(args) -> int:
    """Run the domain lint engine (docs/static_analysis.md)."""
    import json as _json
    from pathlib import Path

    # Imported lazily like the net subsystem: most CLI invocations
    # never need the analysis package.
    from .analysis import CHECKERS, LintConfig, run

    if args.list_rules:
        for rule in CHECKERS.keys():
            print(f"{rule:22} {CHECKERS.summary(rule)}")
        return 0

    root = Path(args.root)
    paths = list(args.paths)
    if not paths:
        paths = [p for p in (root / "src" / "repro", root / "benchmarks")
                 if p.exists()] or [root]
    rules = [r.strip() for r in args.rules.split(",") if r.strip()] \
        if args.rules else None

    findings = run(paths, rules=rules, config=LintConfig(root=root))

    if args.json:
        print(_json.dumps({"version": 1, "count": len(findings),
                           "findings": [f.as_dict() for f in findings]},
                          indent=2))
    else:
        for finding in findings:
            print(finding.render())
            if finding.hint:
                print(f"    hint: {finding.hint}")
        summary = "clean" if not findings else \
            f"{len(findings)} finding{'s' if len(findings) != 1 else ''}"
        print(f"lint: {summary} "
              f"({len(CHECKERS.keys() if rules is None else rules)} "
              f"rules)", file=sys.stderr)
    return 1 if findings else 0


def _cmd_plan(args) -> int:
    with _session_for(args) as session:
        explain = session.query(args.dataset, args.query).explain()
    print(explain.describe())
    return 0


def _cmd_estimate(args) -> int:
    with _session_for(args) as session:
        job = session.query(args.dataset, args.query)
        est = job.estimate(seed=args.seed)
        mode = "exact (full enumeration)" if est.exact else \
            f"{est.num_samples} samples"
        print(f"estimate: {est.estimate:,.0f}  ({mode}, "
              f"|val({est.attribute})|={est.val_size})")
        if not est.exact:
            print(f"Lemma 2 error bound @95%: "
                  f"+/- {est.error_bound(0.05):,.0f}")
        if args.check:
            true = leapfrog_join(job.query, job.db).count
            hi = max(est.estimate, float(true), 1.0)
            lo = max(1.0, min(est.estimate, float(true)))
            print(f"true: {true:,}  (D = {hi / lo:.3f})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Fast Distributed Complex Join "
                    "Processing' (ADJ, ICDE 2021)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list dataset analogues").add_argument(
        "--scale", type=float, default=None)
    sub.add_parser("queries", help="list the paper's query catalog")

    def common(p):
        p.add_argument("dataset", choices=dataset_names())
        p.add_argument("query", type=str.upper,
                       choices=sorted(PAPER_QUERIES))
        p.add_argument("--scale", type=float, default=None,
                       help="dataset scale (default: $REPRO_SCALE or "
                            "2e-5)")
        _config_flags(p, "workers", "samples", "log_level")

    runtime = ("backend", "transport", "hosts", "kernel")

    def serve_flags(p):
        """Flags shared by the two long-running servers."""
        p.add_argument("--host", default="127.0.0.1",
                       help="interface to bind (default 127.0.0.1; use "
                            "0.0.0.0 only on trusted networks — frames "
                            "are pickled)")
        p.add_argument("--max-seconds", type=float, default=None,
                       help="exit after this long (CI convenience; "
                            "default: serve until Ctrl-C)")
        p.add_argument("--expo-port", type=int, default=None,
                       dest="expo_port", metavar="PORT",
                       help="also serve Prometheus-style text metrics "
                            "over HTTP on this port (GET /metrics)")
        _config_flags(p, "log_level")

    run_p = sub.add_parser("run", help="run engines on a test-case")
    common(run_p)
    run_p.add_argument("--engine", default="adj",
                       choices=["all", *registry.available()])
    _config_flags(run_p, *runtime, "profile", "trace_path")

    profile_p = sub.add_parser(
        "profile", help="EXPLAIN ANALYZE one engine run: per-phase "
                        "modeled-vs-measured profile, worker skew, "
                        "data-plane bytes")
    common(profile_p)
    profile_p.add_argument("--engine", default="adj",
                           choices=list(registry.available()))
    _config_flags(profile_p, *runtime)
    profile_p.add_argument("--json", action="store_true",
                           help="emit the profile as JSON "
                                "(schema docs/observability.md)")

    stat_p = sub.add_parser(
        "stat", help="one stats snapshot of a running worker agent")
    stat_p.add_argument("agent", metavar="HOST:PORT",
                        help="agent address (python -m repro serve)")
    stat_p.add_argument("--history", type=int, default=0, metavar="N",
                        help="also fetch the last N ring-buffer samples "
                             "(agent keeps 256, ~5s apart)")
    stat_p.add_argument("--timeout", type=float, default=5.0)
    stat_p.add_argument("--json", action="store_true",
                        help="raw STAT meta as JSON")

    top_p = sub.add_parser(
        "top", help="live per-host cluster monitor (HELLO/PING/STAT)")
    top_p.add_argument("hosts", metavar="HOSTS",
                       help="comma-separated agent addresses "
                            "(host:port,host:port,...)")
    top_p.add_argument("--interval", type=float, default=2.0,
                       help="seconds between refreshes (default 2)")
    top_p.add_argument("--iterations", type=int, default=None,
                       metavar="N",
                       help="stop after N refreshes (default: run until "
                            "Ctrl-C)")
    top_p.add_argument("--timeout", type=float, default=5.0)
    top_p.add_argument("--json", action="store_true",
                       help="one JSON document per refresh instead of "
                            "the table (CI/scripting)")

    serve_p = sub.add_parser(
        "serve", help="stand up a worker agent for remote coordinators")
    serve_p.add_argument("--port", type=int, default=7070,
                         help="port to listen on (0 picks an ephemeral "
                              "port, printed on startup; default 7070)")
    serve_flags(serve_p)
    serve_p.add_argument("--slots", type=int, default=None,
                         help="task slots to advertise (default: usable "
                              "CPU count)")
    serve_p.add_argument("--inline", action="store_true",
                         help="run tasks on the connection thread "
                              "instead of each slot's home process "
                              "(debugging; GIL-bound)")

    sql_p = sub.add_parser(
        "serve-sql", help="stand up the multi-tenant query service "
                          "(QUERY/CANCEL/RESULT frames over one warm "
                          "cluster)")
    sql_p.add_argument("--port", type=int, default=None,
                       help="port to listen on (0 picks an ephemeral "
                            "port; default: $REPRO_SERVICE_PORT or 7075)")
    serve_flags(sql_p)
    _config_flags(sql_p, "workers", *runtime)
    sql_p.add_argument("--max-concurrent", type=int, default=None,
                       dest="max_concurrent", metavar="N",
                       help="queries executing at once (default: "
                            "$REPRO_MAX_CONCURRENT or 4)")
    sql_p.add_argument("--queue-depth", type=int, default=None,
                       dest="queue_depth", metavar="N",
                       help="admitted queries allowed to wait beyond "
                            "the executing ones; more are rejected "
                            "429-style (default: 2x max-concurrent)")
    sql_p.add_argument("--tenant-budget", action="append", default=None,
                       dest="tenant_budget", metavar="TENANT=UNITS",
                       help="work budget for one tenant, repeatable "
                            "(e.g. --tenant-budget free=50000)")
    sql_p.add_argument("--budget-policy", default="reject",
                       dest="budget_policy",
                       choices=["reject", "queue", "downgrade"],
                       help="what happens to an over-budget tenant's "
                            "queries: reject them 429-style, queue "
                            "them until the window refills, or "
                            "downgrade them to the remaining budget "
                            "(default: reject)")
    sql_p.add_argument("--budget-window", type=float, default=None,
                       dest="budget_window", metavar="SECONDS",
                       help="refill tenant budgets every SECONDS "
                            "(default: budgets never refill)")
    sql_p.add_argument("--result-cache-bytes", type=int, default=None,
                       dest="result_cache_bytes", metavar="BYTES",
                       help="result-cache budget; 0 disables (default: "
                            "$REPRO_RESULT_CACHE_BYTES or 64 MiB)")

    query_p = sub.add_parser(
        "query", help="run a query against a serve-sql endpoint "
                      "(interactive REPL when QUERY is omitted)")
    query_p.add_argument("server", metavar="HOST:PORT",
                         help="query-service address (repro serve-sql)")
    query_p.add_argument("query_text", nargs="?", default=None,
                         metavar="QUERY",
                         help="a paper query name (Q1..) or datalog "
                              "text like 'T(a,b,c) :- R(a,b), S(b,c), "
                              "T(a,c)'; omit for a REPL")
    query_p.add_argument("--dataset", default="wb",
                         choices=dataset_names(),
                         help="graph the relations are built from "
                              "(default: wb)")
    query_p.add_argument("--engine", default="adj",
                         choices=list(registry.available()))
    query_p.add_argument("--tenant", default="default",
                         help="tenant to account the work to "
                              "(default: 'default')")
    query_p.add_argument("--scale", type=float, default=None,
                         help="dataset scale (default: the server's "
                              "wire default, 2e-5)")
    query_p.add_argument("--seed", type=int, default=None)
    query_p.add_argument("--no-cache", action="store_true",
                         dest="no_cache",
                         help="bypass the server's result cache")
    query_p.add_argument("--json", action="store_true",
                         help="raw RESULT meta as JSON")
    query_p.add_argument("--timeout", type=float, default=10.0,
                         help="dial/handshake timeout in seconds "
                              "(queries themselves are unbounded)")

    lint_p = sub.add_parser(
        "lint", help="machine-check the stack's domain invariants "
                     "(spawn safety, lazy net, lock discipline, ...)")
    lint_p.add_argument("paths", nargs="*",
                        help="files/directories to lint (default: "
                             "src/repro and benchmarks under --root)")
    lint_p.add_argument("--root", default=".",
                        help="directory findings are reported relative "
                             "to (default: .)")
    lint_p.add_argument("--rules", default=None,
                        help="comma-separated rule subset (default: all; "
                             "see --list-rules)")
    lint_p.add_argument("--json", action="store_true",
                        help="machine-readable findings on stdout")
    lint_p.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")

    plan_p = sub.add_parser("plan", help="show the ADJ plan for a "
                                         "test-case")
    common(plan_p)

    est_p = sub.add_parser("estimate", help="estimate a cardinality")
    common(est_p)
    est_p.add_argument("--seed", type=int, default=0)
    est_p.add_argument("--check", action="store_true",
                       help="also compute the true count")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "datasets": _cmd_datasets,
        "queries": _cmd_queries,
        "run": _cmd_run,
        "profile": _cmd_profile,
        "stat": _cmd_stat,
        "top": _cmd_top,
        "plan": _cmd_plan,
        "estimate": _cmd_estimate,
        "serve": _cmd_serve,
        "serve-sql": _cmd_serve_sql,
        "query": _cmd_query,
        "lint": _cmd_lint,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        # Bad flag/env values and unreachable hosts are user errors,
        # not crashes: one line on stderr, exit 2.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
