"""End-to-end drivers: the workloads through the public front doors.

Batch workloads go through ``JoinSession`` / ``QueryJob.run``; the
service mix goes through an in-process ``QueryServer`` and
``ServiceClient`` connections.  Nothing here is traced — these loops
produce the end-to-end metrics.
"""

from __future__ import annotations

import threading
import time
from statistics import mean
from dataclasses import dataclass, field

from repro.api import JoinSession
from repro.errors import AdmissionError, ReproError

from e2e_harness import median, metric, port_stays_open
from e2e_workloads import (
    SERVICE_CLIENTS,
    BatchWorkload,
    Case,
    HotCase,
    block_schedule,
    service_config,
)

#: Untimed queries after a session/server starts (pool spawn, lazy
#: imports, ``Relation`` statistic caches).
WARMUPS = 3
#: Full set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: A timed window holds at least this many executed queries.
MIN_EXECUTED = 10


@dataclass
class Ops:
    """Operations attempted through a front door, and those that failed."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what, attempted=False)

    def fail(self, what: str, attempted: bool = True) -> None:
        """A failed op that is not a counted query (crash, leak, ...)."""
        if attempted:
            self.attempted += 1
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def engine_result(self, result, case: Case) -> None:
        ok = result.ok and result.count == case.check()
        self.record(ok, f"{case.query_name}: ok={result.ok} "
                        f"failure={result.failure} count={result.count} "
                        f"reference={case.reference}")


def moved_bytes(data_plane: dict | None) -> int:
    """Published + shipped + fetched bytes of one executed query."""
    if not data_plane:
        return 0
    return (data_plane.get("published_bytes", 0)
            + data_plane.get("shipped_bytes", 0)
            + data_plane.get("fetched_bytes", 0))


# -- batch workloads ---------------------------------------------------------

def open_batch(workload: BatchWorkload, seed: int, scale: float, ops: Ops,
               reference: int | None = None):
    """One full set-up: generate, open the session, warm up.

    Returns ``(case, session, job, setup_s)``.  The reference count is
    the benchmark's own check and is computed after the clock stops.
    """
    start = time.perf_counter()
    case = workload.make_case(seed, scale)
    case.reference = reference
    session = JoinSession(config=workload.config())
    try:
        job = session.query_from(case.query, case.db)
        warm = [job.run(workload.engine) for _ in range(WARMUPS)]
        setup_s = time.perf_counter() - start
        for result in warm:
            ops.engine_result(result, case)
    except BaseException:
        session.close()
        raise
    return case, session, job, setup_s


def timed_queries(job, engine: str, case: Case, ops: Ops, seconds: float,
                  min_ops: int = MIN_EXECUTED, **run_kwargs):
    """Closed loop, one client: run until ``seconds`` and ``min_ops``.

    Returns ``(walls, results, window_s)``.
    """
    walls, results = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        result = job.run(engine, **run_kwargs)
        now = time.perf_counter()
        walls.append(now - t0)
        results.append(result)
        ops.engine_result(result, case)
        if now - start >= seconds and len(walls) >= min_ops:
            return walls, results, now - start


def batch_session_leaks(session, ops: Ops) -> None:
    """After the last query, before close: nothing staged may remain."""
    executor = session.executor()
    transport = executor.transport
    segments = getattr(transport, "active_segments", ())
    if segments:
        ops.fail(f"leaked shm segments {segments}")
    if getattr(transport, "store_address", None) is not None:
        ops.fail(f"tcp block store still up at {transport.store_address}")
    if session.context.store_blocks:
        ops.fail(f"leaked blocks {session.context.store_blocks}")


def run_batch(workload: BatchWorkload, seed: int, seconds: float,
              scale: float, ops: Ops) -> dict:
    """The untraced end-to-end run of one batch workload."""
    setups = []
    session = None
    reference = None
    try:
        for _ in range(SETUP_REPEATS):
            if session is not None:
                session.close()
                session = None
            case, session, job, setup_s = open_batch(
                workload, seed, scale, ops, reference)
            reference = case.reference
            setups.append(setup_s)
        walls, results, window = timed_queries(
            job, workload.engine, case, ops, seconds)
        batch_session_leaks(session, ops)
    finally:
        if session is not None:
            session.close()
    moved = [moved_bytes(r.data_plane) for r in results]
    return {
        "reference": {case.query_name: reference},
        "input_tuples": case.input_tuples,
        "window_s": window,
        "metrics": {
            "setup_s": metric(median(setups), "s", setups),
            "query_wall_s.p50": metric(median(walls), "s", walls),
            "input_tuples_per_s": metric(
                case.input_tuples * len(walls) / window, "tuples/s"),
            "requests_per_s": metric(len(walls) / window, "1/s"),
            "moved_bytes_per_query": metric(mean(moved), "bytes"),
        },
    }


# -- the service mix ---------------------------------------------------------

@dataclass
class Sample:
    """One request as the client saw it."""

    case: int
    klass: str            # hit | bypass | refill | rejected | error
    ts: float             # time.time() when it was sent
    seconds: float
    reply: dict | None = None


class ServiceRun:
    """A started ``QueryServer`` with its client connections.

    ``close()`` always stops the server and reports a port left
    listening as a failed op.
    """

    def __init__(self, cases: list[HotCase], twins: list[Case],
                 clients: int, scale: float, ops: Ops):
        self.cases = cases
        self.twins = twins
        self.ops = ops
        self.requests = [c.request(scale) for c in cases]
        from repro.net import QueryServer, ServiceClient

        start = time.perf_counter()
        self.server = QueryServer(config=service_config(),
                                  max_concurrent=SERVICE_CLIENTS).start()
        self.clients: list = []
        try:
            for _ in range(clients):
                self.clients.append(ServiceClient(*self.server.address))
            # Prefill = the warm-up: every hot case executes once (the
            # server generates it, the pool spawns) and fills the cache.
            warm = [self.request(self.clients[0], i, True)
                    for i in range(len(cases))]
            self.setup_s = time.perf_counter() - start
            for sample in warm:
                self.check(sample)
        except BaseException:
            self.close()
            raise

    def request(self, client, case: int, use_cache: bool) -> Sample:
        ts = time.time()
        t0 = time.perf_counter()
        try:
            reply = client.run(use_cache=use_cache, **self.requests[case])
        except AdmissionError:
            return Sample(case, "rejected", ts, time.perf_counter() - t0)
        except (ReproError, OSError, EOFError) as exc:
            return Sample(case, "error", ts, time.perf_counter() - t0,
                          {"error": f"{type(exc).__name__}: {exc}"})
        seconds = time.perf_counter() - t0
        if not use_cache:
            klass = "bypass"
        else:
            klass = "hit" if reply.get("cached") else "refill"
        return Sample(case, klass, ts, seconds, reply)

    def check(self, sample: Sample) -> None:
        twin = self.twins[sample.case]
        reply = sample.reply or {}
        ok = (sample.klass in ("hit", "bypass", "refill")
              and bool(reply.get("ok"))
              and reply.get("count") == twin.check())
        self.ops.record(ok, f"{twin.query_name}#{sample.case}: "
                            f"{sample.klass} reply={reply} "
                            f"reference={twin.reference}")

    def run_block(self, seed: int, block: int) -> list[Sample]:
        """One block of the schedule, closed loop over all clients."""
        schedule = iter(block_schedule(len(self.cases), seed, block))
        lock = threading.Lock()
        samples: list[Sample] = []

        def client_loop(client) -> None:
            while True:
                with lock:
                    step = next(schedule, None)
                if step is None:
                    return
                sample = self.request(client, *step)
                with lock:
                    samples.append(sample)

        threads = [threading.Thread(target=client_loop, args=(c,))
                   for c in self.clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for sample in samples:
            self.check(sample)
        return samples

    def run_blocks(self, seed: int, seconds: float, min_executed: int):
        """Whole blocks until ``seconds`` and ``min_executed`` are met.

        After every block the result cache is invalidated (the write
        beside the reads).  Returns ``(samples, invalidate_ms, window)``.
        """
        samples: list[Sample] = []
        invalidate_ms = []
        start = time.perf_counter()
        block = 0
        while True:
            samples += self.run_block(seed, block)
            t0 = time.perf_counter()
            self.server.service.invalidate()
            now = time.perf_counter()
            invalidate_ms.append((now - t0) * 1e3)
            block += 1
            executed = sum(s.klass in ("bypass", "refill") for s in samples)
            if now - start >= seconds and executed >= min_executed:
                return samples, invalidate_ms, now - start

    def close(self) -> None:
        for client in self.clients:
            try:
                client.close()
            except OSError:
                pass
        self.clients = []
        address = self.server.address
        self.server.stop()
        if port_stays_open(address):
            self.ops.fail(f"query server still listening on {address}")


def executed(samples: list[Sample]) -> list[Sample]:
    return [s for s in samples if s.klass in ("bypass", "refill")]


def run_service_mix(cases: list[HotCase], seed: int, seconds: float,
                    scale: float, ops: Ops) -> dict:
    """The untraced end-to-end run of the service mix."""
    twins = [c.make_case(scale) for c in cases]
    setups = []
    run = None
    try:
        for _ in range(SETUP_REPEATS):
            if run is not None:
                run.close()
                run = None
            run = ServiceRun(cases, twins, SERVICE_CLIENTS, scale, ops)
            setups.append(run.setup_s)
        samples, _invalidate, window = run.run_blocks(
            seed, seconds, min_executed=100)
    finally:
        if run is not None:
            run.close()
    ran = executed(samples)
    walls = [s.seconds for s in ran]
    moved = [moved_bytes(s.reply.get("data_plane")) for s in ran]
    tuples = sum(twins[s.case].input_tuples for s in ran)
    return {
        "reference": {f"{t.query_name}#{i}": t.reference
                      for i, t in enumerate(twins)},
        "window_s": window,
        "requests": len(samples),
        "metrics": {
            "setup_s": metric(median(setups), "s", setups),
            "query_wall_s.p50": metric(median(walls), "s", walls),
            "input_tuples_per_s": metric(tuples / window, "tuples/s"),
            "requests_per_s": metric(len(samples) / window, "1/s"),
            "moved_bytes_per_query": metric(mean(moved), "bytes"),
        },
    }
