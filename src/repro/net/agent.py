"""Worker agent: one long-lived process per worker host.

``python -m repro serve --port N`` stands one of these up.  A
coordinator (the :class:`~repro.net.executor.RemoteExecutor` behind
``backend="remote"``) dials in, performs the HELLO handshake — protocol
version, advertised worker ``slots``, pid — and then streams TASK
frames: pickled ``(task_function, task)`` pairs, the exact objects the
process backend would ship to a local pool.  Task payload arrays arrive
as descriptors (under the ``tcp`` transport), so the agent fetches its
partitions from the coordinator's block store itself; the task frame
stays descriptor-only.

Concurrency model: the agent serves each connection on its own thread,
and the coordinator opens one task connection per advertised slot and
names that slot in every TASK frame — so per-host parallelism is
exactly the slot count, with no queueing logic on the agent.  Each slot
has a *home*: a one-process :class:`~repro.runtime.executor
.ProcessExecutor` (spawn — the agent process itself is
multi-threaded), so a slot's tasks always run in the same process, and
CPU-bound Leapfrog work uses the host's cores instead of being
GIL-serialized; ``mode="inline"`` keeps execution on the connection
thread for debugging and cheap tests.  An agent outlives coordinator
sessions: BYE (or a dropped connection) ends one session's connection,
the listener keeps serving the next session.

Failure contract: a task function that raises is answered with an ERR
frame (type name + message) — the agent thread never dies, and the
coordinator converts the ERR into :class:`~repro.errors.WorkerCrashed`.
A home process that dies fails its task the same way and restarts on
the slot's next task; the other slots keep theirs.
The same trust model as ``multiprocessing`` applies: TASK frames are
unpickled, so only bind to interfaces you trust (see docs/net.md).
"""

from __future__ import annotations

import pickle
import socket
import threading
import time
from collections import deque

from ..errors import ConfigError, WorkerCrashed
from ..obs.log import get_logger, kv
from ..obs.metrics import METRICS
from ..obs.tracing import current_tracer, set_thread_tracer, task_tracer
from ..runtime.executor import ProcessExecutor, available_parallelism
from .protocol import (
    OP_DATA,
    OP_ERR,
    OP_TASK,
    FrameClient,
    FrameServer,
    send_frame,
)

__all__ = ["WorkerAgent", "agent_stats", "agent_expo"]

#: STAT-history ring capacity: at the default sample interval this is
#: ~20 minutes of continuous history per agent, O(1) memory forever.
HISTORY_SIZE = 256

log = get_logger("repro.net.agent")


class WorkerAgent(FrameServer):
    """Serves TASK (plus the shared control plane); runs each slot's
    tasks in that slot's home process.

    Continuous export: a background sampler appends the task counters
    to a bounded ring buffer every ``history_interval`` seconds (STAT
    meta ``{"history": n}`` returns the last ``n`` samples), the EXPO
    opcode answers with a Prometheus text exposition of this process's
    metrics plus agent gauges (slots, busy slots), and ``expo_port``
    serves the same document over HTTP for real scrapers
    (``repro serve --expo-port``).  ``repro top`` polls PING and STAT.

    Observability: a TASK frame whose meta carries a ``trace`` context
    makes the agent record spans — its own ``agent_task`` dispatch span
    plus whatever the task function records (inline mode) or ships back
    in ``result.spans`` (process mode) — and return them in the reply
    meta (``spans``) of the DATA *or* ERR frame, so crashed tasks still
    contribute to the coordinator's merged timeline.  A STAT frame
    answers with live counters (tasks run/failed, slots, pid) plus this
    process's metrics snapshot; see :func:`agent_stats`.
    """

    service_name = "worker-agent"

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 slots: int | None = None, mode: str = "processes",
                 expo_port: int | None = None,
                 history_interval: float = 5.0):
        super().__init__(host, port, expo_port)
        #: Task slots this host advertises (the coordinator opens this
        #: many task connections).  Defaults to the usable CPU count.
        self.slots = int(slots) if slots else available_parallelism()
        if mode not in ("processes", "inline"):
            raise ConfigError(f"unknown agent mode {mode!r}; "
                              f"choose from ('processes', 'inline')")
        self.mode = mode
        self.tasks_run = 0
        self.tasks_failed = 0
        self.tasks_active = 0
        self._counter_lock = threading.Lock()
        #: One home per slot; each starts its process on its first task.
        self._homes = [ProcessExecutor(1, start_method="spawn")
                       for _ in range(self.slots if mode == "processes"
                                      else 0)]
        #: Ring buffer of periodic counter samples — the continuous
        #: STAT history a monitor fetches via STAT meta
        #: ``{"history": n}`` without having polled the whole time.
        self._history: deque[dict] = deque(maxlen=HISTORY_SIZE)
        self._history_interval = max(0.1, float(history_interval))
        self._sampler_stop = threading.Event()
        self._sampler: threading.Thread | None = None

    def _run_task(self, slot: int, fn, task):
        if self.mode == "inline":
            return fn(task)
        try:
            return self._homes[slot % self.slots].map_tasks(fn, [task])[0]
        except WorkerCrashed as exc:
            # Answer with what the task raised (or the pool's
            # BrokenProcessPool), not with map_tasks' wrapper.
            raise exc.__cause__ or exc

    def start(self) -> "WorkerAgent":
        super().start()
        self._sampler_stop.clear()
        self._sampler = threading.Thread(
            target=self._sample_loop,
            name=f"repro-agent-history-{self.port}", daemon=True)
        self._sampler.start()
        return self

    def stop(self) -> None:
        was_running = self.running
        self._sampler_stop.set()
        sampler, self._sampler = self._sampler, None
        if sampler is not None:
            sampler.join(timeout=2.0)
        super().stop()
        for home in self._homes:
            _close_now(home)
        if was_running:
            log.info("agent stopped %s",
                     kv(port=self.port, tasks_run=self.tasks_run,
                        tasks_failed=self.tasks_failed))

    # -- continuous export ---------------------------------------------------

    def _counters(self) -> dict:
        with self._counter_lock:
            return {"tasks_run": self.tasks_run,
                    "tasks_failed": self.tasks_failed,
                    "tasks_active": self.tasks_active}

    def _sample_loop(self) -> None:
        """Append one counter sample per interval into the ring buffer."""
        while not self._sampler_stop.is_set():
            sample = self._counters()
            sample["ts"] = time.time()
            self._history.append(sample)
            self._sampler_stop.wait(self._history_interval)

    def history(self, limit: int | None = None) -> list[dict]:
        """The most recent ring-buffer samples (oldest first)."""
        samples = list(self._history)
        if limit is not None and limit >= 0:
            samples = samples[-limit:]
        return samples

    def gauges(self) -> dict:
        counters = self._counters()
        return {"agent_slots": self.slots,
                "agent_tasks_active": counters["tasks_active"],
                "agent_tasks_run": counters["tasks_run"],
                "agent_tasks_failed": counters["tasks_failed"]}

    def hello_meta(self) -> dict:
        return {"slots": self.slots}

    def stat_meta(self, meta: dict) -> dict:
        reply = {"slots": self.slots, "mode": self.mode,
                 "metrics": METRICS.snapshot()}
        reply.update(self._counters())
        history = meta.get("history")
        if history:
            reply["history"] = self.history(int(history))
        return reply

    def _handle_task(self, sock: socket.socket, meta: dict,
                     payload: bytes) -> None:
        ctx = meta.get("trace")
        tracer = task_tracer(ctx)
        # When a same-process tracer is already current (an in-process
        # agent under test), task_tracer returns NOOP so worker spans
        # record directly — the dispatch span should follow them there
        # instead of vanishing.
        recorder = tracer if tracer.enabled else (
            current_tracer() if ctx else tracer)
        previous = set_thread_tracer(tracer) if tracer.enabled else None
        with self._counter_lock:
            self.tasks_active += 1
        start = time.perf_counter()
        reply = None
        try:
            try:
                with recorder.span("agent_task", cat="agent",
                                   slot=meta.get("slot", -1),
                                   mode=self.mode):
                    fn, task = pickle.loads(payload)
                    result = self._run_task(meta.get("slot", 0), fn, task)
                    reply = pickle.dumps(result,
                                         protocol=pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                log.warning("task failed %s",
                            kv(slot=meta.get("slot", -1),
                               error=type(exc).__name__, message=exc))
                reply_meta = {"error": type(exc).__name__,
                              "message": str(exc)}
            else:
                log.debug("task done %s",
                          kv(slot=meta.get("slot", -1),
                             reply_bytes=len(reply)))
                reply_meta = {}
            finally:
                self._task_done(start, reply)
            if tracer.enabled:
                reply_meta["spans"] = tracer.export_payload()
            if reply is None:
                send_frame(sock, OP_ERR, reply_meta)
            else:
                send_frame(sock, OP_DATA, reply_meta, reply)
        finally:
            if tracer.enabled:
                set_thread_tracer(previous)

    def _task_done(self, start: float, reply: bytes | None) -> None:
        """Record a finished task (``reply`` None: it failed).

        Runs *before* the reply is sent, so a STAT that follows the
        reply always sees the task; ``agent.task_seconds`` therefore
        excludes the reply send.  This is the agent-process view of
        task latency/load — recorded here (not in the home process) so
        STAT/EXPO serve it in both modes; what `repro top`'s p95
        column reads.
        """
        METRICS.histogram("agent.task_seconds").observe(
            time.perf_counter() - start)
        if reply is not None:
            METRICS.counter("agent.reply_bytes").inc(len(reply))
        with self._counter_lock:
            self.tasks_active -= 1
            if reply is None:
                self.tasks_failed += 1
            else:
                self.tasks_run += 1

    def handle(self, sock: socket.socket, op: int, meta: dict,
               payload: bytes) -> bool:
        if op != OP_TASK:
            return False
        self._handle_task(sock, meta, payload)
        return True


def _close_now(home: ProcessExecutor) -> None:
    """Close a home at once: ``close()`` alone waits out a running task
    (a ``ProcessPoolExecutor`` cannot cancel one), so end its process."""
    for pool in getattr(home._pool, "_pools", ()):
        for process in list((pool._processes or {}).values()):
            process.terminate()
    home.close()


def agent_stats(host: str, port: int, timeout: float | None = 10.0
                ) -> dict:
    """Live STAT snapshot of a running ``repro serve`` agent.

    One short-lived connection: STAT, BYE, close.  The reply meta holds
    task counters (``tasks_run``/``tasks_failed``), ``slots``, ``pid``,
    ``mode`` and the agent process's ``metrics`` snapshot.
    """
    with FrameClient(host, port, timeout) as client:
        return client.stat()


def agent_expo(host: str, port: int, timeout: float | None = 10.0
               ) -> str:
    """One Prometheus-text scrape of an agent over the frame protocol.

    The EXPO opcode's answer: the same exposition document the agent's
    ``--expo-port`` HTTP listener serves, fetched over the existing
    agent port.
    """
    with FrameClient(host, port, timeout) as client:
        return client.expo()
