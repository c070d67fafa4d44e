"""RemoteExecutor: run worker tasks on a mixed local+remote cluster.

The fourth runtime backend (``backend="remote"`` next to serial /
threads / processes).  Hosts come from ``RunConfig.hosts``, the
``REPRO_HOSTS`` environment variable or the CLI ``--hosts`` flag, as a
comma-separated list of specs:

- ``"host:port"`` — a :class:`~repro.net.agent.WorkerAgent` stood up
  with ``python -m repro serve``; its HELLO handshake advertises how
  many task slots the host contributes;
- ``"local"`` / ``"local:N"`` — N (default 1) slots that run tasks
  inline on coordinator threads, so one machine can join its own
  cluster (mixed local+remote).

Scheduling is a free-slot queue: every remote slot is one dedicated
task connection, every local slot a token; a pool thread takes whichever
slot frees up first, so fast hosts naturally absorb more tasks.  A
background heartbeat PINGs each remote host's control connection and
marks unresponsive hosts dead; a task that hits a dead/broken connection
surfaces as :class:`~repro.errors.WorkerCrashed` (the executors' shared
failure contract) rather than hanging — and ``close()`` still tears down
every socket and whatever the transport published.

The default data plane here is ``tcp`` (descriptor-only task frames,
workers fetch partitions from the coordinator's block store); ``pickle``
works too (partitions inline in the task frame), and ``shm`` only when
every agent runs on the coordinator's machine.
"""

from __future__ import annotations

import pickle
import queue
import threading
import time
from dataclasses import dataclass
from functools import partial

from ..errors import ConfigError, NetError, WorkerCrashed
from ..knobs import env
from ..obs.log import get_logger, kv
from ..obs.metrics import METRICS
from ..obs.tracing import current_tracer, trace_context
from ..runtime.executor import _PoolExecutor
from ..runtime.transport import Transport, default_transport_name
from .protocol import OP_TASK, FrameClient

__all__ = ["RemoteExecutor", "HostSpec", "parse_host_specs"]

log = get_logger("repro.net.executor")


@dataclass(frozen=True)
class HostSpec:
    """One parsed cluster member."""

    kind: str                  # "local" | "tcp"
    host: str = ""
    port: int = 0
    slots: int = 1             # local only; remote slots come from HELLO

    @property
    def label(self) -> str:
        return ("local" if self.kind == "local"
                else f"{self.host}:{self.port}")


def parse_host_specs(hosts) -> tuple[HostSpec, ...]:
    """Parse ``"h:p,local:2"`` (or an iterable of specs) into HostSpecs."""
    if hosts is None:
        raise ConfigError(
            "the remote backend needs worker hosts; set "
            "RunConfig.hosts / REPRO_HOSTS / --hosts, e.g. "
            "'127.0.0.1:7070,127.0.0.1:7071' (start agents with "
            "'python -m repro serve --port 7070')")
    if isinstance(hosts, str):
        hosts = [part.strip() for part in hosts.split(",") if part.strip()]
    specs: list[HostSpec] = []
    for raw in hosts:
        if isinstance(raw, HostSpec):
            specs.append(raw)
            continue
        text = str(raw).strip()
        if text == "local" or text.startswith("local:"):
            _, _, n = text.partition(":")
            try:
                slots = int(n) if n else 1
            except ValueError:
                raise ConfigError(
                    f"bad local host spec {text!r}; use 'local' or "
                    f"'local:<slots>'") from None
            if slots < 1:
                raise ConfigError(f"local slots must be >= 1 in {text!r}")
            specs.append(HostSpec(kind="local", slots=slots))
            continue
        host, sep, port = text.rpartition(":")
        try:
            port_num = int(port) if sep else -1
        except ValueError:
            port_num = -1
        if not sep or not host or not 0 < port_num < 65536:
            raise ConfigError(
                f"bad host spec {text!r}; expected 'host:port', 'local' "
                f"or 'local:<slots>'")
        specs.append(HostSpec(kind="tcp", host=host, port=port_num))
    if not specs:
        raise ConfigError("the remote backend needs at least one host")
    return tuple(specs)


class RemoteExecutor(_PoolExecutor):
    """Task slots on worker agents (plus optional local threads)."""

    name = "remote"

    def __init__(self, max_workers: int | None = None,
                 transport: "Transport | str | None" = None,
                 hosts=None, heartbeat_interval: float = 5.0,
                 connect_timeout: float = 10.0,
                 slot_timeout: float = 60.0):
        super().__init__(max_workers, transport=transport
                         or default_transport_name(self.name))
        self.host_specs = parse_host_specs(
            hosts if hosts is not None else env("REPRO_HOSTS"))
        self.heartbeat_interval = heartbeat_interval
        self.connect_timeout = connect_timeout
        #: How long a task waits for a free slot before concluding the
        #: cluster has no live workers left (keeps dead-host runs from
        #: blocking forever).
        self.slot_timeout = slot_timeout
        #: Free slots: (host, index on that host or -1, its task
        #: connection or None for a local coordinator thread).
        self._slots: "queue.Queue[tuple[HostSpec, int, FrameClient | None]]" \
            = queue.Queue()
        self._connections: list[FrameClient] = []
        self._conns_by_spec: dict[HostSpec, list[FrameClient]] = {}
        self._control: dict[HostSpec, FrameClient] = {}
        self._dead: set[HostSpec] = set()
        self._dead_lock = threading.Lock()
        self._hb_stop = threading.Event()
        self._hb_thread: threading.Thread | None = None
        self._connected = False

    # -- cluster wiring ------------------------------------------------------

    def _connect_cluster(self) -> None:
        if self._connected:
            return
        total_slots = 0
        for spec in self.host_specs:
            if spec.kind == "local":
                for _ in range(spec.slots):
                    self._slots.put((spec, -1, None))
                total_slots += spec.slots
                continue
            try:
                # Every socket is tracked the moment it exists, so
                # close() reaches it even if a later dial fails or a
                # host is listed twice.  The control line keeps its
                # dial timeout so heartbeats cannot wedge on a hung
                # host; task lines block (a remote task may compute
                # for minutes without sending a byte).
                control = FrameClient(spec.host, spec.port,
                                      self.connect_timeout)
                self._connections.append(control)
                meta = control.hello("worker-agent")
                slots = max(1, int(meta.get("slots", 1)))
                conns = []
                for _ in range(slots):
                    conn = FrameClient(spec.host, spec.port,
                                       self.connect_timeout)
                    self._connections.append(conn)
                    conn.settimeout(None)
                    conns.append(conn)
                log.info("host connected %s",
                         kv(host=spec.label, slots=slots,
                            agent_pid=meta.get("pid")))
            except NetError as exc:
                self.close()
                raise ConfigError(f"worker agent {spec.label} refused "
                                  f"the handshake: {exc}") from exc
            except (OSError, EOFError) as exc:
                self.close()
                raise ConfigError(
                    f"cannot reach worker agent {spec.label}: "
                    f"{type(exc).__name__}: {exc} — is 'python -m repro "
                    f"serve' running there?") from exc
            self._control[spec] = control
            self._conns_by_spec.setdefault(spec, []).extend(conns)
            for slot, conn in enumerate(conns):
                self._slots.put((spec, slot, conn))
            total_slots += slots
        # Exactly one pool thread per slot: with more threads than
        # slots, surplus threads would sit in _slots.get() and trip
        # slot_timeout on a merely *busy* (not dead) cluster.
        self.max_workers = max(1, total_slots)
        self._connected = True
        if any(s.kind == "tcp" for s in self.host_specs) \
                and self.heartbeat_interval > 0:
            self._hb_stop.clear()
            self._hb_thread = threading.Thread(
                target=self._heartbeat_loop, daemon=True,
                name="repro-remote-heartbeat")
            self._hb_thread.start()

    def _heartbeat_loop(self) -> None:
        while not self._hb_stop.wait(self.heartbeat_interval):
            for spec, control in list(self._control.items()):
                with self._dead_lock:
                    if spec in self._dead:
                        continue
                try:
                    start = time.perf_counter()
                    control.ping()
                    # Each host's latest heartbeat round-trip becomes a
                    # live gauge — the cluster-latency signal the trace
                    # timeline can't show between epochs.
                    METRICS.gauge(
                        f"net.heartbeat_rtt_seconds.{spec.label}").set(
                        time.perf_counter() - start)
                except Exception:   # includes a socket close() raced away
                    self._mark_dead(spec)

    def _mark_dead(self, spec: HostSpec) -> None:
        with self._dead_lock:
            if spec in self._dead:
                return
            self._dead.add(spec)
        log.warning("host marked dead %s", kv(host=spec.label))
        # Abort the host's task sockets: a silently-lost host (power
        # cut, partition) sends no FIN, so a task blocked in recv with
        # no timeout would hang forever; shutdown() wakes it into an
        # OSError -> WorkerCrashed.
        for conn in self._conns_by_spec.get(spec, ()):
            conn.abort()

    def host_status(self) -> dict[str, bool]:
        """``{label: alive}`` for every remote host (telemetry/tests)."""
        with self._dead_lock:
            return {spec.label: spec not in self._dead
                    for spec in self.host_specs if spec.kind == "tcp"}

    # -- execution -----------------------------------------------------------

    def _make_pool(self):
        from concurrent.futures import ThreadPoolExecutor

        self._connect_cluster()
        return ThreadPoolExecutor(max_workers=max(1, self.max_workers),
                                  thread_name_prefix="repro-remote")

    def _run_one(self, fn, task):
        try:
            spec, slot, conn = self._slots.get(timeout=self.slot_timeout)
        except queue.Empty:
            raise WorkerCrashed(
                -1, "no live worker slots (every connected host is dead "
                    "or busy beyond slot_timeout)") from None
        if conn is None:
            try:
                return fn(task)
            finally:
                self._slots.put((spec, slot, conn))
        # The TASK meta names the slot, whose home runs the task, and
        # carries the trace context; the reply meta may carry
        # agent-recorded spans.
        task_meta = {"slot": slot}
        ctx = trace_context()
        if ctx is not None:
            task_meta["trace"] = ctx
        try:
            _op, reply_meta, reply = conn.request(
                OP_TASK, task_meta,
                pickle.dumps((fn, task), protocol=pickle.HIGHEST_PROTOCOL))
        except NetError as exc:
            # The agent answered with an ERR frame: the task raised
            # remotely, but the connection itself is still healthy.
            # The ERR meta still delivers the agent's spans, so even a
            # crashed remote task lands on the merged timeline.
            current_tracer().merge_payload(
                (getattr(exc, "meta", None) or {}).get("spans"),
                host=spec.label)
            self._slots.put((spec, slot, conn))
            raise WorkerCrashed(spec.port,
                                f"remote task on {spec.label} "
                                f"failed: {exc}") from exc
        except (OSError, EOFError) as exc:
            # The connection died — retire the slot and flag the host.
            # A closed client (its host already flagged) raises
            # ConnectionError here too, with the host label intact.
            self._mark_dead(spec)
            conn.close()
            raise WorkerCrashed(spec.port,
                                f"worker agent {spec.label} died: "
                                f"{type(exc).__name__}: {exc}") from exc
        current_tracer().merge_payload(reply_meta.get("spans"),
                                       host=spec.label)
        self._slots.put((spec, slot, conn))
        return pickle.loads(reply)

    def submit_tasks(self, fn, tasks):
        # Each streamed task grabs whichever agent slot frees first, so
        # remote hosts start executing while the coordinator is still
        # routing and publishing later relations (network overlap, not
        # just memcpy).  The partial stays in this process: super() runs
        # it on a local thread pool, and only (fn.__name__, task)
        # crosses the wire.
        # repro: lint-ignore[spawn-safety] the partial never pickles; the thread pool calls it in-process and ships the task by name
        return super().submit_tasks(partial(self._run_one, fn), tasks)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        self._hb_stop.set()
        thread, self._hb_thread = self._hb_thread, None
        if thread is not None:
            thread.join(timeout=2.0)
        for conn in self._connections:     # control lines included
            conn.close()
        self._connections.clear()
        self._conns_by_spec.clear()
        self._control.clear()
        # Drain the slot queue and forget dead-host flags so a reopened
        # executor starts clean — a host that was flagged during the
        # previous run gets fresh connections and fresh heartbeats.
        while True:
            try:
                self._slots.get_nowait()
            except queue.Empty:
                break
        with self._dead_lock:
            self._dead.clear()
        self._connected = False
        super().close()

    def __repr__(self) -> str:
        labels = ",".join(s.label for s in self.host_specs)
        return f"RemoteExecutor(hosts=[{labels}])"
