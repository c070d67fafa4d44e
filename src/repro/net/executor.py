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

import os
import pickle
import queue
import threading
import time
from dataclasses import dataclass
from functools import partial

from ..errors import ConfigError, NetError, WorkerCrashed
from ..obs.log import get_logger, kv
from ..obs.metrics import METRICS
from ..obs.tracing import current_tracer, trace_context
from ..runtime.executor import _PoolExecutor
from ..runtime.transport import TRANSPORT_ENV_VAR, Transport
from .protocol import (
    OP_BYE,
    OP_HELLO,
    OP_PING,
    OP_TASK,
    PROTOCOL_VERSION,
    connect,
    request,
    send_frame,
)

__all__ = ["RemoteExecutor", "HostSpec", "parse_host_specs",
           "HOSTS_ENV_VAR", "default_hosts"]

log = get_logger("repro.net.executor")

#: Environment variable naming the cluster, e.g.
#: ``REPRO_HOSTS=127.0.0.1:7070,127.0.0.1:7071,local:2``.
HOSTS_ENV_VAR = "REPRO_HOSTS"


def default_hosts() -> tuple[str, ...] | None:
    """Host specs from ``REPRO_HOSTS`` (None when unset/empty)."""
    raw = os.environ.get(HOSTS_ENV_VAR)
    if raw is None:
        return None
    specs = tuple(part.strip() for part in raw.split(",") if part.strip())
    return specs or None


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
            f"the remote backend needs worker hosts; set "
            f"RunConfig.hosts / {HOSTS_ENV_VAR} / --hosts, e.g. "
            f"'127.0.0.1:7070,127.0.0.1:7071' (start agents with "
            f"'python -m repro serve --port 7070')")
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


class _AgentConnection:
    """One socket to a worker agent (a task slot or the control line).

    ``op_timeout`` bounds each send/recv after the connection is
    established: task connections pass None (a remote task may compute
    for minutes without sending a byte), the control connection keeps a
    bound so heartbeats cannot wedge on a hung host.
    """

    def __init__(self, spec: HostSpec, timeout: float,
                 op_timeout: float | None = None):
        self.spec = spec
        self._sock = connect(spec.host, spec.port, timeout=timeout)
        self._sock.settimeout(op_timeout)

    def _live_sock(self):
        """The socket, or ConnectionError if abort()/close() ran.

        A dead host's idle slots can still sit in the free-slot queue
        after its sockets were aborted; raising an OSError subclass here
        routes that case through the normal dead-host handling (host
        label and all) instead of an anonymous AttributeError.
        """
        sock = self._sock
        if sock is None:
            # repro: lint-ignore[error-taxonomy] must be an OSError subclass so the dead-host handler catches it like a real socket failure
            raise ConnectionError(
                f"connection to {self.spec.label} is closed")
        return sock

    def hello(self) -> dict:
        _op, meta, _ = request(self._live_sock(), OP_HELLO)
        version = meta.get("version")
        if version != PROTOCOL_VERSION:
            raise ConfigError(
                f"worker agent {self.spec.label} speaks protocol "
                f"{version!r}, this coordinator speaks "
                f"{PROTOCOL_VERSION}")
        if meta.get("service") != "worker-agent":
            raise ConfigError(
                f"{self.spec.label} is a {meta.get('service', 'unknown')!r}"
                f" service, not a worker agent — did you point --hosts at "
                f"a block store?")
        return meta

    def ping(self) -> None:
        request(self._live_sock(), OP_PING)

    def run_task(self, fn, task, meta: dict | None = None):
        """Ship one task; returns ``(result, reply_meta)``.

        ``meta`` rides in the TASK frame (trace context, slot index);
        the reply meta may carry agent-recorded ``spans``.
        """
        sock = self._live_sock()
        payload = pickle.dumps((fn, task),
                               protocol=pickle.HIGHEST_PROTOCOL)
        _op, reply_meta, reply = request(sock, OP_TASK, meta=meta,
                                         payload=payload)
        return pickle.loads(reply), reply_meta

    def close(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                send_frame(sock, OP_BYE)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass

    def abort(self) -> None:
        """Hard-close without BYE; wakes a recv blocked on this socket."""
        sock, self._sock = self._sock, None
        if sock is not None:
            import socket as socket_mod

            try:
                sock.shutdown(socket_mod.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass


class RemoteExecutor(_PoolExecutor):
    """Task slots on worker agents (plus optional local threads)."""

    name = "remote"

    def __init__(self, max_workers: int | None = None,
                 transport: "Transport | str | None" = None,
                 hosts=None, heartbeat_interval: float = 5.0,
                 connect_timeout: float = 10.0,
                 slot_timeout: float = 60.0):
        if transport is None:
            # The remote backend's natural data plane is the block
            # store; an explicit REPRO_TRANSPORT still wins.
            transport = os.environ.get(TRANSPORT_ENV_VAR, "tcp")
        super().__init__(max_workers, transport=transport)
        self.host_specs = parse_host_specs(
            hosts if hosts is not None else default_hosts())
        self.heartbeat_interval = heartbeat_interval
        self.connect_timeout = connect_timeout
        #: How long a task waits for a free slot before concluding the
        #: cluster has no live workers left (keeps dead-host runs from
        #: blocking forever).
        self.slot_timeout = slot_timeout
        self._slots: "queue.Queue[tuple[str, _AgentConnection | None]]" \
            = queue.Queue()
        self._connections: list[_AgentConnection] = []
        self._conns_by_spec: dict[HostSpec, list[_AgentConnection]] = {}
        self._control: dict[HostSpec, _AgentConnection] = {}
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
                    self._slots.put(("local", None))
                total_slots += spec.slots
                continue
            try:
                control = _AgentConnection(spec, self.connect_timeout,
                                           op_timeout=self.connect_timeout)
                meta = control.hello()
                slots = max(1, int(meta.get("slots", 1)))
                conns = [_AgentConnection(spec, self.connect_timeout)
                         for _ in range(slots)]
                for slot, conn in enumerate(conns):
                    conn.slot = slot
                log.info("host connected %s",
                         kv(host=spec.label, slots=slots,
                            agent_pid=meta.get("pid")))
            except ConfigError:
                self.close()
                raise
            except (OSError, EOFError, NetError) as exc:
                self.close()
                raise ConfigError(
                    f"cannot reach worker agent {spec.label}: "
                    f"{type(exc).__name__}: {exc} — is 'python -m repro "
                    f"serve' running there?") from exc
            # Control conns are tracked with the task conns so close()
            # reaches every socket even if a host is listed twice.
            self._control[spec] = control
            self._connections.append(control)
            self._connections.extend(conns)
            self._conns_by_spec.setdefault(spec, []).extend(conns)
            for conn in conns:
                self._slots.put(("remote", conn))
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
            kind, conn = self._slots.get(timeout=self.slot_timeout)
        except queue.Empty:
            raise WorkerCrashed(
                -1, "no live worker slots (every connected host is dead "
                    "or busy beyond slot_timeout)") from None
        if kind == "local":
            try:
                return fn(task)
            finally:
                self._slots.put((kind, conn))
        ctx = trace_context()
        task_meta = None
        if ctx is not None:
            task_meta = {"trace": ctx,
                         "slot": getattr(conn, "slot", -1)}
        try:
            result, reply_meta = conn.run_task(fn, task, meta=task_meta)
        except NetError as exc:
            # The agent answered with an ERR frame: the task raised
            # remotely, but the connection itself is still healthy.
            # The ERR meta still delivers the agent's spans, so even a
            # crashed remote task lands on the merged timeline.
            current_tracer().merge_payload(
                (getattr(exc, "meta", None) or {}).get("spans"),
                host=conn.spec.label)
            self._slots.put((kind, conn))
            raise WorkerCrashed(conn.spec.port,
                                f"remote task on {conn.spec.label} "
                                f"failed: {exc}") from exc
        except (OSError, EOFError) as exc:
            # The connection died — retire the slot and flag the host.
            self._mark_dead(conn.spec)
            conn.close()
            raise WorkerCrashed(conn.spec.port,
                                f"worker agent {conn.spec.label} died: "
                                f"{type(exc).__name__}: {exc}") from exc
        current_tracer().merge_payload(reply_meta.get("spans"),
                                       host=conn.spec.label)
        self._slots.put((kind, conn))
        return result

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
        for conn in self._connections:
            conn.close()
        self._connections.clear()
        self._conns_by_spec.clear()
        for control in self._control.values():
            control.close()
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
