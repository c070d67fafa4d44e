"""ClusterContext: shared, refcounted ownership of a warm cluster.

Historically every :class:`~repro.api.session.JoinSession` owned its
executor and data-plane transport outright, so a warm cluster (live
worker pool, attached shm segments, a running block store) served
exactly one caller and died with it.  A :class:`ClusterContext` splits
that ownership out: it holds the cluster description, the lazily
created executor and — for the tcp data plane — one shared block store,
and hands each *query* a private
:class:`~repro.runtime.executor.ExecutorView` whose transport and epoch
id are its own.  Sessions become thin per-caller views::

    from repro.api import ClusterContext, JoinSession

    with ClusterContext(RunConfig(workers=8, backend="threads")) as ctx:
        with JoinSession(context=ctx) as a, JoinSession(context=ctx) as b:
            ...   # a and b share one warm pool, safely, concurrently

Lifecycle is refcounted: every attached session (and the ``with`` block
itself) holds one reference; the last :meth:`release` closes the
executor and the shared store.  A session constructed *without* a
context creates a private one and closes it itself; its runs get the
same per-query views.
"""

from __future__ import annotations

import threading

from ..distributed.cluster import Cluster
from ..errors import ConfigError
from ..knobs import env
from ..obs.log import get_logger, kv
from ..runtime.executor import Executor, ExecutorView, executor_for
from ..runtime.transport import (
    SharedMemoryTransport,
    create_transport,
    default_transport_name,
)
from .config import RunConfig

log = get_logger("repro.api.context")

__all__ = ["ClusterContext"]


class ClusterContext:
    """Refcounted owner of cluster + executor + data-plane staging.

    Thread-safe: :meth:`acquire`/:meth:`release`, lazy executor
    creation, and :meth:`checkout` may all be called from concurrent
    query threads.  Everything expensive is created on first use and
    stays warm until the last reference is released.
    """

    def __init__(self, config: RunConfig | None = None, *,
                 cluster: Cluster | None = None):
        self.config = config or RunConfig()
        if cluster is not None:
            self.config = self.config.replace(
                workers=cluster.num_workers, backend=cluster.runtime)
        self.cluster = cluster or self.config.make_cluster()
        self._executor: Executor | None = None
        self._store = None          # shared tcp block store (lazy)
        self._shm_ledger: dict[str, None] = {}   # every shm view's segments
        self._refs = 0
        self._epoch_seq = 0
        self._query_seq = 0
        self._lock = threading.RLock()
        self._closed = False

    # -- refcounted lifecycle ------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def refs(self) -> int:
        """Live references (attached sessions + explicit acquires)."""
        return self._refs

    def acquire(self) -> "ClusterContext":
        """Take a reference; a closed context refuses new holders."""
        with self._lock:
            self._check_open()
            self._refs += 1
        return self

    def release(self) -> None:
        """Drop a reference; the last one closes the context."""
        with self._lock:
            if self._refs <= 0:
                raise ConfigError(
                    "ClusterContext.release() without a matching acquire()")
            self._refs -= 1
            last = self._refs == 0 and not self._closed
        if last:
            self.close()

    def close(self) -> None:
        """Release executor + shared store unconditionally (idempotent).

        Normally reached through the last :meth:`release`; calling it
        directly force-closes even with references outstanding (their
        next checkout fails cleanly with :class:`ConfigError`).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            executor, self._executor = self._executor, None
            store, self._store = self._store, None
        try:
            if executor is not None:
                executor.close()
        finally:
            if store is not None:
                store.stop()
        log.info("context closed %s",
                 kv(backend=self.config.backend or "serial",
                    queries=self._query_seq))

    def _check_open(self) -> None:
        if self._closed:
            raise ConfigError("this ClusterContext is closed")

    def __enter__(self) -> "ClusterContext":
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()

    # -- shared resources ----------------------------------------------------

    @property
    def executor_created(self) -> bool:
        """Whether the lazy base executor exists yet (telemetry/testing)."""
        return self._executor is not None

    def executor(self) -> Executor:
        """The shared base executor, created on first call (a
        :class:`~repro.runtime.SerialExecutor` for the serial backend)."""
        with self._lock:
            self._check_open()
            if self._executor is None:
                self._executor = executor_for(
                    self.cluster, transport=self.config.transport,
                    hosts=self.config.hosts)
            return self._executor

    def checkout(self) -> Executor:
        """A per-query :class:`ExecutorView` over the shared executor.

        The view delegates execution to the shared pool but owns a
        private transport stamped with a fresh epoch id, so concurrent
        queries never interleave published blocks, ``TransportStats``
        or frozen ``last_epoch`` counters.  Engines tear the view's
        transport down as usual; the pool stays warm.
        """
        base = self.executor()
        with self._lock:
            self._epoch_seq += 1
            epoch = f"e{self._epoch_seq:04d}"
        return ExecutorView(base, transport=self._view_transport(),
                            epoch=epoch)

    def transport_name(self) -> str:
        """The transport views publish through (config/env resolved)."""
        return self.config.transport or default_transport_name(
            self.config.backend)

    def _view_transport(self):
        name = self.transport_name()
        if name == "shm":
            # Per-view segments, one context-wide ledger: any view's
            # ``active_segments`` lists what any run has not released.
            return SharedMemoryTransport(ledger=self._shm_ledger)
        if name != "tcp":
            # pickle stages per-instance: a fresh transport per view is
            # already fully isolated.
            return create_transport(name)
        # tcp views share one warm block store owned by the context —
        # repeated queries reuse the listening socket, and uuid-suffixed
        # block ids keep concurrent epochs collision-free.  Each view
        # still frees exactly the blocks it published.
        from ..net.transport import TcpTransport

        return TcpTransport(store=self._store_address())

    def _store_address(self) -> tuple[str, int]:
        """Where views' workers dial the shared store (advertise rule)."""
        from ..net.blockstore import BlockStoreServer, advertised_address

        with self._lock:
            self._check_open()
            if self._store is None:
                self._store = BlockStoreServer(
                    host=env("REPRO_BIND_HOST")).start()
                log.info("shared block store started %s",
                         kv(host=self._store.host, port=self._store.port))
            return advertised_address(self._store)

    @property
    def store_blocks(self) -> tuple[str, ...]:
        """Blocks live in the shared tcp store (leak check; () if none)."""
        store = self._store
        return store.blocks if store is not None else ()

    # -- per-query bookkeeping -----------------------------------------------

    def next_query_id(self, name: str | None = None) -> str:
        """Mint the next context-wide query id (``q0001:Q9``).

        Context-wide (not per-session) so concurrent sessions sharing
        one context never collide on span/metric attribution labels.
        """
        with self._lock:
            self._query_seq += 1
            seq = self._query_seq
        return f"q{seq:04d}:{name or '?'}"

    # -- conveniences --------------------------------------------------------

    def session(self, **kwargs):
        """A :class:`~repro.api.session.JoinSession` attached to this
        context (equivalent to ``JoinSession(context=self, **kwargs)``)."""
        from .session import JoinSession

        return JoinSession(context=self, **kwargs)

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"refs={self._refs}"
        return (f"ClusterContext(workers={self.config.workers}, "
                f"backend={self.config.backend!r}, {state})")
