"""TcpTransport: the multi-machine data plane behind the Transport seam.

Implements :class:`repro.runtime.transport.Transport` so the scheduler,
the engines and the executors need zero protocol changes: ``publish``
PUTs each source array into a :class:`~repro.net.blockstore.BlockStore
Server` (owned by this transport by default, or an external one shared
by several coordinators), and ``make_ref`` mints descriptors carrying
``(host, port, block_id, dtype, shape)`` plus a row range — workers
anywhere fetch their own ranges over TCP.

Epoch lifecycle (mirrors the shm rules in docs/data_plane.md):

- The first ``publish`` of a non-empty array stands the store up (or
  connects to the external one); an explicit ``setup`` does so ahead of
  time, and no engine calls it.  So an epoch that publishes nothing —
  every input resident in the workers' home processes
  (:mod:`repro.runtime.residency`), or only empty arrays — opens no
  connection.
  Each key is staged exactly once under a fresh uuid-suffixed block id:
  ids are single-use, so a worker task's fetch memo can never serve a
  stale epoch.
- ``teardown`` FREEs every published block and sums the GET counters
  each FREE reply carries for its block into
  ``stats.fetched_blocks``/``fetched_bytes`` (what workers physically
  pulled — accounted to the block store, not the task payload; exact
  even when other epochs fetch from the same store meanwhile), closes
  the client socket, and stops the owned server; with no connection
  (nothing was staged) it frees nothing.  It is idempotent, robust
  against a store that already died, and leaves no listening port
  behind.

Addressing: the store binds ``bind_host`` (default ``127.0.0.1``;
``REPRO_BIND_HOST`` or ``0.0.0.0`` for real multi-machine runs) and
descriptors advertise ``REPRO_ADVERTISE_HOST`` — the address *workers*
should dial, which differs from the bind address exactly when binding a
wildcard interface (:func:`~repro.net.blockstore.advertised_address`).
"""

from __future__ import annotations

import uuid

import numpy as np

from ..errors import BlockNotFound, NetError
from ..knobs import env
from ..obs.log import get_logger, kv
from ..obs.tracing import current_tracer
from ..runtime.transport import ArrayRef, Transport
from .blockstore import BlockStoreClient, BlockStoreServer, \
    advertised_address

log = get_logger("repro.net.transport")

__all__ = ["TcpTransport"]


def _parse_addr(store) -> tuple[str, int] | None:
    if store is None:
        return None
    if isinstance(store, str):
        host, _, port = store.rpartition(":")
        return (host, int(port))
    host, port = store
    return (str(host), int(port))


class TcpTransport(Transport):
    """Sources live in a TCP block store; refs carry (host, port, id)."""

    name = "tcp"

    def __init__(self, store: "str | tuple[str, int] | None" = None,
                 bind_host: str | None = None):
        super().__init__()
        #: External store address; None means this transport owns one.
        self._external = _parse_addr(store)
        self._bind_host = bind_host or env("REPRO_BIND_HOST")
        self._server: BlockStoreServer | None = None
        self._client: BlockStoreClient | None = None
        self._addr: tuple[str, int] | None = None
        # key -> (block id | None for empty arrays, shape, dtype)
        self._meta: dict[str, tuple[str | None, tuple[int, ...], str]] = {}

    @property
    def store_address(self) -> tuple[str, int] | None:
        """(host, port) workers dial this epoch; None when torn down."""
        return self._addr

    # -- epoch lifecycle -----------------------------------------------------

    def setup(self) -> None:
        self._ensure_store()

    def _ensure_store(self) -> BlockStoreClient:
        if self._client is not None:
            return self._client
        if self._external is not None:
            self._addr = self._external
        else:
            self._server = BlockStoreServer(host=self._bind_host)
            self._server.start()
            self._addr = advertised_address(self._server)
        self._client = BlockStoreClient(*self._addr)
        return self._client

    def publish(self, key: str, array: np.ndarray) -> str:
        # The lock (Transport._lock) serializes the whole PUT: the
        # client socket is shared, so two coordinator threads must not
        # interleave frames on it.
        with self._lock:
            if key in self._meta:
                return key
            arr = np.ascontiguousarray(array)
            if arr.nbytes == 0:
                # Empty arrays ship as (tiny) inline refs, like shm.
                self._meta[key] = (None, tuple(arr.shape), str(arr.dtype))
                return key
            client = self._ensure_store()
            block = f"{key}@{uuid.uuid4().hex[:12]}"
            with current_tracer().span("publish", cat="transport",
                                       transport=self.name, key=key,
                                       bytes=int(arr.nbytes)):
                client.put(block, arr)
            log.debug("block published %s",
                      kv(block=block, bytes=int(arr.nbytes)))
            self._meta[key] = (block, tuple(arr.shape), str(arr.dtype))
            self.stats.published_blocks += 1
            self.stats.published_bytes += int(arr.nbytes)
        return key

    def make_ref(self, key: str, rows: slice | None = None,
                 content: str | None = None) -> ArrayRef:
        with self._lock:
            block, shape, dtype = self._meta[key]
            host, port = self._addr if block is not None else (None, None)
        return self._staged_ref("tcp", block, shape, dtype, rows, content,
                                host=host, port=port)

    def teardown(self) -> None:
        with self._lock:
            self._teardown_locked()

    def _teardown_locked(self) -> None:
        client, self._client = self._client, None
        if client is not None:
            try:
                # Block ids are this epoch's own, so each block's GET
                # counters are what workers fetched of it.
                for block, _shape, _dtype in self._meta.values():
                    if block is None:
                        continue
                    try:
                        gets, sent = client.free(block)
                    except BlockNotFound:  # pragma: no cover - freed twice
                        continue
                    self.stats.fetched_blocks += gets
                    self.stats.fetched_bytes += sent
                    self.stats.freed_blocks += 1
            except (NetError, OSError, EOFError):
                # The store died (or an external one vanished) — there
                # is nothing left to free; still stop our server below.
                pass
            finally:
                client.close()
        server, self._server = self._server, None
        if server is not None:
            server.stop()
        self._addr = None
        self._meta.clear()
        super().teardown()
