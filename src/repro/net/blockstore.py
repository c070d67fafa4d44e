"""TCP block store: the staging area of the multi-machine data plane.

The coordinator PUTs routed column blocks once; workers — local or on
other machines — GET the blocks they were handed descriptors for and
slice their own partitions.  That keeps task payloads descriptor-only
(the HCube design goal) even when no shared memory exists between
coordinator and worker.

Ops (see :mod:`repro.net.protocol` for the frame format):

- ``PUT  {block, dtype, shape} + bytes`` — stage a block; duplicate ids
  are refused (block ids are single-assignment within an epoch).
- ``GET  {block}`` — fetch a staged block; unknown ids are refused
  (:class:`~repro.errors.BlockNotFound`), never answered with garbage.
- ``LIST`` — ids and sizes of everything currently held.
- ``FREE {block}`` — release one block; double-frees are refused.
- ``STAT`` — server-side counters (puts/gets/frees, bytes in/out), the
  source of the per-run ``fetched_bytes`` a coordinator reports.  It
  carries no metrics snapshot: a coordinator reads it every epoch.

HELLO/PING/STAT/EXPO/BYE are the shared control plane
(:class:`~repro.net.protocol.FrameServer`).

The server handles clients concurrently (one thread per connection,
store guarded by a lock) and ``stop()`` closes every socket — a stopped
store leaves no listening port.
"""

from __future__ import annotations

import socket
import threading
from dataclasses import dataclass

import numpy as np

from ..errors import NetError
from ..knobs import env
from ..obs.log import get_logger, kv
from ..obs.metrics import METRICS
from ..obs.tracing import current_tracer
from .protocol import (
    OP_DATA,
    OP_ERR,
    OP_FREE,
    OP_GET,
    OP_LIST,
    OP_OK,
    OP_PUT,
    FrameClient,
    FrameServer,
    send_frame,
)

__all__ = ["BlockStoreStats", "BlockStoreServer", "BlockStoreClient",
           "advertised_address", "fetch_block_array"]

log = get_logger("repro.net.blockstore")


@dataclass
class BlockStoreStats:
    """What one store moved, from the server's view."""

    puts: int = 0
    gets: int = 0
    frees: int = 0
    bytes_in: int = 0
    bytes_out: int = 0

    def as_dict(self) -> dict[str, int]:
        return {"puts": self.puts, "gets": self.gets, "frees": self.frees,
                "bytes_in": self.bytes_in, "bytes_out": self.bytes_out}


class BlockStoreServer(FrameServer):
    """Concurrent in-memory block server for routed column blocks."""

    service_name = "blockstore"

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        super().__init__(host, port)
        # block id -> (bytes, dtype str, shape tuple)
        self._blocks: dict[str, tuple[bytes, str, tuple[int, ...]]] = {}
        self._store_lock = threading.Lock()
        self.stats = BlockStoreStats()

    @property
    def blocks(self) -> tuple[str, ...]:
        with self._store_lock:
            return tuple(self._blocks)

    def stop(self) -> None:
        was_running = self.running
        super().stop()
        if was_running:
            log.info("block store stopped %s",
                     kv(port=self.port, **self.stats.as_dict()))

    def handle(self, sock: socket.socket, op: int, meta: dict,
               payload: bytes) -> bool:
        if op == OP_PUT:
            block = meta["block"]
            with self._store_lock:
                if block in self._blocks:
                    send_frame(sock, OP_ERR,
                               {"error": "exists", "block": block,
                                "message": f"block {block!r} was already "
                                           f"put; ids are single-use"})
                    return True
                self._blocks[block] = (payload, meta["dtype"],
                                       tuple(meta["shape"]))
                self.stats.puts += 1
                self.stats.bytes_in += len(payload)
            send_frame(sock, OP_OK, {"block": block})
        elif op == OP_GET:
            block = meta["block"]
            with self._store_lock:
                entry = self._blocks.get(block)
                if entry is not None:
                    self.stats.gets += 1
                    self.stats.bytes_out += len(entry[0])
            if entry is None:
                send_frame(sock, OP_ERR,
                           {"error": "not-found", "block": block,
                            "message": "never put, or already freed"})
            else:
                data, dtype, shape = entry
                send_frame(sock, OP_DATA,
                           {"block": block, "dtype": dtype,
                            "shape": list(shape)}, data)
        elif op == OP_LIST:
            with self._store_lock:
                listing = {b: len(e[0]) for b, e in self._blocks.items()}
            send_frame(sock, OP_OK, {"blocks": listing})
        elif op == OP_FREE:
            block = meta["block"]
            with self._store_lock:
                entry = self._blocks.pop(block, None)
                if entry is not None:
                    self.stats.frees += 1
            if entry is None:
                send_frame(sock, OP_ERR,
                           {"error": "not-found", "block": block,
                            "message": "double-free or never put"})
            else:
                send_frame(sock, OP_OK, {"block": block})
        else:
            return False
        return True

    def stat_meta(self, meta: dict) -> dict:
        with self._store_lock:
            return dict(self.stats.as_dict(), blocks_held=len(self._blocks))

    def gauges(self) -> dict:
        return {f"blockstore_{key}": value
                for key, value in self.stat_meta({}).items()}


def advertised_address(server: BlockStoreServer) -> tuple[str, int]:
    """The ``(host, port)`` workers dial to reach ``server``.

    ``REPRO_ADVERTISE_HOST`` wins; otherwise the bind host, with a
    wildcard bind mapped to loopback — ``0.0.0.0`` is not a dial address.
    """
    host = env("REPRO_ADVERTISE_HOST")
    if host is None:
        host = "127.0.0.1" if server.host == "0.0.0.0" else server.host
    return (host, server.port)


class BlockStoreClient(FrameClient):
    """One connection to a block store; methods mirror the ops.

    No HELLO: every data-path connection (one per worker-side GET) would
    pay the extra round trip.
    """

    def put(self, block: str, array: np.ndarray) -> None:
        arr = np.ascontiguousarray(array)
        self.request(OP_PUT, {"block": block, "dtype": str(arr.dtype),
                              "shape": list(arr.shape)}, arr.tobytes())

    def get(self, block: str) -> np.ndarray:
        _op, meta, payload = self.request(OP_GET, {"block": block})
        arr = np.frombuffer(payload, dtype=np.dtype(meta["dtype"]))
        return arr.reshape(tuple(meta["shape"]))   # read-only view

    def list(self) -> dict[str, int]:
        _op, meta, _ = self.request(OP_LIST)
        return meta["blocks"]

    def free(self, block: str) -> None:
        self.request(OP_FREE, {"block": block})


# -- worker-side fetch --------------------------------------------------------

def fetch_block_array(host: str, port: int, block: str, *,
                      shape: tuple[int, ...] | None = None,
                      dtype: np.dtype | None = None,
                      memo: dict | None = None) -> np.ndarray:
    """GET ``block`` from the store at ``(host, port)``.

    Returns a read-only array (callers slice or copy — exactly what
    :func:`repro.runtime.transport.resolve_array_ref` does).  ``memo``
    is the caller's dict of blocks already fetched: one
    :class:`~repro.runtime.worker.WorkerTask` carries a ref per (atom,
    cube), so a task passes one memo and GETs each block once.  Block
    ids are single-use (each epoch publishes fresh ones), so nothing is
    kept past the memo's owner.  ``shape`` and ``dtype`` are
    cross-checked against the server's metadata when given: a mismatch
    means the descriptor and the store disagree, which is a protocol bug
    worth failing loudly on.
    """
    key = (host, port, block)
    arr = memo.get(key) if memo is not None else None
    if arr is not None:
        METRICS.counter("net.fetch_cache_hits").inc()
    else:
        with current_tracer().span("fetch_block", cat="net",
                                   block=block, store=f"{host}:{port}"):
            with BlockStoreClient(host, port) as client:
                arr = client.get(block)
        METRICS.counter("net.fetched_blocks").inc()
        METRICS.counter("net.fetched_bytes").inc(arr.nbytes)
        if memo is not None:
            memo[key] = arr
    if shape is not None and tuple(arr.shape) != tuple(shape):
        raise NetError(f"block {block!r}: descriptor shape {tuple(shape)} "
                       f"!= stored shape {tuple(arr.shape)}")
    if dtype is not None and arr.dtype != np.dtype(dtype):
        raise NetError(f"block {block!r}: descriptor dtype {dtype} "
                       f"!= stored dtype {arr.dtype}")
    return arr
