"""TCP block store: the staging area of the multi-machine data plane.

The coordinator PUTs routed column blocks once; workers — local or on
other machines — GET the blocks they were handed descriptors for and
slice their own partitions.  That keeps task payloads descriptor-only
(the HCube design goal) even when no shared memory exists between
coordinator and worker.

Ops (see :mod:`repro.net.protocol` for the frame format):

- ``PUT  {block, dtype, shape} + bytes`` — stage a block; duplicate ids
  are refused (block ids are single-assignment within an epoch).
- ``GET  {block[, rows: [lo, hi]]}`` — fetch a staged block, or only
  its rows ``[lo, hi)`` (sent straight from the stored bytes; only
  those bytes count in ``bytes_out``); unknown ids are refused
  (:class:`~repro.errors.BlockNotFound`) and out-of-range rows answered
  ``ERR out-of-range``, never with garbage.
- ``LIST`` — ids and sizes of everything currently held.
- ``FREE {block}`` — release one block, answered with that block's
  own ``gets`` and ``bytes_out`` (the source of the per-run
  ``fetched_bytes`` a coordinator reports, exact however many
  coordinators share the store); double-frees are refused.
- ``STAT`` — server-side counters (puts/gets/frees, bytes in/out).

HELLO/PING/STAT/EXPO/BYE are the shared control plane
(:class:`~repro.net.protocol.FrameServer`).

The server handles clients concurrently (one thread per connection,
store guarded by a lock) and ``stop()`` closes every socket — a stopped
store leaves no listening port.
"""

from __future__ import annotations

import math
import socket
import threading
from dataclasses import dataclass

import numpy as np

from ..errors import NetError
from ..knobs import env
from ..obs.log import get_logger, kv
from ..obs.metrics import METRICS
from ..obs.tracing import current_tracer
from ..runtime.transport import TaskFetches
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
        # block id -> (payload bytes, dtype str, shape tuple)
        self._blocks: dict[str, tuple[bytes | bytearray, str,
                                      tuple[int, ...]]] = {}
        # block id -> [GETs answered, bytes sent] for that block
        self._served: dict[str, list[int]] = {}
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
                self._served[block] = [0, 0]
                self.stats.puts += 1
                self.stats.bytes_in += len(payload)
            send_frame(sock, OP_OK, {"block": block})
        elif op == OP_GET:
            self._get(sock, meta["block"], meta.get("rows"))
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
                    gets, sent = self._served.pop(block)
            if entry is None:
                send_frame(sock, OP_ERR,
                           {"error": "not-found", "block": block,
                            "message": "double-free or never put"})
            else:
                send_frame(sock, OP_OK, {"block": block, "gets": gets,
                                         "bytes_out": sent})
        else:
            return False
        return True

    def _get(self, sock: socket.socket, block: str, rows) -> None:
        """Answer a GET: the whole block, or its rows ``[lo, hi)``."""
        with self._store_lock:
            entry = self._blocks.get(block)
        if entry is None:
            send_frame(sock, OP_ERR,
                       {"error": "not-found", "block": block,
                        "message": "never put, or already freed"})
            return
        data, dtype, shape = entry
        part = memoryview(data)
        if rows is not None:
            if not (isinstance(rows, list) and len(rows) == 2
                    and all(type(r) is int for r in rows) and shape
                    and 0 <= rows[0] <= rows[1] <= shape[0]):
                send_frame(sock, OP_ERR,
                           {"error": "out-of-range", "block": block,
                            "message": f"rows {rows!r} are not a range "
                                       f"of a block of shape {shape}"})
                return
            row_bytes = np.dtype(dtype).itemsize * math.prod(shape[1:])
            part = part[rows[0] * row_bytes:rows[1] * row_bytes]
            shape = (rows[1] - rows[0],) + tuple(shape[1:])
        with self._store_lock:
            self.stats.gets += 1
            self.stats.bytes_out += part.nbytes
            served = self._served.get(block)
            if served is not None:
                served[0] += 1
                served[1] += part.nbytes
        send_frame(sock, OP_DATA, {"block": block, "dtype": dtype,
                                   "shape": list(shape)}, part)

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

    No HELLO: every data-path connection (one per store per worker
    task) would pay the extra round trip.
    """

    def put(self, block: str, array: np.ndarray) -> None:
        arr = np.ascontiguousarray(array)
        self.request(OP_PUT, {"block": block, "dtype": str(arr.dtype),
                              "shape": list(arr.shape)},
                     memoryview(arr).cast("B"))

    def get(self, block: str,
            rows: tuple[int, int] | None = None) -> np.ndarray:
        """The block, or its rows ``[lo, hi)``, as a read-only array."""
        request = {"block": block}
        if rows is not None:
            request["rows"] = [int(rows[0]), int(rows[1])]
        _op, meta, payload = self.request(OP_GET, request)
        arr = np.frombuffer(payload, dtype=np.dtype(meta["dtype"]))
        arr.setflags(write=False)
        return arr.reshape(tuple(meta["shape"]))

    def list(self) -> dict[str, int]:
        _op, meta, _ = self.request(OP_LIST)
        return meta["blocks"]

    def free(self, block: str) -> tuple[int, int]:
        """Release ``block``; returns its ``(gets, bytes_out)``."""
        _op, meta, _ = self.request(OP_FREE, {"block": block})
        return int(meta["gets"]), int(meta["bytes_out"])


# -- worker-side fetch --------------------------------------------------------

def fetch_block_array(host: str, port: int, block: str, *,
                      rows: tuple[int, int] | None = None,
                      shape: tuple[int, ...] | None = None,
                      dtype: np.dtype | None = None,
                      memo: TaskFetches | None = None) -> np.ndarray:
    """GET ``block`` — or only its rows ``[lo, hi)`` — from the store at
    ``(host, port)``.

    Returns a read-only array (callers slice or copy — exactly what
    :func:`repro.runtime.transport.resolve_array_ref` does).  ``memo``
    is the caller's :class:`~repro.runtime.transport.TaskFetches`: one
    :class:`~repro.runtime.worker.WorkerTask` carries a ref per (atom,
    cube), so a task passes one memo, GETs each block or range once and
    reuses one connection per store.  Without a memo the GET dials and
    closes its own connection.  ``shape`` (the whole block's) and ``dtype`` are
    cross-checked against the server's metadata when given: a mismatch
    means the descriptor and the store disagree, which is a protocol bug
    worth failing loudly on.
    """
    if rows is not None:
        rows = (int(rows[0]), int(rows[1]))
    fetched = memo.arrays if memo is not None else {}
    arr = fetched.get((host, port, block, rows))
    if arr is not None:
        METRICS.counter("net.fetch_cache_hits").inc()
    else:
        with current_tracer().span("fetch_block", cat="net", block=block,
                                   store=f"{host}:{port}",
                                   rows=list(rows) if rows else None):
            if memo is None:
                with BlockStoreClient(host, port) as client:
                    arr = client.get(block, rows)
            else:
                client = memo.clients.get((host, port))
                if client is None:
                    client = memo.clients[(host, port)] = \
                        BlockStoreClient(host, port)
                arr = client.get(block, rows)
        METRICS.counter("net.fetched_blocks").inc()
        METRICS.counter("net.fetched_bytes").inc(arr.nbytes)
        if memo is not None:
            memo.arrays[(host, port, block, rows)] = arr
    if shape is not None:
        want = tuple(shape) if rows is None else \
            (rows[1] - rows[0],) + tuple(shape[1:])
        if tuple(arr.shape) != want:
            raise NetError(f"block {block!r}: descriptor shape {want} "
                           f"!= stored shape {tuple(arr.shape)}")
    if dtype is not None and arr.dtype != np.dtype(dtype):
        raise NetError(f"block {block!r}: descriptor dtype {dtype} "
                       f"!= stored dtype {arr.dtype}")
    return arr
