"""Pluggable data-plane transports: how payload arrays reach workers.

The scheduler used to pickle fully materialized partition matrices into
every :class:`repro.runtime.worker.WorkerTask`.  That makes the
coordinator both partition *and* serialize all data serially — the exact
copy-heavy data plane the HCube design is meant to avoid.  A
:class:`Transport` decouples the two concerns:

- ``publish(key, array)`` stages a *source* array once, coordinator-side;
- ``make_ref(key, rows)`` mints a small picklable :class:`ArrayRef`
  descriptor selecting rows of the published array — a contiguous
  range (a ``slice``: what a block-grouped source's cube needs) or row
  indices;
- :func:`resolve_array_ref` (top-level, spawn-safe) turns a descriptor
  back into a concrete array on the worker.

A ref may also carry a *content key* (``make_ref(..., key=)``), and a
key the worker's home process already holds is minted as a header-only
``resident`` ref instead (:meth:`Transport.resident_ref`), whose source
is never published — see :mod:`repro.runtime.residency`.

Three backends, looked up through :data:`TRANSPORTS` (a
:class:`repro.registry.Registry`):

- :class:`PickleTransport` — descriptors carry the sliced partition
  inline; semantically identical to the historical behaviour (arrays are
  pickled across the process boundary).
- :class:`SharedMemoryTransport` — each source array is copied once into
  a ``multiprocessing.shared_memory`` block; descriptors carry only
  ``(block name, dtype, shape, row range | row indices)``, so large
  matrices cross the process boundary zero-copy and workers copy their
  own partitions locally.  Partitioning work moves off the coordinator.
- ``tcp`` (:class:`repro.net.transport.TcpTransport`, registered lazily
  so importing this module never opens a socket) — sources are PUT into
  a TCP block store and descriptors carry ``(host, port, block_id,
  dtype, shape, row range | row indices)``, so *remote* workers fetch
  their own ranges (or whole blocks to slice).  The multi-machine data
  plane; see docs/net.md.

Lifetime rules (see docs/data_plane.md): the coordinator owns every
segment it publishes; ``teardown()`` closes and unlinks all of them and
is idempotent.  Executors call it from ``close()`` so segments are
reclaimed even when a worker task crashes mid-run.  Workers must *copy*
what they need out of a segment before returning (``resolve_array_ref``
does) and never unlink.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from ..errors import ConfigError
from ..knobs import env
from ..obs.metrics import METRICS
from ..obs.tracing import current_tracer
from ..registry import Registry

__all__ = [
    "REF_HEADER_BYTES",
    "ArrayRef",
    "TaskFetches",
    "resolve_array_ref",
    "TransportStats",
    "Transport",
    "PickleTransport",
    "SharedMemoryTransport",
    "TRANSPORTS",
    "default_transport_name",
    "create_transport",
]

#: Accounted fixed size of one descriptor (kind, block name, dtype,
#: shape, row range) — the part of a ref that is not the payload.
REF_HEADER_BYTES = 64


@dataclass(frozen=True)
class ArrayRef:
    """A picklable reference to (a row subset of) a published array.

    ``kind == "inline"`` carries the partition in ``data`` (the pickle
    data plane); ``kind == "shm"`` carries only the segment name plus the
    row selection, and the worker copies it out of the shared block;
    ``kind == "tcp"`` additionally carries the block store's ``(host,
    port)`` so workers on *other machines* fetch it over a socket;
    ``kind == "resident"`` carries only ``key`` and the selection's
    ``shape``: the worker's home process holds those rows already.  Any
    kind may carry ``key``, the content name of the rows it selects, so
    the worker keeps what it resolves.  The
    selection ``rows`` is a ``slice`` — a row range ``[lo, hi)``,
    header-only — or row indices; ``None`` means the whole array.  (A
    range rides in ``rows`` so that no resolver reads it as the whole
    array: one built before ranges fails on the slice instead.)
    """

    kind: str                    # "inline" | "shm" | "tcp" | "resident"
    shape: tuple[int, ...]             # shape of the *source* array
    dtype: str
    data: np.ndarray | None = None     # inline payload (already sliced)
    block: str | None = None           # segment name / block-store id
    rows: slice | np.ndarray | None = None  # row range or indices
    host: str | None = None            # block store address (tcp only)
    port: int | None = None
    key: str | None = None             # content key (home processes)

    @property
    def num_rows(self) -> int:
        if isinstance(self.rows, slice):
            return self.rows.stop - self.rows.start
        if self.rows is not None:
            return int(self.rows.shape[0])
        if self.data is not None:
            return int(self.data.shape[0])
        return int(self.shape[0]) if self.shape else 0

    @property
    def payload_bytes(self) -> int:
        """Bytes this descriptor adds to a pickled task payload."""
        size = REF_HEADER_BYTES
        if self.data is not None:
            size += int(self.data.nbytes)
        if isinstance(self.rows, np.ndarray):
            size += int(self.rows.nbytes)
        return size


class TaskFetches:
    """What one worker task fetched from tcp block stores.

    ``arrays`` maps ``(host, port, block, row range | None)`` to the
    array fetched, so each block or range is fetched once per task;
    ``clients`` holds one open connection per store ``(host, port)``.
    Block ids are single-use (each epoch publishes fresh ones), so
    nothing here outlives its task: the worker calls :meth:`close` when
    the task ends.  Plain data, so this module never imports
    :mod:`repro.net`.
    """

    __slots__ = ("arrays", "clients")

    def __init__(self):
        self.arrays: dict[tuple, np.ndarray] = {}
        self.clients: dict[tuple[str, int], object] = {}

    def close(self) -> None:
        """Close every connection this task opened."""
        clients, self.clients = self.clients, {}
        for client in clients.values():
            client.close()


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to a named segment without taking tracker ownership.

    On Python >= 3.13 ``track=False`` skips resource-tracker
    registration entirely.  On older versions attaching re-registers the
    name with the resource tracker; because fork/spawn pool workers
    share the coordinator's tracker process (the fd travels in the spawn
    preparation data) and the tracker keeps a *set* per resource type,
    that re-registration is an idempotent no-op and the coordinator's
    ``unlink()`` at teardown removes the single entry — so no "leaked
    shared_memory" warnings and no premature unlinks.  Only the
    publishing side ever unlinks.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track flag; see docstring
        return shared_memory.SharedMemory(name=name)


def resolve_array_ref(ref, fetches: TaskFetches | None = None
                      ) -> np.ndarray:
    """Materialize a descriptor into a concrete array (worker-side).

    Top-level and self-contained on purpose (spawn-safe).  Accepts plain
    ndarrays unchanged so legacy payloads keep working.  The returned
    array never aliases shared memory — workers may outlive segments.
    ``fetches`` is the caller's :class:`TaskFetches` (one task keeps
    one: each tcp block or range is fetched once per task, over one
    connection per store).
    """
    if isinstance(ref, np.ndarray):
        return ref
    if ref.kind == "resident":
        raise ConfigError(
            f"resident ref {ref.key!r} resolves only in a home process's "
            f"cache (repro.runtime.residency)")
    if ref.kind == "inline":
        arr = ref.data
        if arr is None:
            arr = np.empty(ref.shape, dtype=np.dtype(ref.dtype))
        if ref.rows is not None:
            arr = arr[ref.rows]
        return arr
    if ref.kind == "tcp":
        from ..net.blockstore import fetch_block_array

        with current_tracer().span("resolve_ref", cat="transport",
                                   kind="tcp", block=ref.block,
                                   rows=ref.num_rows):
            ranged = isinstance(ref.rows, slice)
            arr = fetch_block_array(
                ref.host, ref.port, ref.block,
                rows=(ref.rows.start, ref.rows.stop) if ranged else None,
                shape=ref.shape, dtype=np.dtype(ref.dtype), memo=fetches)
            # A fetched range arrives as this process's own read-only
            # buffer; a whole block may be memoized, so its selection is
            # copied (fancy indexing copies, .copy() the whole array).
            if ranged:
                return arr
            return arr[ref.rows] if ref.rows is not None else arr.copy()
    if ref.kind != "shm":
        raise ConfigError(f"unknown ArrayRef kind {ref.kind!r}")
    with current_tracer().span("resolve_ref", cat="transport",
                               kind="shm", block=ref.block,
                               rows=ref.num_rows):
        seg = _attach_segment(ref.block)
        try:
            view = np.ndarray(ref.shape, dtype=np.dtype(ref.dtype),
                              buffer=seg.buf)
            rows = slice(None) if ref.rows is None else ref.rows
            # Fancy indexing copies; a slice is a view, so copy it.
            arr = view[rows]
            if isinstance(rows, slice):
                arr = arr.copy()
        finally:
            seg.close()
    return arr


@dataclass
class TransportStats:
    """What one transport epoch moved, from the coordinator's view.

    ``published_bytes`` are bytes staged into shared/remote blocks (one
    memcpy per source array; shm and tcp only); ``shipped_bytes`` are
    bytes that enter pickled task payloads — full partitions under
    pickle, descriptor bytes (a header, plus row indices for an index
    selection) under shm/tcp.  The
    acceptance check for the descriptor-only planes is
    ``shipped_bytes(shm|tcp) < shipped_bytes(pickle)`` on the same run.

    ``fetched_blocks``/``fetched_bytes`` count what workers pulled back
    out of the staging area (tcp only: the block store's GET counters,
    collected at teardown); ``freed_blocks`` counts blocks reclaimed at
    teardown (shm segments unlinked, tcp blocks freed).
    """

    published_blocks: int = 0
    published_bytes: int = 0
    shipped_refs: int = 0
    shipped_bytes: int = 0
    fetched_blocks: int = 0
    fetched_bytes: int = 0
    freed_blocks: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "published_blocks": self.published_blocks,
            "published_bytes": self.published_bytes,
            "shipped_refs": self.shipped_refs,
            "shipped_bytes": self.shipped_bytes,
            "fetched_blocks": self.fetched_blocks,
            "fetched_bytes": self.fetched_bytes,
            "freed_blocks": self.freed_blocks,
        }


class Transport(ABC):
    """Stages source arrays and mints worker-facing descriptors.

    Thread-safety contract (pipelined epochs): ``publish``, ``make_ref``
    and ``teardown`` may be called from concurrent coordinator threads —
    the parallel routing pool publishes sources while the streaming
    scheduler mints descriptors.  Implementations serialize staging and
    stats updates on :attr:`_lock` (a re-entrant lock, so a locked
    ``publish`` may call locked helpers).  Workers only *resolve* refs
    (read-only) and need no lock.
    """

    name: str = "abstract"

    def __init__(self):
        self.stats = TransportStats()
        #: Final counters of the most recent non-empty epoch, frozen by
        #: ``teardown()``.  Engines read this *after* releasing the
        #: epoch's resources, so per-run ``data_plane`` reports include
        #: teardown-time counters (blocks freed, bytes workers fetched).
        self.last_epoch = TransportStats()
        #: Serializes publish/make_ref/teardown across coordinator
        #: threads (see class docstring).
        self._lock = threading.RLock()
        #: Optional per-query epoch id (stamped by
        #: :class:`repro.runtime.executor.ExecutorView`).  The scheduler
        #: prefixes publish keys with it, so queries running concurrently
        #: against one shared staging area never collide on key names.
        self.epoch: str | None = None
        #: The executor's :class:`~repro.runtime.residency.ResidencyView`
        #: (stamped by a ``processes`` executor and its views; None
        #: elsewhere): what each home process already holds.
        self.residency = None

    def setup(self) -> None:
        """Acquire transport resources (idempotent; optional)."""

    @abstractmethod
    def publish(self, key: str, array: np.ndarray) -> str:
        """Stage ``array`` under ``key`` (idempotent per key)."""

    @abstractmethod
    def make_ref(self, key: str, rows: slice | np.ndarray | None = None,
                 content: str | None = None) -> ArrayRef:
        """A descriptor for ``rows`` of the array published under ``key``:
        a ``slice`` row range, row indices, or None for all rows.
        ``content`` is the selection's content key, carried as
        :attr:`ArrayRef.key`."""

    def resident_ref(self, content: str, shape: tuple[int, ...],
                     dtype: str) -> ArrayRef:
        """A header-only ref to rows the worker's home process holds
        under ``content`` (``shape``: the selection's)."""
        return self._record_shipped(ArrayRef(
            kind="resident", shape=tuple(shape), dtype=dtype, key=content))

    def teardown(self) -> None:
        """Release everything published this epoch (idempotent).

        Freezes the epoch's counters — possibly all zero, for an epoch
        that never published — into :attr:`last_epoch` and starts a
        fresh :attr:`stats` epoch.  Engines read :attr:`last_epoch`
        immediately after their own teardown, so per-run ``data_plane``
        reports include teardown-time counters.

        Also folds the frozen epoch into the global ``transport.*``
        metrics counters (see docs/observability.md): subclasses finish
        their own stat updates (segments freed, fetch counters
        collected) *before* delegating here, so the metrics see final
        numbers.  Repeat teardowns freeze an all-zero epoch and record
        nothing.
        """
        with self._lock:
            self.last_epoch = self.stats
            self.stats = TransportStats()
            for stat_name, value in self.last_epoch.as_dict().items():
                if value:
                    METRICS.counter(f"transport.{stat_name}").inc(value)

    def __enter__(self) -> "Transport":
        self.setup()
        return self

    def __exit__(self, *exc) -> None:
        self.teardown()

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

    # -- shared helpers --------------------------------------------------------

    def _record_shipped(self, ref: ArrayRef) -> ArrayRef:
        with self._lock:
            self.stats.shipped_refs += 1
            self.stats.shipped_bytes += ref.payload_bytes
        return ref

    @staticmethod
    def _selection(rows: slice | np.ndarray | None
                   ) -> slice | np.ndarray | None:
        """A :meth:`make_ref` selection as a ref carries it: a ``slice``
        of plain ints, contiguous int64 row indices, or None (all rows)."""
        if rows is None:
            return None
        if isinstance(rows, slice):
            return slice(int(rows.start), int(rows.stop))
        return np.ascontiguousarray(np.asarray(rows, dtype=np.int64))

    def _staged_ref(self, kind: str, block: str | None,
                    shape: tuple[int, ...], dtype: str,
                    rows: slice | np.ndarray | None,
                    content: str | None = None, **where) -> ArrayRef:
        """A descriptor into a staged block (``None``: an empty array),
        inline when it selects no row; shm and tcp mint through it."""
        rows = self._selection(rows)
        selected = (None if rows is None
                    else rows.stop - rows.start if isinstance(rows, slice)
                    else rows.shape[0])
        if block is None or selected == 0:
            empty_shape = shape if selected is None else (0,) + shape[1:]
            ref = ArrayRef(kind="inline", shape=empty_shape, dtype=dtype,
                           data=np.empty(empty_shape, dtype=np.dtype(dtype)),
                           key=content)
        else:
            ref = ArrayRef(kind=kind, shape=shape, dtype=dtype, block=block,
                           rows=rows, key=content, **where)
        return self._record_shipped(ref)


class PickleTransport(Transport):
    """The historical data plane: partitions travel inside the pickle."""

    name = "pickle"

    def __init__(self):
        super().__init__()
        self._published: dict[str, np.ndarray] = {}

    def publish(self, key: str, array: np.ndarray) -> str:
        with self._lock:
            if key not in self._published:
                with current_tracer().span("publish", cat="transport",
                                           transport=self.name, key=key,
                                           bytes=int(array.nbytes)):
                    self._published[key] = np.ascontiguousarray(array)
        return key

    def make_ref(self, key: str, rows: slice | np.ndarray | None = None,
                 content: str | None = None) -> ArrayRef:
        with self._lock:
            src = self._published[key]
        rows = self._selection(rows)
        if isinstance(rows, slice):
            part = src[rows]                # contiguous: pickles the range
        else:
            part = src if rows is None else np.ascontiguousarray(src[rows])
        ref = ArrayRef(kind="inline", shape=tuple(part.shape),
                       dtype=str(part.dtype), data=part, key=content)
        return self._record_shipped(ref)

    def teardown(self) -> None:
        with self._lock:
            self._published.clear()
            super().teardown()


class SharedMemoryTransport(Transport):
    """Zero-copy plane: sources live in shared memory, refs carry rows."""

    name = "shm"

    def __init__(self, ledger: dict[str, None] | None = None):
        super().__init__()
        # key -> (segment name | None for empty arrays, shape, dtype)
        self._meta: dict[str, tuple[str | None, tuple[int, ...], str]] = {}
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        #: Names of segments staged and not yet unlinked.  A
        #: ClusterContext hands all its views one ledger, so a fresh
        #: view still reports what an earlier run left behind.
        self._ledger = {} if ledger is None else ledger

    @property
    def active_segments(self) -> tuple[str, ...]:
        """Names of segments staged through this ledger and not yet
        unlinked (empty once every transport sharing it tore down)."""
        return tuple(self._ledger.copy())

    def publish(self, key: str, array: np.ndarray) -> str:
        with self._lock:
            if key in self._meta:
                return key
            arr = np.ascontiguousarray(array)
            if arr.nbytes == 0:
                # SharedMemory cannot hold zero bytes; empty arrays ship
                # as (tiny) inline refs instead.
                self._meta[key] = (None, tuple(arr.shape), str(arr.dtype))
                return key
            with current_tracer().span("publish", cat="transport",
                                       transport=self.name, key=key,
                                       bytes=int(arr.nbytes)):
                seg = shared_memory.SharedMemory(create=True,
                                                 size=arr.nbytes)
                np.ndarray(arr.shape, dtype=arr.dtype,
                           buffer=seg.buf)[...] = arr
            self._segments[seg.name] = seg
            self._ledger[seg.name] = None
            self._meta[key] = (seg.name, tuple(arr.shape), str(arr.dtype))
            self.stats.published_blocks += 1
            self.stats.published_bytes += int(arr.nbytes)
        return key

    def make_ref(self, key: str, rows: slice | np.ndarray | None = None,
                 content: str | None = None) -> ArrayRef:
        with self._lock:
            block, shape, dtype = self._meta[key]
        return self._staged_ref("shm", block, shape, dtype, rows, content)

    def teardown(self) -> None:
        with self._lock:
            for name, seg in self._segments.items():
                try:
                    seg.close()
                    seg.unlink()
                    self.stats.freed_blocks += 1
                except FileNotFoundError:  # pragma: no cover - gone
                    pass
                self._ledger.pop(name, None)
            self._segments.clear()
            self._meta.clear()
            super().teardown()


TRANSPORTS = Registry("transport")


def default_transport_name(backend: str | None = None) -> str:
    """``REPRO_TRANSPORT``; unset, ``tcp`` for ``remote``, else pickle."""
    return env("REPRO_TRANSPORT") or ("tcp" if backend == "remote" else "pickle")


def create_transport(name: "str | Transport | None" = None) -> Transport:
    """Instantiate a transport by name (``pickle``/``shm``/``tcp``).

    ``None`` resolves through :func:`default_transport_name`; an existing
    :class:`Transport` instance passes through unchanged.  Unknown names
    — whether from an argument or from ``REPRO_TRANSPORT`` — raise
    :class:`ConfigError` naming the registered transports.
    """
    if isinstance(name, Transport):
        return name
    if name is None:
        name = default_transport_name()
    return TRANSPORTS.create(name)


TRANSPORTS.register("pickle", PickleTransport,
                    summary="partitions travel inside pickled payloads")
TRANSPORTS.register("shm", SharedMemoryTransport,
                    summary="zero-copy shared-memory blocks, same host")
TRANSPORTS.register("tcp", lazy="repro.net.transport:TcpTransport",
                    summary="TCP block store for multi-machine clusters")
