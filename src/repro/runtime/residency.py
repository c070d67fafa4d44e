"""Worker-resident join inputs: what a home process keeps between tasks.

In the paper's Merge HCube (Sec. V) a worker holds the tries it was
sent.  Here every ``processes`` slot has a *home* process
(:class:`repro.runtime.executor.ProcessExecutor`), so a cube routed to
worker ``w`` runs in the same process on every query, and that process
may keep what it resolved:

- :class:`ResidentCache` (worker side, one per home process) maps a
  *content key* to the resolved rows as a :class:`~repro.data.relation
  .Relation`; the index a kernel builds over them is memoized on that
  relation (:meth:`~repro.data.relation.Relation.trie` for ``wcoj``,
  :meth:`~repro.data.relation.Relation.key_groups` for ``binary``), so
  one byte-bounded, counted LRU holds both.  A key names rows by content —
  ``(Relation.digest, layout memo key, grouping, block id)``, minted by
  :meth:`~repro.distributed.hcube.HCubeRouting.content_keys` — so a hit
  is never stale and a miss is never wrong.
- :class:`ResidencyView` (coordinator side, one per executor) holds,
  per slot, the keys that slot's process reported after its last task.
  :func:`~repro.runtime.scheduler.iter_routed_tasks` mints a key the
  slot already holds as a header-only ``resident``
  :class:`~repro.runtime.transport.ArrayRef` and never publishes its
  source; any other keyed ref is published as usual and the worker
  caches what it resolves.

A resident ref whose key the process no longer holds (evicted, or
raced by a concurrent query's task on the same slot) fails its task
with ``failure="miss"`` before any join work, and
:func:`~repro.runtime.scheduler.run_epoch` re-mints that task with
published refs and runs it once more.

Resident inputs are process-private and die with the pool; staged shm
segments and tcp blocks still never outlive their epoch
(docs/data_plane.md).
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict

from ..data.relation import Relation
from ..obs.metrics import METRICS

__all__ = ["RESIDENT_BYTES", "ResidentCache", "ResidencyView",
           "next_report", "resident_cache"]

#: Bytes one home process keeps resident (rows plus their tries or key
#: groups).  A constant, sized from the per-slot entry bytes measured on
#: the benchmark workloads at two slots (docs/runtime.md): 1.7 MB
#: (``tri-skew``), 8.5 MB (``path-uniform``: rows plus the binary
#: kernel's key groups, one side a re-sorted copy), 5.4 MB
#: (``adj-cyclic``) and 3.0 MB for all eight ``service-mix`` cases.  A
#: traced pass lays the same data out a second way, which takes the
#: largest to ~11.6 MB; the budget is about three times that.
RESIDENT_BYTES = 32 << 20


class ResidentCache:
    """A home process's byte-bounded LRU of resolved join inputs.

    Entries are :class:`Relation` objects; their size is the rows plus
    the memoized index (:attr:`Relation.index_nbytes`), re-measured when
    a task that used them ends (:meth:`settle`), since a kernel builds
    the index after the entry was added.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self._entries: OrderedDict[str, Relation] = OrderedDict()
        self._sizes: dict[str, int] = {}
        self._lock = threading.Lock()
        self.bytes = 0

    def get(self, key: str) -> Relation | None:
        """The entry under ``key`` (now most recently used), or None."""
        with self._lock:
            rel = self._entries.get(key)
            if rel is not None:
                self._entries.move_to_end(key)
            return rel

    def put(self, key: str, rel: Relation) -> None:
        """Keep ``rel`` under ``key`` (sized at :meth:`settle`)."""
        with self._lock:
            if key not in self._entries:
                self._entries[key] = rel
                self._sizes[key] = 0

    def settle(self, keys) -> int:
        """Re-measure the entries of ``keys``, then evict least recently
        used entries until the cache fits its budget; returns how many
        were evicted."""
        evicted = 0
        with self._lock:
            for key in keys:
                rel = self._entries.get(key)
                if rel is not None:
                    size = rel.nbytes + rel.index_nbytes
                    self.bytes += size - self._sizes[key]
                    self._sizes[key] = size
            while self.bytes > self.budget and self._entries:
                key, _ = self._entries.popitem(last=False)
                self.bytes -= self._sizes.pop(key)
                evicted += 1
        return evicted

    def keys(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(self._entries)


_CACHE: ResidentCache | None = None
#: Keyed tasks this process has run: orders its residency reports.
_TASKS = 0


def resident_cache() -> ResidentCache:
    """This process's cache, created by its first keyed task."""
    global _CACHE
    if _CACHE is None:
        _CACHE = ResidentCache(RESIDENT_BYTES)
    return _CACHE


def next_report() -> tuple[int, int]:
    """``(pid, sequence)`` stamping this process's next report."""
    global _TASKS
    _TASKS += 1
    return os.getpid(), _TASKS


class ResidencyView:
    """What the coordinator knows each home process holds.

    Per slot: the keys, pid, report sequence and resident bytes of the
    newest report (a report older than the held one — same pid, lower
    sequence — is ignored).  :meth:`clear` forgets everything; the
    executor calls it whenever it replaces its processes.  Thread-safe:
    concurrent queries report and read through one view.  The gauge
    ``runtime.resident_bytes`` is the sum over slots.
    """

    def __init__(self, slots: int):
        self.slots = slots
        self._lock = threading.Lock()
        self._held: list[frozenset[str]] = [frozenset()] * slots
        self._stamp: list[tuple[int, int]] = [(0, 0)] * slots
        self._bytes: list[int] = [0] * slots

    def held(self, worker: int) -> frozenset[str]:
        """Keys the home process of ``worker`` reported holding."""
        with self._lock:
            return self._held[worker % self.slots]

    @property
    def pids(self) -> tuple[int, ...]:
        """The last reporting pid per slot (0: none yet)."""
        with self._lock:
            return tuple(pid for pid, _ in self._stamp)

    def report(self, slot: int, result) -> None:
        """Take a task result's residency report for ``slot``."""
        keys = getattr(result, "resident_keys", None)
        if keys is None:
            return
        stamp = tuple(result.resident_stamp)
        with self._lock:
            held_pid, held_seq = self._stamp[slot]
            if stamp[0] == held_pid and stamp[1] <= held_seq:
                return
            self._stamp[slot] = stamp
            self._held[slot] = frozenset(keys)
            self._bytes[slot] = int(result.resident_bytes)
            total = sum(self._bytes)
        METRICS.gauge("runtime.resident_bytes").set(total)

    def clear(self) -> None:
        with self._lock:
            self._held = [frozenset()] * self.slots
            self._stamp = [(0, 0)] * self.slots
            self._bytes = [0] * self.slots
        METRICS.gauge("runtime.resident_bytes").set(0)
