"""Worker-resident join inputs: what a home process keeps between tasks.

In the paper's Merge HCube (Sec. V) a worker holds the tries it was
sent.  Here every ``processes`` slot has a *home* process
(:class:`repro.runtime.executor.ProcessExecutor`), so a cube routed to
worker ``w`` runs in the same process on every query, and that process
may keep what it resolved:

- :func:`resident_cache` (worker side, one per home process) maps a
  *content key* to the resolved rows as a :class:`~repro.data.relation
  .Relation`; the index a kernel builds over them — the relation's
  memoized :meth:`~repro.data.relation.Relation.trie`, which ``wcoj``
  and ``binary`` alike read — stays with it, so one byte-bounded LRU
  (a :class:`~repro.core.optimizer.PlanCache`, the library's one)
  holds both.  A key names rows by content —
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

from ..core.optimizer import PlanCache
from ..obs.metrics import METRICS

__all__ = ["RESIDENT_BYTES", "ResidencyView", "next_report",
           "resident_cache"]

#: Bytes one home process keeps resident (rows plus their tries).  A
#: constant, sized from the per-slot entry bytes measured after a warm
#: window on the benchmark workloads at two slots (docs/runtime.md):
#: 4.8-5.8 MB (``tri-skew``: rows plus tries whose dense levels keep a
#: rank bitmap), 16.3-16.4 MB (``path-uniform``: rows plus both sides'
#: binary-step tries, one side a re-sorted copy), 9.8-10.3 MB
#: (``adj-cyclic``) and 5.6-6.2 MB for all eight ``service-mix`` cases.
#: A traced pass lays the same data out a second way, which takes
#: ``path-uniform`` to 23.9 MB (``adj-cyclic``: 23.3 MB); the budget is
#: 2.8 times that, and neither evicts.
RESIDENT_BYTES = 64 << 20


_CACHE: PlanCache | None = None
#: Keyed tasks this process has run: orders its residency reports.
_TASKS = 0


def resident_cache() -> PlanCache:
    """This process's cache, created by its first keyed task.

    Bounded by bytes only.  A relation is put with size 0 when a task
    resolves it, since its kernel builds the index afterwards; the task
    re-puts each entry it used with its rows plus
    :attr:`~repro.data.relation.Relation.index_nbytes` when it ends,
    and that put evicts to the budget.  Its hits, misses and evictions
    are counted by the task results (``runtime.resident_*``), not by the
    cache.
    """
    global _CACHE
    if _CACHE is None:
        _CACHE = PlanCache(capacity=None, counters=None,
                           max_bytes=RESIDENT_BYTES)
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
