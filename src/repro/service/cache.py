"""The query service's result cache.

:class:`ResultCache` holds successful counts keyed on the query's
datalog rendering (``repr``, deterministic for a given query), the
engine/knobs, and :meth:`repro.data.database.Database.fingerprint` —
cached entries stay valid exactly as long as the content hash does, and
:meth:`ResultCache.invalidate` drops them explicitly when a catalog is
known to have changed.

Cached *results* are rebuilt on the way out: a warm hit returns a fresh
:class:`~repro.engines.base.EngineResult` whose ``data_plane`` is all
zeros with ``transport="cache"`` — the honest report, since a warm run
publishes and ships nothing.

The cache is thread-safe (one lock; entries are immutable) and LRU,
bounded by estimated *bytes* (``REPRO_RESULT_CACHE_BYTES``).  Plans are
not cached here: ADJ's plans live in the process-wide
:data:`repro.core.optimizer.PLAN_CACHE`, keyed on content, which every
run shares.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from ..data.database import Database
from ..distributed.metrics import CostBreakdown
from ..engines.base import EngineOptions, EngineResult
from ..obs.metrics import METRICS
from ..query.query import JoinQuery
from ..runtime.transport import TransportStats

__all__ = ["ResultCache", "result_key", "cached_result"]


def result_key(query: JoinQuery, db: Database, engine: str,
               options: EngineOptions | None = None) -> tuple:
    """Result-cache key: query text + engine + knobs + content hash.

    Includes every :class:`EngineOptions` field that can change the
    *count* or the failure mode (budgets, order, kernel...), so a
    downgraded tenant's budget-clamped run never poisons the cache for
    a full-budget tenant.
    """
    knobs = None
    if options is not None:
        knobs = (options.samples, options.seed, options.work_budget,
                 options.budget_tuples, options.budget_bindings,
                 options.order, options.kernel)
    return (repr(query), engine, knobs, db.fingerprint())


def cached_result(entry: "_ResultEntry", query_id: str | None = None
                  ) -> EngineResult:
    """Materialize a warm hit: same count, zeroed data plane."""
    extra: dict = {
        "result_cache": "hit",
        "data_plane": dict(TransportStats().as_dict(), transport="cache"),
    }
    if query_id is not None:
        extra["query_id"] = query_id
    return EngineResult(engine=entry.engine, query=entry.query,
                        count=entry.count, breakdown=entry.breakdown,
                        shuffled_tuples=0, rounds=entry.rounds,
                        extra=extra)


@dataclass(frozen=True)
class _ResultEntry:
    engine: str
    query: str
    count: int
    rounds: int
    breakdown: CostBreakdown
    nbytes: int


class ResultCache:
    """LRU cache of successful counts, bounded by estimated bytes.

    Only *successful* results are cached — failures (budget trips,
    crashes) must re-execute, both because they are tenant-specific and
    because a transient crash should not become sticky.
    """

    def __init__(self, max_bytes: int = 64 << 20):
        self.max_bytes = max(0, int(max_bytes))
        self._entries: "OrderedDict[tuple, _ResultEntry]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()

    @staticmethod
    def _estimate_bytes(key: tuple, result: EngineResult) -> int:
        # Counts-only results are small; a conservative fixed floor
        # plus the key text keeps the accounting honest without
        # serializing anything.
        return 512 + len(str(key))

    def get(self, key: tuple, query_id: str | None = None
            ) -> EngineResult | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                METRICS.counter("service.result_cache_misses").inc()
                return None
            self._entries.move_to_end(key)
            METRICS.counter("service.result_cache_hits").inc()
        return cached_result(entry, query_id=query_id)

    def put(self, key: tuple, result: EngineResult) -> None:
        if not result.ok or self.max_bytes <= 0:
            return
        entry = _ResultEntry(engine=result.engine, query=result.query,
                             count=result.count, rounds=result.rounds,
                             breakdown=result.breakdown,
                             nbytes=self._estimate_bytes(key, result))
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old.nbytes
            self._entries[key] = entry
            self._bytes += entry.nbytes
            while self._bytes > self.max_bytes and self._entries:
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted.nbytes
                METRICS.counter("service.result_cache_evictions").inc()
            METRICS.gauge("service.result_cache_bytes").set(self._bytes)

    def invalidate(self, fingerprint: str | None = None) -> int:
        """Drop entries for one database fingerprint (or all); returns
        how many were dropped.  The explicit-invalidation path for
        callers that mutate a catalog in place."""
        with self._lock:
            if fingerprint is None:
                dropped = len(self._entries)
                self._entries.clear()
                self._bytes = 0
            else:
                stale = [k for k in self._entries if k[-1] == fingerprint]
                dropped = len(stale)
                for k in stale:
                    self._bytes -= self._entries.pop(k).nbytes
            METRICS.gauge("service.result_cache_bytes").set(self._bytes)
        return dropped

    def __len__(self) -> int:
        return len(self._entries)
