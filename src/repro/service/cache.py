"""The query service's result cache.

:class:`ResultCache` holds successful counts keyed on
:func:`result_key`: the data part every cache shares
(:func:`repro.core.optimizer.data_key` — the query text and the
``(name, digest)`` of each relation it reads) plus the engine and its
knobs.  A relation's digest is its content, so an entry can never be
stale: a changed relation is a new key, and a relation the query does
not read is no part of it.  :meth:`ResultCache.invalidate` frees the
entries that read a catalog's relations.

Cached *results* are rebuilt on the way out: a warm hit returns a fresh
:class:`~repro.engines.base.EngineResult` whose ``data_plane`` is all
zeros with ``transport="cache"`` — the honest report, since a warm run
publishes and ships nothing.

Entries live in a :class:`~repro.core.optimizer.PlanCache` bounded by
estimated *bytes* (``REPRO_RESULT_CACHE_BYTES``), counted under
``service.result_cache_*``.
"""

from __future__ import annotations

import dataclasses

from ..core.optimizer import PlanCache, data_key
from ..data.database import Database
from ..engines.base import EngineOptions, EngineResult
from ..query.query import JoinQuery
from ..runtime.transport import TransportStats

__all__ = ["ResultCache", "result_key"]


def result_key(query: JoinQuery, db: Database, engine: str,
               options: EngineOptions | None = None) -> tuple:
    """Result-cache key: :func:`data_key` + engine + knobs.

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
    return (data_key(query, db), engine, knobs)


class ResultCache:
    """Successful counts, least recently used first out past
    ``max_bytes``.

    Only *successful* results are cached — failures (budget trips,
    crashes) must re-execute, both because they are tenant-specific and
    because a transient crash should not become sticky.
    """

    def __init__(self, max_bytes: int = 64 << 20):
        self._lru = PlanCache(capacity=None, counters="service.result_cache",
                              max_bytes=max_bytes)

    def get(self, key: tuple, query_id: str | None = None
            ) -> EngineResult | None:
        """A fresh copy of the cached result: same count, zeroed data
        plane."""
        entry = self._lru.get(key)
        if entry is None:
            return None
        extra: dict = {
            "result_cache": "hit",
            "data_plane": dict(TransportStats().as_dict(),
                               transport="cache"),
        }
        if query_id is not None:
            extra["query_id"] = query_id
        return dataclasses.replace(entry, extra=extra)

    def put(self, key: tuple, result: EngineResult) -> None:
        if result.ok:
            # Counts-only results are small; a fixed floor plus the key
            # text keeps the accounting honest without serializing.
            self._lru.put(key, dataclasses.replace(
                result, shuffled_tuples=0, extra={}), 512 + len(str(key)))

    def invalidate(self, db: Database | None = None) -> int:
        """Drop the entries that read any relation of ``db`` (all of
        them for None); returns how many were dropped."""
        if db is None:
            return self._lru.clear()
        read = {(rel.name, rel.digest) for rel in db}
        return self._lru.clear(lambda key: not read.isdisjoint(key[0][1]))

    def __len__(self) -> int:
        return len(self._lru)
