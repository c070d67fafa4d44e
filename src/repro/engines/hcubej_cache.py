"""HCubeJ + Cache: one-round join with CacheTrieJoin-style caching [28].

Identical to HCubeJ except each cube's Leapfrog memoizes intersection
results in an LRU cache.  The cache capacity is whatever memory the HCube
shuffle left on the worker — the paper's central observation about this
baseline: on small datasets (AS) there is plenty left and caching rivals
ADJ; on LJ/OK the shuffle consumes the budget and caching stops helping.
"""

from __future__ import annotations

from typing import Callable

from ..distributed.cluster import Cluster
from .hcubej import HCubeJ
from .one_round import OneRoundOutcome

__all__ = ["HCubeJCache"]

#: Cache sizing when the cluster has no explicit memory budget: a
#: multiple of the worker's local data (abundant-memory assumption).
_DEFAULT_CAPACITY_FACTOR = 4


class HCubeJCache(HCubeJ):
    """HCubeJ with a bounded per-cube intersection cache.

    Caches are worker-local: the coordinator only computes a *capacity*
    per worker (from the memory the shuffle left), and each worker — on
    any runtime backend — builds its own per-cube cache.  Hit/miss
    totals are deterministic and identical across backends.
    """

    name = "HCubeJ+Cache"
    hcube_impl = "push"
    # options_map inherited from HCubeJ (work_budget, order, kernel).
    # Non-wcoj kernels have no intersection cache; the capacity is
    # computed but ignored on those paths.

    def _cache_capacity(self, cluster: Cluster) -> Callable[[int], int]:
        budget = cluster.memory_tuples_per_worker

        def cache_capacity(worker_load: int) -> int:
            if budget is None:
                return worker_load * _DEFAULT_CAPACITY_FACTOR
            # Values of leftover memory after the shuffle (>= 0).
            return max(0, int(budget) - worker_load)

        return cache_capacity

    def _extra(self, outcome: OneRoundOutcome) -> dict:
        return dict(super()._extra(outcome),
                    cache_hits=outcome.cache_hits,
                    cache_misses=outcome.cache_misses)
