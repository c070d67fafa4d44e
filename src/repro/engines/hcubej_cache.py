"""HCubeJ + Cache: one-round join with CacheTrieJoin-style caching [28].

Identical to HCubeJ except each cube's Leapfrog memoizes intersection
results in an LRU cache.  The cache capacity is whatever memory the HCube
shuffle left on the worker — the paper's central observation about this
baseline: on small datasets (AS) there is plenty left and caching rivals
ADJ; on LJ/OK the shuffle consumes the budget and caching stops helping.
"""

from __future__ import annotations

from ..data.database import Database
from ..distributed.cluster import Cluster
from ..query.query import JoinQuery
from ..runtime.executor import Executor
from .base import EngineResult, attach_degree_order
from .hcubej import HCubeJ
from .one_round import one_round_execute

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

    def run(self, query: JoinQuery, db: Database, cluster: Cluster,
            executor: Executor | None = None) -> EngineResult:
        ledger = cluster.new_ledger()
        self._charge_optimization(query, cluster, ledger)
        order = self.order or attach_degree_order(query, db)
        budget = cluster.memory_tuples_per_worker

        def cache_capacity(worker_load: int) -> int:
            if budget is None:
                return worker_load * _DEFAULT_CAPACITY_FACTOR
            # Values of leftover memory after the shuffle (>= 0).
            return max(0, int(budget) - worker_load)

        outcome = one_round_execute(
            query, db, cluster, order, ledger, impl=self.hcube_impl,
            cache_capacity=cache_capacity, work_budget=self.work_budget,
            executor=executor, kernel=self.kernel)
        extra = {
            "order": order,
            "level_tuples": outcome.level_tuples,
            "leapfrog_work": outcome.leapfrog_work,
            "cache_hits": outcome.cache_hits,
            "cache_misses": outcome.cache_misses,
            "kernel": outcome.kernel,
            "kernel_reason": outcome.kernel_reason,
            "telemetry": outcome.telemetry,
            "data_plane": outcome.data_plane,
        }
        return EngineResult(
            engine=self.name,
            query=query.name,
            count=outcome.count,
            breakdown=ledger.breakdown(),
            shuffled_tuples=outcome.shuffled_tuples,
            rounds=1,
            extra=extra,
        )
