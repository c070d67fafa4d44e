"""HCubeJ: the communication-first one-round baseline (Chu et al. [11]).

Shares are optimized for communication alone, data is shuffled with the
original Push implementation, and every cube runs plain Leapfrog under an
attribute order picked from the *full* order space by the degree
heuristic ('All-Selected' in Fig. 8).  No pre-computation ever happens —
this is exactly the strategy the paper improves on.
"""

from __future__ import annotations

from typing import Callable

from ..data.database import Database
from ..distributed.cluster import Cluster
from ..distributed.metrics import CostLedger, Work
from ..distributed.partitioner import enumerate_share_vectors
from ..query.query import JoinQuery
from ..runtime.executor import Executor
from .base import EngineResult, attach_degree_order
from .one_round import OneRoundOutcome, one_round_execute

__all__ = ["HCubeJ"]


class HCubeJ:
    """One-round HCube + Leapfrog, communication-first."""

    name = "HCubeJ"
    hcube_impl = "push"
    options_map = {"work_budget": "work_budget", "order": "order",
                   "kernel": "kernel"}

    def __init__(self, work_budget: int | None = None,
                 order: tuple[str, ...] | None = None,
                 kernel: str = "wcoj"):
        self.work_budget = work_budget
        self.order = order
        self.kernel = kernel

    def _record_optimization(self, query: JoinQuery, cluster: Cluster,
                             ledger: CostLedger) -> None:
        """Share enumeration is the only optimization HCubeJ does; it is
        priced at the generic work rate (it is tiny — the paper's Tables
        II-IV report seconds, versus hundreds for co-optimization)."""
        vectors = sum(1 for _ in enumerate_share_vectors(
            query.num_attributes, cluster.num_workers))
        ledger.record(Work("optimization", vectors * query.num_atoms))

    def _cache_capacity(self, cluster: Cluster
                        ) -> Callable[[int], int] | None:
        """``worker_load -> capacity`` of a worker-local intersection
        cache; None (this engine) runs without one."""
        return None

    def _extra(self, outcome: OneRoundOutcome) -> dict:
        """The run's ``EngineResult.extra`` counters."""
        return {
            "level_tuples": outcome.level_tuples,
            "leapfrog_work": outcome.leapfrog_work,
            "max_worker_tuples": outcome.max_worker_tuples,
            "worker_work": outcome.worker_work,
            "worker_loads": outcome.worker_loads,
            "kernel": outcome.kernel,
            "kernel_reason": outcome.kernel_reason,
            "telemetry": outcome.telemetry,
            "data_plane": outcome.data_plane,
        }

    def run(self, query: JoinQuery, db: Database, cluster: Cluster,
            executor: Executor | None = None) -> EngineResult:
        ledger = cluster.new_ledger()
        self._record_optimization(query, cluster, ledger)
        order = self.order or attach_degree_order(query, db)
        outcome = one_round_execute(
            query, db, cluster, order, ledger, impl=self.hcube_impl,
            cache_capacity=self._cache_capacity(cluster),
            work_budget=self.work_budget, executor=executor,
            kernel=self.kernel)
        return EngineResult(
            engine=self.name,
            query=query.name,
            count=outcome.count,
            breakdown=ledger.breakdown(),
            shuffled_tuples=ledger.shuffled_tuples,
            rounds=1,
            extra={"order": order, **self._extra(outcome)},
        )
