"""BigJoin: multi-round distributed worst-case optimal join (Ammar et al.).

BigJoin parallelizes Leapfrog one attribute at a time: round i extends the
distributed set of i-bindings by the next attribute, shuffling the
binding batches to the workers holding the relevant index ranges.  Its
computation is worst-case optimal (much better than SparkSQL) but its
communication grows with the intermediate binding counts, so on the
denser cyclic queries (Q3+) it drowns in shuffled prefixes — exactly the
Fig. 12 behaviour.

The per-round binding counts equal Leapfrog's per-level intermediate
tuple counts, so the engine executes one instrumented Leapfrog pass and
records one shuffle round per attribute from the counted levels.

The Leapfrog pass runs on the :mod:`repro.runtime` executor through
:func:`~repro.engines.one_round.routed_epoch`: the value space of the
order's first attribute is partitioned across workers (an HCube grid
that spends the whole share budget on that attribute, so relations
containing it split and the rest replicate), and each worker explores
its disjoint slice of the binding tree.  The merged per-level
counts equal a global pass exactly, so the modeled round-per-attribute
accounting does not depend on the backend — only wall-clock does.
"""

from __future__ import annotations

from ..data.database import Database
from ..distributed.cluster import Cluster
from ..distributed.hcube import HypercubeGrid
from ..distributed.metrics import Moved, Work
from ..errors import BudgetExceeded, OutOfMemory
from ..query.query import JoinQuery
from ..runtime.executor import Executor
from ..runtime.telemetry import RuntimeTelemetry
from .base import EngineResult, _resolve_executor, attach_degree_order
from .one_round import routed_epoch

__all__ = ["BigJoin"]


class BigJoin:
    """Round-per-attribute parallel Leapfrog."""

    name = "BigJoin"
    options_map = {"budget_bindings": "budget_bindings",
                   "work_budget": "work_budget", "order": "order"}

    def __init__(self, budget_bindings: int | None = None,
                 work_budget: int | None = None,
                 order: tuple[str, ...] | None = None):
        #: Cap on total shuffled bindings (timeout analogue).
        self.budget_bindings = budget_bindings
        self.work_budget = work_budget
        self.order = order

    def _parallel_pass(self, query: JoinQuery, db: Database,
                       cluster: Cluster, order: tuple[str, ...],
                       executor: Executor, telemetry: RuntimeTelemetry):
        """One Leapfrog pass split over workers by the first attribute.

        The partition grid is an execution mechanism, not part of the
        modeled communication (the model charges the round-per-attribute
        shuffles below), so its stats are not booked on the ledger.
        """
        shares = {a: 1 for a in query.attributes}
        shares[order[0]] = cluster.num_workers
        grid = HypercubeGrid(query, shares, cluster.num_workers)
        _, merged = routed_epoch(query, db, grid, order, executor,
                                 telemetry, budget=self.work_budget)
        return merged

    def run(self, query: JoinQuery, db: Database, cluster: Cluster,
            executor: Executor | None = None) -> EngineResult:
        executor = _resolve_executor(executor)
        ledger = cluster.new_ledger()
        order = self.order or attach_degree_order(query, db)
        ledger.record(Work("optimization",
                           query.num_atoms * query.num_attributes))
        telemetry = RuntimeTelemetry(backend=executor.name,
                                     num_workers=cluster.num_workers)
        merged = self._parallel_pass(query, db, cluster, order, executor,
                                     telemetry)
        level_tuples = merged.level_tuples
        n = len(order)
        memory = cluster.memory_tuples_per_worker
        total_bindings = 0
        # One shuffle round per attribute: the (i-1)-bindings travel to the
        # workers owning the round's index partitions.
        for d in range(n):
            inbound = 1 if d == 0 else level_tuples[d - 1]
            ledger.record(Moved("communication", inbound, "pull",
                                blocks=cluster.num_workers))
            total_bindings += level_tuples[d]
            if self.budget_bindings is not None \
                    and total_bindings > self.budget_bindings:
                raise BudgetExceeded(total_bindings, self.budget_bindings)
            if memory is not None:
                per_worker = level_tuples[d] / cluster.num_workers
                if per_worker > memory:
                    raise OutOfMemory(0, int(per_worker), int(memory))
        ledger.record(Work("computation", merged.total_work,
                           workers=cluster.num_workers))
        extra = {
            "order": order,
            "level_tuples": level_tuples,
            "total_bindings": total_bindings,
            "kernel": "wcoj",
            "kernel_reason": ("pinned: round-per-attribute model "
                              "needs per-level binding counts"),
            "telemetry": telemetry,
            "data_plane": merged.data_plane,
        }
        return EngineResult(
            engine=self.name,
            query=query.name,
            count=merged.count,
            breakdown=ledger.breakdown(),
            shuffled_tuples=ledger.shuffled_tuples,
            rounds=n,
            extra=extra,
        )
