"""Yannakakis over a GHD as a distributed engine (EmptyHeaded-style).

An extension engine beyond the paper's five competitors: Sec. VI notes
that EmptyHeaded "improves the computation efficiency at a great cost of
memory consumption".  This engine makes that trade-off measurable: every
bag is materialized (memory!), two distributed semijoin sweeps prune
dangling tuples (extra rounds!), and the final joins are output-bounded.
Used by the ablation benches against ADJ.

The bag-materialization phase — the WCOJ-heavy part — runs as one
materializing :class:`~repro.runtime.worker.WorkerTask` per bag on the
:mod:`repro.runtime` executor.  Source relations travel
through the executor's data-plane transport (whole-array descriptors:
under ``shm`` the broadcast to every bag is zero-copy), the semijoin
sweeps and bottom-up joins stay coordinator-side, and counts, bag
statistics and modeled costs are the same on every backend.
"""

from __future__ import annotations

import time

from ..data.database import Database
from ..data.relation import Relation
from ..distributed.cluster import Cluster
from ..distributed.hcube import localized_query
from ..distributed.metrics import Moved, Work
from ..errors import OutOfMemory
from ..ghd.decomposition import Hypertree, optimal_hypertree
from ..kernels import select_kernel
from ..obs.tracing import trace_context
from ..query.query import JoinQuery
from ..runtime.executor import Executor
from ..runtime.scheduler import MergedOutcome, run_epoch
from ..runtime.telemetry import RuntimeTelemetry
from ..runtime.worker import WorkerTask
from ..wcoj.yannakakis import YannakakisStats, full_reducer, join_reduced
from .base import EngineResult, _resolve_executor

__all__ = ["YannakakisJoin"]

#: Bag index -> (the bag's subquery, its attributes in query order).
_BagQueries = dict[int, tuple[JoinQuery, tuple[str, ...]]]


class YannakakisJoin:
    """GHD + full reducer + bottom-up joins."""

    name = "Yannakakis"
    options_map = {"work_budget": "work_budget", "hypertree": "hypertree",
                   "kernel": "kernel"}

    def __init__(self, work_budget: int | None = None,
                 hypertree: Hypertree | None = None,
                 kernel: str = "wcoj"):
        self.work_budget = work_budget
        self.hypertree = hypertree
        self.kernel = kernel

    def _bag_kernels(self, db: Database, subqueries: _BagQueries
                     ) -> dict[int, tuple[str, str]]:
        """Resolve a concrete ``(kernel key, reason)`` per bag, on the
        coordinator — the shape ``ExplainReport.kernel_decisions`` has.

        Each bag is its own subquery, so ``adaptive`` may pick binary
        for an acyclic bag and wcoj for a cyclic one within one run.
        """
        choices: dict[int, tuple[str, str]] = {}
        for index, (sub, _) in subqueries.items():
            choice = select_kernel(self.kernel, sub, db,
                                   scope=f"bag{index}")
            choices[index] = (choice.key, choice.reason)
        return choices

    def _materialize_parallel(self, db: Database, subqueries: _BagQueries,
                              bag_kernels: dict[int, tuple[str, str]],
                              executor: Executor,
                              telemetry: RuntimeTelemetry,
                              num_workers: int) -> MergedOutcome:
        """One materializing task per GHD bag, via the transport.

        A bag is a :class:`~repro.runtime.worker.WorkerTask` with a
        single group of whole-array refs.  Rows come back in bag order
        (``merged.rows``).  Bags are attributed to workers round-robin
        (the scheduler's cube convention), so telemetry and crash
        reports carry worker ids within ``num_workers`` even when there
        are more bags.  The work budget applies per bag.
        """
        transport = executor.transport
        ctx = trace_context()

        def bag_tasks():
            # Streamed: the first bag's join starts while later bags'
            # source relations are still being published.
            for index, (sub, attrs) in subqueries.items():
                refs = tuple(
                    transport.make_ref(transport.publish(
                        f"rel:{a.relation}", db[a.relation].data))
                    for a in sub.atoms)
                yield WorkerTask(
                    worker=index % num_workers,
                    query=localized_query(sub), order=attrs, cubes=[refs],
                    budget=self.work_budget, trace=ctx,
                    kernel=bag_kernels[index][0], materialize=True)

        return run_epoch(executor, bag_tasks(), 0, telemetry=telemetry,
                         run_phase="precompute")

    def run(self, query: JoinQuery, db: Database, cluster: Cluster,
            executor: Executor | None = None) -> EngineResult:
        executor = _resolve_executor(executor)
        ledger = cluster.new_ledger()
        tree = self.hypertree or optimal_hypertree(query)
        ledger.record(Work("optimization", tree.num_bags ** 2))
        stats = YannakakisStats()

        # Phase 1: materialize bags (pre-computing: shuffle inputs + WCOJ).
        subqueries = {bag.index: bag.subquery(query) for bag in tree.bags}
        bag_kernels = self._bag_kernels(db, subqueries)
        telemetry = RuntimeTelemetry(backend=executor.name,
                                     num_workers=cluster.num_workers)
        merged = self._materialize_parallel(
            db, subqueries, bag_kernels, executor, telemetry,
            cluster.num_workers)
        bags = {index: Relation(f"bag{index}", attrs, rows, dedup=False)
                for (index, (_, attrs)), rows
                in zip(subqueries.items(), merged.rows)}
        stats.bag_materialize_work = merged.total_work
        stats.bag_sizes = [len(rel) for rel in bags.values()]
        input_tuples = sum(len(db[a.relation]) for a in query.atoms)
        ledger.record(Moved("precompute", input_tuples, "pull"),
                      Work("precompute", stats.bag_materialize_work,
                           workers=cluster.num_workers))
        # Memory check: bags live in memory, spread over the cluster.
        if cluster.memory_tuples_per_worker is not None:
            per_worker = sum(stats.bag_sizes) / cluster.num_workers
            if per_worker > cluster.memory_tuples_per_worker:
                raise OutOfMemory(0, int(per_worker),
                                  int(cluster.memory_tuples_per_worker))

        # Phase 2: full reducer — each semijoin is a repartition round.
        t_reduce = time.perf_counter()
        reduced = full_reducer(tree, bags, stats=stats)
        telemetry.record("semijoin", time.perf_counter() - t_reduce)
        ledger.record(
            Moved("communication", stats.semijoin_tuples_scanned, "pull",
                  blocks=stats.semijoin_rounds * cluster.num_workers),
            Work("computation", stats.semijoin_tuples_scanned,
                 workers=cluster.num_workers))

        # Phase 3: bottom-up joins over the reduced bags.
        t_join = time.perf_counter()
        result = join_reduced(query, tree, reduced, stats=stats)
        telemetry.record("local_join", time.perf_counter() - t_join)
        join_work = stats.join_intermediate_tuples + sum(
            len(r) for r in reduced.values())
        ledger.record(
            Moved("communication", stats.join_intermediate_tuples, "pull",
                  blocks=cluster.num_workers),
            Work("computation", join_work, workers=cluster.num_workers))

        extra = {
            "bag_sizes": stats.bag_sizes,
            "semijoin_rounds": stats.semijoin_rounds,
            "join_intermediates": stats.join_intermediate_tuples,
            "kernel_decisions": dict(sorted(bag_kernels.items())),
            "telemetry": telemetry,
            "data_plane": merged.data_plane,
        }
        return EngineResult(
            engine=self.name,
            query=query.name,
            count=len(result),
            breakdown=ledger.breakdown(),
            shuffled_tuples=ledger.shuffled_tuples,
            rounds=1 + stats.semijoin_rounds + (tree.num_bags - 1),
            extra=extra,
        )
