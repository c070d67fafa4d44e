"""Yannakakis over a GHD as a distributed engine (EmptyHeaded-style).

An extension engine beyond the paper's five competitors: Sec. VI notes
that EmptyHeaded "improves the computation efficiency at a great cost of
memory consumption".  This engine makes that trade-off measurable: every
bag is materialized (memory!), two distributed semijoin sweeps prune
dangling tuples (extra rounds!), and the final joins are output-bounded.
Used by the ablation benches against ADJ.

The bag-materialization phase — the WCOJ-heavy part — runs as one task
per bag on the :mod:`repro.runtime` executor.  Source relations travel
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
from ..distributed.metrics import ShuffleStats
from ..errors import BudgetExceeded, OutOfMemory, WorkerCrashed
from ..ghd.decomposition import Hypertree, optimal_hypertree
from ..kernels import select_kernel
from ..obs.tracing import trace_context
from ..query.query import JoinQuery
from ..runtime.executor import Executor
from ..runtime.scheduler import absorb_result_observability, run_streamed
from ..runtime.telemetry import RuntimeTelemetry
from ..runtime.worker import BagTask, materialize_bag_task
from ..wcoj.yannakakis import YannakakisStats, full_reducer, join_reduced
from .base import EngineResult, _resolve_executor

__all__ = ["YannakakisJoin"]


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

    def _bag_kernels(self, query: JoinQuery, db: Database,
                     tree: Hypertree) -> dict[int, tuple[str, str]]:
        """Resolve a concrete ``(kernel key, reason)`` per bag, on the
        coordinator — the shape ``ExplainReport.kernel_decisions`` has.

        Each bag is its own subquery, so ``adaptive`` may pick binary
        for an acyclic bag and wcoj for a cyclic one within one run.
        """
        choices: dict[int, tuple[str, str]] = {}
        for bag in tree.bags:
            sub = JoinQuery([query.atoms[i] for i in bag.atom_indices],
                            name=f"bag{bag.index}")
            choice = select_kernel(self.kernel, sub, db,
                                   scope=f"bag{bag.index}")
            choices[bag.index] = (choice.key, choice.reason)
        return choices

    def _materialize_parallel(self, query: JoinQuery, db: Database,
                              tree: Hypertree, executor: Executor,
                              stats: YannakakisStats,
                              telemetry: RuntimeTelemetry,
                              num_workers: int,
                              bag_kernels: dict[int, tuple[str, str]]
                              ) -> tuple[dict[int, Relation], dict]:
        """One bag-materialization task per GHD bag, via the transport.

        Results come back in bag order, so ``stats.bag_sizes`` and
        ``bag_materialize_work`` accumulate exactly like the sequential
        :func:`~repro.wcoj.yannakakis.materialize_bags`.  Bags are
        attributed to workers round-robin (the scheduler's cube
        convention), so telemetry and crash reports carry worker ids
        within ``num_workers`` even when there are more bags.
        """
        transport = executor.transport

        ctx = trace_context()

        def bag_task(bag) -> BagTask:
            attrs = tuple(a for a in query.attributes
                          if a in bag.attributes)
            sub = JoinQuery([query.atoms[i] for i in bag.atom_indices],
                            name=f"bag{bag.index}")
            return BagTask(
                index=bag.index, query=sub, order=attrs,
                arrays=tuple(
                    transport.make_ref(transport.publish(
                        f"rel:{a.relation}", db[a.relation].data))
                    for a in sub.atoms),
                budget=self.work_budget, trace=ctx,
                kernel=bag_kernels[bag.index][0])

        try:
            # Stream bags: the first bag's WCOJ starts while later
            # bags' source relations are still being published.
            results = run_streamed(
                executor, materialize_bag_task,
                (bag_task(bag) for bag in tree.bags),
                telemetry=telemetry,
                mint_phase="publish", run_phase="precompute")
        finally:
            transport.teardown()
        # Post-teardown snapshot: includes blocks freed / bytes fetched.
        data_plane = dict(transport.last_epoch.as_dict(),
                          transport=transport.name)
        absorb_result_observability(results)
        bags: dict[int, Relation] = {}
        for res in results:
            if res.failure == "crash":
                reason = res.failure_info[0] if res.failure_info \
                    else "unknown"
                raise WorkerCrashed(res.index % num_workers, reason)
            if res.failure == "budget":
                raise BudgetExceeded(*res.failure_info)
            rel = Relation(f"bag{res.index}", res.attrs, res.data,
                           dedup=False)
            bags[res.index] = rel
            stats.bag_materialize_work += res.work
            stats.bag_sizes.append(len(rel))
            telemetry.record_worker(res.index % num_workers,
                                    res.total_seconds)
        return bags, data_plane

    def run(self, query: JoinQuery, db: Database, cluster: Cluster,
            executor: Executor | None = None) -> EngineResult:
        executor = _resolve_executor(executor)
        ledger = cluster.new_ledger()
        params = cluster.params
        tree = self.hypertree or optimal_hypertree(query)
        ledger.charge_seconds(
            tree.num_bags ** 2 / params.beta_work, "optimization")
        stats = YannakakisStats()

        # Phase 1: materialize bags (pre-computing: shuffle inputs + WCOJ).
        bag_kernels = self._bag_kernels(query, db, tree)
        telemetry = RuntimeTelemetry(backend=executor.name,
                                     num_workers=cluster.num_workers)
        bags, data_plane = self._materialize_parallel(
            query, db, tree, executor, stats, telemetry,
            cluster.num_workers, bag_kernels)
        input_tuples = sum(len(db[a.relation]) for a in query.atoms)
        ledger.charge_seconds(input_tuples / params.alpha_pull, "precompute")
        ledger.charge_seconds(
            stats.bag_materialize_work
            / (params.beta_work * cluster.num_workers), "precompute")
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
        ledger.charge_shuffle(
            ShuffleStats(tuple_copies=stats.semijoin_tuples_scanned,
                         blocks_fetched=stats.semijoin_rounds
                         * cluster.num_workers,
                         bytes_copied=stats.semijoin_tuples_scanned * 16),
            impl="pull")
        ledger.charge_seconds(
            stats.semijoin_tuples_scanned
            / (params.beta_work * cluster.num_workers), "computation")

        # Phase 3: bottom-up joins over the reduced bags.
        t_join = time.perf_counter()
        result = join_reduced(query, tree, reduced, stats=stats)
        telemetry.record("local_join", time.perf_counter() - t_join)
        join_work = stats.join_intermediate_tuples + sum(
            len(r) for r in reduced.values())
        ledger.charge_shuffle(
            ShuffleStats(tuple_copies=stats.join_intermediate_tuples,
                         blocks_fetched=cluster.num_workers,
                         bytes_copied=stats.join_intermediate_tuples * 16),
            impl="pull")
        ledger.charge_seconds(
            join_work / (params.beta_work * cluster.num_workers),
            "computation")

        extra = {
            "bag_sizes": stats.bag_sizes,
            "semijoin_rounds": stats.semijoin_rounds,
            "join_intermediates": stats.join_intermediate_tuples,
            "kernel_decisions": dict(sorted(bag_kernels.items())),
            "telemetry": telemetry,
            "data_plane": data_plane,
        }
        return EngineResult(
            engine=self.name,
            query=query.name,
            count=len(result),
            breakdown=ledger.breakdown(),
            shuffled_tuples=ledger.tuples_shuffled,
            rounds=1 + stats.semijoin_rounds + (tree.num_bags - 1),
            extra=extra,
        )
