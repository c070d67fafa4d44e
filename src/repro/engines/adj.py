"""ADJ — the paper's system: co-optimized one-round join (Sec. III).

Pipeline: (1) sample-based optimization picks a plan (which bags to
pre-compute, bag traversal order, attribute order); (2) the chosen bags
are joined and materialized (pre-computing phase); (3) the rewritten
query is HCube-shuffled with the optimized Merge implementation and every
cube runs Leapfrog under the plan's attribute order.  Each phase records
its own quantities on the ledger, tagged with that phase, so the
Tables II-IV breakdown falls out of one pricing pass.
"""

from __future__ import annotations

import numpy as np

from ..data.database import Database
from ..data.relation import Relation
from ..distributed.cluster import Cluster
from ..distributed.metrics import CostLedger, Moved, Work
from ..errors import PlanError
from ..ghd.decomposition import Hypertree, optimal_hypertree
from ..kernels import create_kernel, select_kernel
from ..query.query import JoinQuery
from ..runtime.executor import Executor
from .base import EngineResult
from .one_round import one_round_execute
from ..core.optimizer import Optimizer, OptimizerReport
from ..core.plan import QueryPlan
from ..core.sampling import CardinalityEstimator

__all__ = ["ADJ"]


class ADJ:
    """Adaptive Distributed Join."""

    name = "ADJ"
    hcube_impl = "merge"
    options_map = {"samples": "num_samples", "seed": "seed",
                   "work_budget": "work_budget", "hypertree": "hypertree",
                   "kernel": "kernel"}

    def __init__(self, num_samples: int = 200, seed: int = 0,
                 work_budget: int | None = None,
                 hypertree: Hypertree | None = None,
                 kernel: str = "wcoj"):
        self.num_samples = num_samples
        self.seed = seed
        self.work_budget = work_budget
        self.hypertree = hypertree
        self.kernel = kernel

    # -- phases ------------------------------------------------------------------

    def _optimize(self, query: JoinQuery, db: Database, cluster: Cluster,
                  ledger: CostLedger) -> OptimizerReport:
        estimator = CardinalityEstimator(
            db, num_samples=self.num_samples, seed=self.seed)
        tree = self.hypertree or optimal_hypertree(query)
        report = Optimizer(query, db, cluster, hypertree=tree,
                           estimator=estimator,
                           hcube_impl=self.hcube_impl).run()
        # Sampling runs distributed: Leapfrog probes spread over workers.
        ledger.record(Work("optimization", report.sampling_work,
                           workers=cluster.num_workers))
        # The semijoin-reduced sampling shuffle (Sec. IV): the dominant
        # communication is exchanging the first attribute's projections.
        attr = query.attributes[0]
        projection_tuples = sum(
            db[a.relation].distinct_count(
                db[a.relation].attributes[a.attributes.index(attr)])
            for a in query.atoms_with(attr))
        ledger.record(Moved("optimization", projection_tuples, "pull"))
        return report

    def _precompute(self, plan: QueryPlan, db: Database, cluster: Cluster,
                    ledger: CostLedger) -> Database:
        """Materialize every chosen candidate relation."""
        working = Database(
            Relation(rel.name, rel.attributes, rel.data, dedup=False)
            for rel in db)
        for cand in plan.candidates:
            choice = select_kernel(self.kernel, cand.subquery, db,
                                   scope=f"precompute:{cand.name}")
            result = create_kernel(choice.key).execute(
                cand.subquery, db, cand.attributes, materialize=True,
                budget=self.work_budget)
            rel = Relation(cand.name, cand.attributes,
                           result.relation.data, dedup=False)
            if rel.name in working:
                raise PlanError(f"candidate name clash: {rel.name}")
            working.add(rel)
            input_tuples = sum(len(db[a.relation])
                               for a in cand.subquery.atoms)
            ledger.record(
                Moved("precompute", input_tuples, self.hcube_impl),
                Work("precompute", result.stats.intersection_work,
                     workers=cluster.num_workers))
        return working

    # -- entry points --------------------------------------------------------------

    def run(self, query: JoinQuery, db: Database, cluster: Cluster,
            executor: Executor | None = None) -> EngineResult:
        ledger = cluster.new_ledger()
        report = self._optimize(query, db, cluster, ledger)
        return self._execute(report.plan, db, cluster, ledger,
                             optimizer_report=report, executor=executor)

    def run_with_plan(self, plan: QueryPlan, db: Database,
                      cluster: Cluster,
                      executor: Executor | None = None) -> EngineResult:
        """Execute a caller-supplied plan (ablation benches)."""
        return self._execute(plan, db, cluster, cluster.new_ledger(),
                             executor=executor)

    def _execute(self, plan: QueryPlan, db: Database, cluster: Cluster,
                 ledger: CostLedger,
                 optimizer_report: OptimizerReport | None = None,
                 executor: Executor | None = None
                 ) -> EngineResult:
        working = self._precompute(plan, db, cluster, ledger)
        rewritten = plan.rewritten_query()
        outcome = one_round_execute(
            rewritten, working, cluster, plan.attribute_order, ledger,
            impl=self.hcube_impl, work_budget=self.work_budget,
            executor=executor, kernel=self.kernel)
        extra = {
            "plan": plan.describe(),
            "order": plan.attribute_order,
            "precomputed": tuple(c.name for c in plan.candidates),
            "level_tuples": outcome.level_tuples,
            "leapfrog_work": outcome.leapfrog_work,
            "worker_work": outcome.worker_work,
            "worker_loads": outcome.worker_loads,
            "kernel": outcome.kernel,
            "kernel_reason": outcome.kernel_reason,
            "telemetry": outcome.telemetry,
            "data_plane": outcome.data_plane,
        }
        if optimizer_report is not None:
            extra["explored_configurations"] = \
                optimizer_report.explored_configurations
            extra["estimated_cost"] = plan.estimated_cost
        return EngineResult(
            engine=self.name,
            query=plan.query.name,
            count=outcome.count,
            breakdown=ledger.breakdown(),
            shuffled_tuples=ledger.shuffled_tuples,
            rounds=1,
            extra=extra,
        )
