"""SparkSQL-style engine: multi-round distributed binary joins.

The paper's first baseline decomposes the query into pairwise joins and
shuffles every intermediate result (Sec. VII-A).  Each step repartitions
both inputs on the join key, hash-joins locally, and the intermediate
relation becomes the next step's left input — so on cyclic queries the
shuffled volume explodes, producing the Fig. 1(a) gap and the missing
bars of Fig. 12.

Each keyed step really is that plan on the :mod:`repro.runtime`
executor: both sides are hash-partitioned *by routing assignment only*,
the columns go through the executor's data-plane transport (full
partitions under ``pickle``, zero-copy shared-memory descriptors under
``shm``), one pair-shaped :class:`repro.runtime.worker.WorkerTask` per
worker joins its partition pair with the ``binary`` kernel, and the
coordinator concatenates the (disjoint) partition outputs.  Counts and
modeled costs are the same on every backend; measured telemetry and
physical data-plane stats are recorded alongside.
"""

from __future__ import annotations

import numpy as np

from ..data.database import Database
from ..data.relation import Relation
from ..distributed.cluster import Cluster
from ..distributed.metrics import ShuffleStats
from ..distributed.shuffle import hash_partition_rows
from ..errors import BudgetExceeded, OutOfMemory
from ..obs.tracing import trace_context
from ..query.query import Atom, JoinQuery
from ..runtime.executor import Executor
from ..runtime.scheduler import run_epoch
from ..runtime.telemetry import RuntimeTelemetry
from ..runtime.worker import WorkerTask
from ..wcoj.binary_join import greedy_left_deep_plan
from .base import EngineResult, _resolve_executor

__all__ = ["SparkSQLJoin"]


class SparkSQLJoin:
    """Cost-ordered left-deep distributed hash join."""

    name = "SparkSQL"
    options_map = {"budget_tuples": "budget_tuples",
                   "kernel": "kernel"}

    def __init__(self, budget_tuples: int | None = None,
                 kernel: str = "wcoj"):
        #: Cap on total intermediate tuples (the 12-hour-timeout analogue).
        self.budget_tuples = budget_tuples
        #: Accepted for session-level uniformity, but pinned to binary:
        #: this engine *is* the pairwise hash-join baseline.
        self.kernel = kernel

    @staticmethod
    def _partitioned_join(current: Relation, right: Relation,
                          common: tuple[str, ...], cluster: Cluster,
                          executor: Executor,
                          telemetry: RuntimeTelemetry,
                          data_plane: dict) -> Relation:
        """One keyed join step: route, ship refs, join, concat.

        Both sides hash on the same key order, so matching tuples land in
        the same partition and partition outputs are disjoint (equal
        output rows agree on the key, hence on the partition) — the
        concatenation below needs no re-deduplication.  Each step is one
        transport epoch: sources are published once, every worker gets
        its partition pair as a two-atom materializing
        :class:`~repro.runtime.worker.WorkerTask` of descriptors, and
        segments are released before the next step.
        """
        transport = executor.transport
        out_attrs = current.attributes + tuple(
            a for a in right.attributes if a not in common)
        out_name = f"({current.name}><{right.name})"
        pair = JoinQuery([Atom(current.name, current.attributes),
                          Atom(right.name, right.attributes)],
                         name=out_name)
        ctx = trace_context()

        def partition_tasks():
            left_rows, _ = hash_partition_rows(current, common,
                                               cluster.num_workers)
            right_rows, _ = hash_partition_rows(right, common,
                                                cluster.num_workers)
            lkey = transport.publish(f"step:{current.name}", current.data)
            rkey = transport.publish(f"step:{right.name}", right.data)
            for worker, (lr, rr) in enumerate(zip(left_rows, right_rows)):
                if lr.shape[0] and rr.shape[0]:
                    yield WorkerTask(
                        worker=worker, query=pair, order=out_attrs,
                        cubes=[(transport.make_ref(lkey, lr),
                                transport.make_ref(rkey, rr))],
                        trace=ctx, kernel="binary", materialize=True)

        # Stream pairs: the first partitions join while later
        # descriptors are still being sliced/minted.
        merged = run_epoch(executor, partition_tasks(), len(out_attrs),
                           telemetry=telemetry, mint_phase="partition")
        # Sum the per-step snapshots into the run's report.
        for k, v in merged.data_plane.items():
            if k != "transport":
                data_plane[k] = data_plane.get(k, 0) + v
        data = np.vstack(merged.rows) if merged.rows else np.empty(
            (0, len(out_attrs)), dtype=np.int64)
        return Relation(out_name, out_attrs, data, dedup=False)

    def run(self, query: JoinQuery, db: Database, cluster: Cluster,
            executor: Executor | None = None) -> EngineResult:
        executor = _resolve_executor(executor)
        ledger = cluster.new_ledger()
        plan = greedy_left_deep_plan(query, db)
        # Plan selection itself is cheap (statistics lookups).
        ledger.charge_seconds(
            query.num_atoms ** 2 / cluster.params.beta_work, "optimization")
        telemetry = RuntimeTelemetry(backend=executor.name,
                                     num_workers=cluster.num_workers)
        data_plane: dict = {"transport": executor.transport.name}

        def atom_relation(i: int) -> Relation:
            atom = query.atoms[i]
            rel = db[atom.relation]
            return Relation(f"{atom.relation}#{i}", atom.attributes,
                            rel.data, dedup=False)

        current = atom_relation(plan.atom_order[0])
        total_intermediate = 0
        memory = cluster.memory_tuples_per_worker
        params = cluster.params
        for step, i in enumerate(plan.atom_order[1:], start=1):
            right = atom_relation(i)
            common = current.common_attributes(right)
            if common:
                moved = len(current) + len(right)
            else:
                # No shared key: broadcast the smaller side.
                moved = min(len(current), len(right)) * cluster.num_workers
            ledger.charge_shuffle(
                ShuffleStats(tuple_copies=moved,
                             blocks_fetched=cluster.num_workers,
                             bytes_copied=moved * 8),
                impl="pull")
            if common:
                out = self._partitioned_join(current, right, common,
                                             cluster, executor, telemetry,
                                             data_plane)
            else:
                # Broadcast step: nothing to co-partition on.
                out = current.natural_join(right)
            work = len(current) + len(right) + len(out)
            ledger.charge_seconds(
                work / (params.beta_work * cluster.num_workers),
                "computation")
            total_intermediate += len(out)
            if self.budget_tuples is not None \
                    and total_intermediate > self.budget_tuples:
                raise BudgetExceeded(total_intermediate, self.budget_tuples)
            if memory is not None:
                per_worker = len(out) / cluster.num_workers
                if per_worker > memory:
                    raise OutOfMemory(0, int(per_worker), int(memory))
            current = out
        extra = {
            "plan": plan.atom_order,
            "intermediate_tuples": total_intermediate,
            "kernel": "binary",
            "kernel_reason": ("pinned: the pairwise hash-join "
                              "baseline is the binary kernel"),
            "telemetry": telemetry,
            "data_plane": data_plane,
        }
        return EngineResult(
            engine=self.name,
            query=query.name,
            count=len(current),
            breakdown=ledger.breakdown(),
            shuffled_tuples=ledger.tuples_shuffled,
            rounds=query.num_atoms - 1,
            extra=extra,
        )
