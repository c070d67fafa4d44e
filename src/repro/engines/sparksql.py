"""SparkSQL-style engine: multi-round distributed binary joins.

The paper's first baseline decomposes the query into pairwise joins and
shuffles every intermediate result (Sec. VII-A).  Each step repartitions
both inputs on the join key, hash-joins locally, and the intermediate
relation becomes the next step's left input — so on cyclic queries the
shuffled volume explodes, producing the Fig. 1(a) gap and the missing
bars of Fig. 12.

Each keyed step really is that plan on the :mod:`repro.runtime`
executor, through the same :func:`~repro.engines.one_round.routed_epoch`
as every routed engine: the step is a two-atom query whose HCube grid
spends the whole share budget on the first join attribute (a hash
partition on the key is exactly that grid), the columns go through the
executor's data-plane transport (full partitions under ``pickle``,
zero-copy shared-memory descriptors under ``shm``), every worker joins
its partition pair with the ``binary`` kernel, and the coordinator
concatenates the (disjoint) partition outputs.  Counts and modeled
costs are the same on every backend; measured telemetry and physical
data-plane stats are recorded alongside.
"""

from __future__ import annotations

import numpy as np

from ..data.database import Database
from ..data.relation import Relation
from ..distributed.cluster import Cluster
from ..distributed.hcube import HypercubeGrid
from ..distributed.metrics import Moved, Work
from ..errors import BudgetExceeded, OutOfMemory
from ..query.query import Atom, JoinQuery
from ..runtime.executor import Executor
from ..runtime.telemetry import RuntimeTelemetry
from ..wcoj.binary_join import greedy_left_deep_plan
from .base import EngineResult, _resolve_executor
from .one_round import routed_epoch

__all__ = ["SparkSQLJoin"]


class SparkSQLJoin:
    """Cost-ordered left-deep distributed hash join."""

    name = "SparkSQL"
    options_map = {"budget_tuples": "budget_tuples"}

    def __init__(self, budget_tuples: int | None = None):
        #: Cap on total intermediate tuples (the 12-hour-timeout analogue).
        self.budget_tuples = budget_tuples

    @staticmethod
    def _partitioned_join(current: Relation, right: Relation,
                          common: tuple[str, ...], cluster: Cluster,
                          executor: Executor,
                          telemetry: RuntimeTelemetry,
                          data_plane: dict) -> Relation:
        """One keyed join step: route, ship refs, join, concat.

        The step is the pair query ``current >< right`` routed by the
        grid ``{common[0]: num_workers, everything else: 1}``.  Both
        sides contain that attribute, so every tuple lands in exactly
        one cube, matching tuples land in the same one, and partition
        outputs are disjoint (equal output rows agree on the key, hence
        on the cube) — the concatenation below needs no
        re-deduplication.  Each step is one transport epoch: sources are
        published once, every worker gets its partition pair as
        descriptors, and segments are released before the next step.
        """
        out_attrs = current.attributes + tuple(
            a for a in right.attributes if a not in common)
        out_name = f"({current.name}><{right.name})"
        pair = JoinQuery([Atom(current.name, current.attributes),
                          Atom(right.name, right.attributes)],
                         name=out_name)
        shares = {a: 1 for a in pair.attributes}
        shares[common[0]] = cluster.num_workers
        _, merged = routed_epoch(
            pair, Database([current, right]),
            HypercubeGrid(pair, shares, cluster.num_workers), out_attrs,
            executor, telemetry, kernel="binary", materialize=True)
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
        ledger.record(Work("optimization", query.num_atoms ** 2))
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
        for step, i in enumerate(plan.atom_order[1:], start=1):
            right = atom_relation(i)
            common = current.common_attributes(right)
            if common:
                moved = len(current) + len(right)
            else:
                # No shared key: broadcast the smaller side.
                moved = min(len(current), len(right)) * cluster.num_workers
            ledger.record(Moved("communication", moved, "pull",
                                blocks=cluster.num_workers))
            if common:
                out = self._partitioned_join(current, right, common,
                                             cluster, executor, telemetry,
                                             data_plane)
            else:
                # Broadcast step: nothing to co-partition on.
                out = current.natural_join(right)
            work = len(current) + len(right) + len(out)
            ledger.record(Work("computation", work,
                               workers=cluster.num_workers))
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
            shuffled_tuples=ledger.shuffled_tuples,
            rounds=query.num_atoms - 1,
            extra=extra,
        )
