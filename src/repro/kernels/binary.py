"""The ``binary`` kernel: fully vectorized left-deep hash joins.

Atom order comes from the greedy System-R style planner in
:mod:`repro.wcoj.binary_join` (estimates served by the memoized
:meth:`Relation.distinct_count` catalog stats); each step is one
:func:`hash_join` — :meth:`Relation.natural_join`'s vectorized
``row_group_ids`` + ``searchsorted`` probe with run-expansion gathers,
no per-tuple Python loops anywhere.

Work accounting: every join step charges ``len(right) + len(output)``
(plus the initial ``len(left)``) to ``stats.intersection_work`` — the
tuples the step touched — so engine work budgets keep tripping
deterministically under this kernel too, just in binary-join units
rather than Leapfrog intersection units.  ``level_tuples`` gets the
final count in its last slot (intermediate levels are a Leapfrog notion
and stay zero).
"""

from __future__ import annotations

from typing import Sequence

from ..data.database import Database
from ..data.relation import Relation
from ..errors import BudgetExceeded, PlanError
from ..query.query import JoinQuery
from ..wcoj.binary_join import greedy_left_deep_plan
from ..wcoj.cache import IntersectionCache
from ..wcoj.leapfrog import JoinResult, LeapfrogStats

__all__ = ["BinaryKernel", "hash_join"]


def hash_join(left: Relation, right: Relation,
              name: str | None = None) -> Relation:
    """Vectorized hash-style natural join (probe = gathered row groups).

    The single join primitive shared by this kernel, the SparkSQL
    engine's unkeyed (broadcast) steps and the partitioned
    :func:`repro.runtime.worker.join_partition_pair_task`.
    """
    return left.natural_join(right, name=name)


class BinaryKernel:
    """Left-deep pairwise hash joins behind :class:`JoinKernel`."""

    key = "binary"

    def execute(self, query: JoinQuery, db: Database,
                order: Sequence[str] | None = None, *,
                materialize: bool = False,
                budget: int | None = None,
                cache: IntersectionCache | None = None,
                stats: LeapfrogStats | None = None) -> JoinResult:
        order = tuple(order) if order is not None else query.attributes
        if set(order) != set(query.attributes):
            raise PlanError(
                f"order {order} is not a permutation of query attributes "
                f"{query.attributes}"
            )
        n = len(order)
        if stats is None:
            stats = LeapfrogStats()
        stats.level_tuples = [0] * n
        stats.level_work = [0] * n
        stats.level_extensions = [0] * n
        stats.intersection_work = 0
        stats.extensions = 0
        stats.emitted = 0

        def atom_relation(i: int) -> Relation:
            atom = query.atoms[i]
            rel = db[atom.relation]
            if rel.arity != atom.arity:
                raise PlanError(
                    f"atom {atom} arity mismatch with relation {rel.name}")
            # dedup=True matches the trie's set semantics, so counts
            # agree with the wcoj kernel even on duplicated input rows.
            return Relation(f"{atom.relation}#{i}", atom.attributes,
                            rel.data, dedup=True)

        plan = greedy_left_deep_plan(query, db)
        current = atom_relation(plan.atom_order[0])
        stats.intersection_work += len(current)
        for i in plan.atom_order[1:]:
            right = atom_relation(i)
            current = hash_join(current, right)
            stats.extensions += 1
            stats.intersection_work += len(right) + len(current)
            if budget is not None and stats.intersection_work > budget:
                raise BudgetExceeded(stats.intersection_work, budget)
        result = current.reorder(order, name=f"{query.name}_result")
        count = len(result)
        stats.level_tuples[n - 1] = count
        stats.emitted = count
        return JoinResult(count=count, stats=stats,
                          relation=result if materialize else None)
