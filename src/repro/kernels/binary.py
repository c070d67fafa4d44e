"""The ``binary`` kernel: a left-deep chain of trie probes.

Atom order comes from the greedy System-R style planner in
:mod:`repro.wcoj.binary_join` (estimates served by the memoized
:meth:`Relation.distinct_count` catalog stats, and only where the plan
has a choice); the chain itself is that module's one step loop,
:func:`~repro.wcoj.binary_join.run_left_deep`.  Each step is a
:class:`~repro.data.relation.JoinProbe`: the right side read through
its memoized :meth:`~repro.data.relation.Relation.trie` (join columns
first), the first step's left side too and probed node by node, later
steps' intermediates probed row by row, the output born a lexsorted set
— no per-tuple Python loops, no re-sort of an intermediate or of a kept
input, and with ``materialize=False`` the last step is only *sized* (a
dot product of matched row counts read off the tries' ``ptr``), never
gathered.  The seconds spent building (or fetching from the memo)
those tries are ``stats.build_seconds``; a warm worker-resident task
reads ≈ 0.

Work accounting: every join step charges ``len(right) + len(output)``
(plus the initial ``len(left)``; lengths under set semantics) to
``stats.intersection_work`` — the tuples the step touched — so engine
work budgets keep tripping deterministically under this kernel too,
just in binary-join units rather than Leapfrog intersection units.  A
step's output size is known before its rows exist, so an over-budget
step raises before allocating them.  ``level_tuples`` gets the final
count in its last slot (intermediate levels are a Leapfrog notion and
stay zero).
"""

from __future__ import annotations

from typing import Sequence

from ..data.database import Database
from ..data.relation import JoinProbe
from ..errors import BudgetExceeded, PlanError
from ..query.query import JoinQuery
from ..wcoj.binary_join import greedy_left_deep_plan, run_left_deep
from ..wcoj.leapfrog import JoinResult, LeapfrogStats

__all__ = ["BinaryKernel"]


class BinaryKernel:
    """Left-deep pairwise joins behind :class:`JoinKernel`."""

    key = "binary"

    def execute(self, query: JoinQuery, db: Database,
                order: Sequence[str] | None = None, *,
                materialize: bool = False,
                budget: int | None = None,
                cache_capacity: int | None = None,
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
        stats.reset(n)

        def account(probe: JoinProbe) -> None:
            if not stats.extensions:
                stats.intersection_work += len(probe.left)
            stats.extensions += 1
            stats.build_seconds += probe.build_seconds
            stats.intersection_work += len(probe.right) + probe.size
            if budget is not None and stats.intersection_work > budget:
                raise BudgetExceeded(stats.intersection_work, budget)

        result, count = run_left_deep(
            query, db, greedy_left_deep_plan(query, db), account,
            materialize=materialize)
        if not stats.extensions:     # a single atom: no step accounted it
            stats.intersection_work = count
        stats.level_tuples[n - 1] = count
        stats.emitted = count
        if result is not None:
            result = result.reorder(order, name=f"{query.name}_result")
        return JoinResult(count=count, stats=stats, relation=result)
