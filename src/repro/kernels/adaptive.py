"""The ``adaptive`` kernel: score each subquery, pick binary or Leapfrog.

Follows the unified-architecture result (PAPERS.md, arXiv:2505.19918):
binary hash joins win on acyclic, low-blowup subqueries (fully
vectorized, no per-value recursion) while Leapfrog's worst-case-optimal
intersections win on cyclic or skew-exploding ones.  The chooser reuses
machinery this repo already had:

- :meth:`Hypergraph.is_alpha_acyclic` (GYO reduction) detects cyclicity;
- the greedy binary planner's System-R estimates — served by the
  memoized :meth:`Relation.distinct_count` catalog stats — predict the
  intermediate-result blowup binary joins would pay.

Decision rule (see docs/kernels.md)::

    cyclic                                     -> wcoj
    acyclic and max intermediate estimate
        <= BLOWUP_FACTOR * largest input       -> binary
    acyclic but estimates explode (skew)       -> wcoj

:func:`choose_kernel` is the pure rule (used by ``explain()``);
:func:`select_kernel` additionally records the decision as a
``kernel_select`` span and a ``kernel.selected.<key>`` metrics counter.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from ..data.database import Database
from ..obs.metrics import METRICS
from ..obs.tracing import current_tracer
from ..query.hypergraph import Hypergraph
from ..query.query import JoinQuery
from ..wcoj.binary_join import greedy_plan_with_estimates
from ..wcoj.leapfrog import JoinResult, LeapfrogStats
from .base import KERNELS, create_kernel

__all__ = ["AdaptiveKernel", "KernelChoice", "choose_kernel",
           "select_kernel", "BLOWUP_FACTOR"]

#: Binary joins are chosen only while the largest estimated intermediate
#: stays within this factor of the largest input relation — beyond it
#: the subquery is treated as skew-exploding and Leapfrog's worst-case
#: bound takes over.
BLOWUP_FACTOR = 4.0


@dataclass(frozen=True)
class KernelChoice:
    """A resolved kernel decision for one subquery."""

    key: str        # the concrete kernel to run ("wcoj" | "binary")
    requested: str  # what the caller asked for (e.g. "adaptive")
    reason: str     # human-readable rule that fired


def choose_kernel(requested: str, query: JoinQuery, db: Database
                  ) -> KernelChoice:
    """Resolve ``requested`` to a concrete kernel for ``query`` (pure)."""
    if requested != "adaptive":
        KERNELS.check(requested)
        return KernelChoice(key=requested, requested=requested,
                            reason="forced")
    if not Hypergraph.of_query(query).is_alpha_acyclic():
        return KernelChoice(key="wcoj", requested=requested,
                            reason="cyclic query hypergraph")
    _, estimates = greedy_plan_with_estimates(query, db)
    blowup = max(estimates, default=0.0)
    largest = max((len(db[a.relation]) for a in query.atoms), default=0)
    limit = BLOWUP_FACTOR * max(1, largest)
    if blowup <= limit:
        return KernelChoice(
            key="binary", requested=requested,
            reason=(f"acyclic, est. intermediate {blowup:.0f} <= "
                    f"{BLOWUP_FACTOR:g}x largest input {largest}"))
    return KernelChoice(
        key="wcoj", requested=requested,
        reason=(f"acyclic but est. intermediate {blowup:.0f} > "
                f"{BLOWUP_FACTOR:g}x largest input {largest}"))


def select_kernel(requested: str, query: JoinQuery, db: Database, *,
                  scope: str = "",
                  choice: KernelChoice | None = None) -> KernelChoice:
    """:func:`choose_kernel` + observability.

    Records a ``kernel_select`` span (category ``kernel``) on the active
    tracer and bumps the process-wide ``kernel.selected.<key>`` counter,
    so traces and ``session.metrics()`` show every decision — also one
    made before and passed in as ``choice`` (a memoized route's), which
    is recorded, not made again.
    """
    start = time.time()
    t0 = time.perf_counter()
    if choice is None:
        choice = choose_kernel(requested, query, db)
    dur = time.perf_counter() - t0
    current_tracer().add_span(
        "kernel_select", start, dur, cat="kernel", kernel=choice.key,
        requested=requested, reason=choice.reason, scope=scope,
        query=query.name)
    METRICS.counter(f"kernel.selected.{choice.key}").inc()
    return choice


class AdaptiveKernel:
    """Chooses binary vs wcoj per :meth:`execute` call, then delegates."""

    key = "adaptive"

    def execute(self, query: JoinQuery, db: Database,
                order: Sequence[str] | None = None, *,
                materialize: bool = False,
                budget: int | None = None,
                cache_capacity: int | None = None,
                stats: LeapfrogStats | None = None) -> JoinResult:
        choice = select_kernel("adaptive", query, db, scope="execute")
        return create_kernel(choice.key).execute(
            query, db, order, materialize=materialize, budget=budget,
            cache_capacity=cache_capacity, stats=stats)
