"""The ``wcoj`` kernel: frontier-at-a-time Leapfrog triejoin.

A thin adapter over :func:`repro.wcoj.leapfrog.leapfrog_join` — the
worst-case-optimal path every engine used exclusively before the kernel
layer existed.  Work is accounted from trie segment lengths, not from
the elements the vectorized evaluation touches, so ``kernel="wcoj"``
reproduces the seed counters (``level_tuples``, ``intersection_work``)
exactly; the regression tests pin this.
"""

from __future__ import annotations

from typing import Sequence

from ..data.database import Database
from ..query.query import JoinQuery
from ..wcoj.leapfrog import JoinResult, LeapfrogStats, leapfrog_join


class WcojKernel:
    """Leapfrog triejoin behind the :class:`JoinKernel` interface."""

    key = "wcoj"

    def execute(self, query: JoinQuery, db: Database,
                order: Sequence[str] | None = None, *,
                materialize: bool = False,
                budget: int | None = None,
                cache_capacity: int | None = None,
                stats: LeapfrogStats | None = None) -> JoinResult:
        return leapfrog_join(query, db, order, materialize=materialize,
                             cache_capacity=cache_capacity, budget=budget,
                             stats=stats)
