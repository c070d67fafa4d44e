"""Algorithm 2: the ADJ plan optimizer.

The optimizer fixes the traversal order in *reverse* (last bag first,
because the deepest Leapfrog levels dominate computation — Fig. 6) and,
at every step, compares pre-computing the considered bag against leaving
it as raw relations:

    cost'  = costC(C)            + costE^i(C, O')           (keep raw)
    cost'' = costM(v) + costC(C+v) + costE^i(C+v, O')       (pre-compute)

Only suffix positions are priced during the search (the costE of earlier
bags is identical across candidates at step i, per the paper's remark
after Alg. 2).  The loop runs O(n*^2) cost evaluations (Lemma 1), which
the returned :class:`OptimizerReport` counts so tests can check the bound.

A report is a deterministic function of the query, the relations it
reads, the sample size and seed, the HCube implementation, what the
optimizer reads of the cluster and the hypertree, so it is computed once
per process: ``PLAN_CACHE`` (a :class:`PlanCache`, the library's one
LRU) holds the reports, and :meth:`repro.engines.adj.ADJ.plan` — the
path of ``run("adj")`` and of ``QueryJob.explain`` alike — is its one
user.  Every cache key names its data by :func:`data_key`, the digests
of the relations the query reads, so no key goes stale and a relation
the query does not read never moves it.  ``Optimizer(...).run()`` stays
the uncached computation.
"""

from __future__ import annotations

import math
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable

from ..data.database import Database
from ..distributed.cluster import Cluster
from ..distributed.metrics import CostBreakdown
from ..errors import PlanError
from ..ghd.decomposition import Hypertree, optimal_hypertree
from ..obs.metrics import METRICS
from ..query.query import JoinQuery
from .cost_model import CostModel
from .plan import QueryPlan
from .sampling import CardinalityEstimator

__all__ = ["OptimizerReport", "Optimizer", "optimize_plan",
           "communication_first_plan", "PlanCache", "PLAN_CACHE",
           "PLAN_CACHE_CAPACITY", "data_key"]

#: Entries kept by the process-wide :data:`PLAN_CACHE`.
PLAN_CACHE_CAPACITY = 128


@dataclass(frozen=True)
class OptimizerReport:
    """The chosen plan plus how much work choosing it took."""

    plan: QueryPlan
    explored_configurations: int = 0
    sampling_work: int = 0
    wall_seconds: float = 0.0
    cost_trace: tuple[tuple[int, bool, float], ...] = ()
    #: The plan's modeled costs per phase (costM, costC, costE^i).
    breakdown: CostBreakdown = field(default_factory=CostBreakdown)


def data_key(query: JoinQuery, db: Database) -> tuple:
    """The data part of every cache key: the query text plus the
    ``(name, digest)`` of each distinct relation the query reads."""
    return (repr(query), tuple((name, db[name].digest) for name in
                               sorted(set(query.relation_names()))))


class PlanCache:
    """The library's one LRU, bounded by entry count and by the summed
    sizes its entries were put with (``None`` leaves a bound off).

    Plans and pre-computed bags are bounded by count; the query
    service's results and a home process's resident join inputs
    (:mod:`repro.runtime.residency`, re-put with their measured size
    once a task has built their index) by bytes.  An entry larger than
    ``max_bytes`` is not admitted, so ``max_bytes=0`` caches nothing.
    Thread-safe; a :meth:`lookup` miss computes outside the lock, so two
    concurrent misses on one key compute the same deterministic value
    twice.  Counted under ``<counters>_hits`` / ``_misses`` /
    ``_evictions`` (``core.plan_cache_*`` for the plan cache; ``None``
    counts nothing, for a caller that reports its own); a byte-bounded
    cache also sets the ``<counters>_bytes`` gauge.
    """

    def __init__(self, capacity: int | None = PLAN_CACHE_CAPACITY,
                 counters: str | None = "core.plan_cache",
                 max_bytes: int | None = None):
        self.capacity = (math.inf if capacity is None
                         else max(1, int(capacity)))
        self.max_bytes = (math.inf if max_bytes is None
                          else max(0, int(max_bytes)))
        self.counters = counters
        self.nbytes = 0
        self._entries: "OrderedDict[Hashable, tuple[Any, int]]" = \
            OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Any:
        """The value cached under ``key`` (refreshed), or None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        if self.counters is not None:
            outcome = "misses" if entry is None else "hits"
            METRICS.counter(f"{self.counters}_{outcome}").inc()
        return None if entry is None else entry[0]

    def put(self, key: Hashable, value: Any, nbytes: int = 0) -> int:
        """Cache ``value`` under ``key`` (replacing what it held) as the
        most recently used entry; least recently used entries go while
        either bound is exceeded.  Returns how many entries went, a
        replaced one too large to keep among them."""
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self.nbytes -= old[1]
            admitted = nbytes <= self.max_bytes
            if admitted:
                self.nbytes += nbytes
                self._entries[key] = (value, nbytes)
            evicted = int(old is not None and not admitted)
            while (len(self._entries) > self.capacity
                   or self.nbytes > self.max_bytes):
                self.nbytes -= self._entries.popitem(last=False)[1][1]
                evicted += 1
            if evicted and self.counters is not None:
                METRICS.counter(f"{self.counters}_evictions").inc(evicted)
            self._set_gauge()
        return evicted

    def lookup(self, key: Hashable, compute: Callable[[], Any]
               ) -> tuple[Any, bool]:
        """The value cached under ``key`` (computed on a miss) and
        whether it was a hit."""
        value = self.get(key)
        if value is not None:
            return value, True
        value = compute()
        self.put(key, value)
        return value, False

    def clear(self, where: Callable[[Hashable], bool] | None = None
              ) -> int:
        """Drop the entries whose key satisfies ``where`` (all of them
        by default); returns how many were dropped."""
        with self._lock:
            stale = [k for k in self._entries if where is None or where(k)]
            for key in stale:
                self.nbytes -= self._entries.pop(key)[1]
            self._set_gauge()
        return len(stale)

    def _set_gauge(self) -> None:
        if self.max_bytes < math.inf and self.counters is not None:
            METRICS.gauge(f"{self.counters}_bytes").set(self.nbytes)

    def keys(self) -> tuple[Hashable, ...]:
        """The cached keys, least recently used first."""
        with self._lock:
            return tuple(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


#: The process-wide plan cache (see the module docstring).
PLAN_CACHE = PlanCache()


class Optimizer:
    """Algorithm 2 over a fixed query/database/cluster triple."""

    def __init__(self, query: JoinQuery, db: Database, cluster: Cluster,
                 hypertree: Hypertree | None = None,
                 estimator: CardinalityEstimator | None = None,
                 hcube_impl: str = "pull"):
        self.query = query
        self.db = db
        self.cluster = cluster
        self.hypertree = hypertree or optimal_hypertree(query)
        self.estimator = estimator or CardinalityEstimator(db)
        self.cost_model = CostModel(query, db, cluster, self.hypertree,
                                    self.estimator, hcube_impl=hcube_impl)

    def _removal_keeps_connected(self, remaining: set[int], v: int) -> bool:
        """Line 6 of Alg. 2: V \\ {v} must stay connected in T."""
        rest = remaining - {v}
        if len(rest) <= 1:
            return True
        tree = self.hypertree
        start = next(iter(rest))
        seen = {start}
        frontier = [start]
        while frontier:
            u = frontier.pop()
            for w in tree.neighbors(u) & rest:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return seen == rest

    def run(self) -> OptimizerReport:
        t0 = time.perf_counter()
        tree = self.hypertree
        model = self.cost_model
        bags = {b.index: b for b in tree.bags}
        remaining: set[int] = set(bags)
        chosen_pre: frozenset[int] = frozenset()
        reverse_order: list[int] = []
        explored = 0
        trace: list[tuple[int, bool, float]] = []

        while remaining:
            best: tuple[float, int, bool] | None = None
            for v in sorted(remaining):
                if not self._removal_keeps_connected(remaining, v):
                    continue
                earlier = remaining - {v}
                # cost' — leave v's relations raw.
                cost_keep = (model.cost_c(chosen_pre)
                             + model.cost_e(v, chosen_pre, earlier))
                explored += 1
                if best is None or cost_keep < best[0]:
                    best = (cost_keep, v, False)
                # cost'' — pre-compute v (multi-atom bags only).
                if not bags[v].is_single_atom and v not in chosen_pre:
                    with_v = chosen_pre | {v}
                    cost_pre = (model.cost_m(v)
                                + model.cost_c(with_v)
                                + model.cost_e(v, with_v, earlier))
                    explored += 1
                    if cost_pre < best[0]:
                        best = (cost_pre, v, True)
            if best is None:
                raise PlanError(
                    "no bag can be removed while keeping the hypertree "
                    "connected — malformed hypertree?")
            cost, v_star, precompute = best
            trace.append((v_star, precompute, cost))
            if precompute:
                chosen_pre = chosen_pre | {v_star}
            reverse_order.append(v_star)
            remaining.discard(v_star)

        traversal = tuple(reversed(reverse_order))
        attribute_order = tree.attribute_order(traversal)
        plan = QueryPlan(
            query=self.query,
            hypertree=tree,
            traversal=traversal,
            precompute=chosen_pre,
            attribute_order=attribute_order,
            estimated_cost=model.plan_cost(chosen_pre, traversal),
        )
        return OptimizerReport(
            plan=plan,
            explored_configurations=explored,
            sampling_work=self.estimator.total_work,
            wall_seconds=time.perf_counter() - t0,
            cost_trace=tuple(trace),
            breakdown=model.plan_breakdown(chosen_pre, traversal),
        )


def optimize_plan(query: JoinQuery, db: Database, cluster: Cluster,
                  **kwargs) -> OptimizerReport:
    """One-shot convenience wrapper around :class:`Optimizer`."""
    return Optimizer(query, db, cluster, **kwargs).run()


def communication_first_plan(query: JoinQuery, db: Database,
                             cluster: Cluster,
                             hypertree: Hypertree | None = None
                             ) -> QueryPlan:
    """The HCubeJ strategy: no pre-computation, default traversal order.

    Used as the paper's Communication-First baseline in Fig. 1(b) and
    Tables II-IV.
    """
    tree = hypertree or optimal_hypertree(query)
    traversal = next(tree.traversal_orders())
    return QueryPlan(
        query=query,
        hypertree=tree,
        traversal=traversal,
        precompute=frozenset(),
        attribute_order=tree.attribute_order(traversal),
    )
