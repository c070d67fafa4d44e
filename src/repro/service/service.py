"""QueryService: multi-tenant concurrent query execution on a warm cluster.

The service layer of the stack (docs/service.md)::

    ┌ ServiceClient / CLI / REPL ┐        (repro.net.service)
    │        QueryService        │  ← admission, budgets, caches
    │       ClusterContext       │  ← shared executor + data plane
    └─ ExecutorView per query ───┘  ← per-epoch isolation

A :class:`QueryService` owns one
:class:`~repro.api.context.ClusterContext` and multiplexes many
callers' queries onto it:

- **Bounded admission** — at most ``max_concurrent`` queries execute at
  once and at most ``queue_depth`` more may wait; beyond that
  :meth:`submit` raises :class:`~repro.errors.AdmissionError`
  (``reason="capacity"``) immediately — backpressure, not failure.
- **Per-tenant work budgets** — the engines' ``work_budget`` /
  ``BudgetExceeded`` tripwire promoted into a scheduler policy.  Each
  tenant gets a budget of intersection-work units (optionally refilled
  every ``window_seconds``); an over-budget tenant is handled per
  ``budget_policy``: ``"reject"`` (429-style, at submit),
  ``"queue"`` (wait for the next refill, bounded by
  ``queue_timeout``), or ``"downgrade"`` (run with ``work_budget``
  clamped to what remains — the run itself then trips ``BudgetExceeded``
  cleanly if it needs more).  Other tenants are never affected.
- **Result cache** — successful counts keyed on
  ``(data_key(query, db), engine, knobs)``, where the data part is the
  digest of each relation the query reads; a warm hit ships zero bytes
  (``data_plane`` all zeros, ``transport="cache"``).  A changed relation
  is a new key, so no entry goes stale; :meth:`invalidate` frees entries.
- **Plans** are not the service's: every ADJ run, whichever tenant or
  session drives it, plans through the process-wide
  :data:`~repro.core.optimizer.PLAN_CACHE`, keyed on the same digests.

Everything is observable under ``service.*`` metrics (admissions,
rejections, cache hit/miss, active/queued gauges, latency histogram) —
scrape them via the agent EXPO endpoint or ``session.metrics()``.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

from ..api.context import ClusterContext
from ..api.session import JoinSession
from ..core.optimizer import PLAN_CACHE
from ..data.database import Database
from ..engines.base import EngineOptions, EngineResult
from ..errors import AdmissionError, ConfigError
from ..knobs import env
from ..obs.log import get_logger, kv
from ..obs.metrics import METRICS
from ..query.parser import parse_query
from ..query.query import JoinQuery
from .cache import ResultCache, result_key

log = get_logger("repro.service")

__all__ = ["QueryService", "QueryRequest", "BUDGET_POLICIES"]

BUDGET_POLICIES = ("reject", "queue", "downgrade")


@dataclass
class QueryRequest:
    """One unit of admitted work."""

    query: JoinQuery
    db: Database
    engine: str = "adj"
    tenant: str = "default"
    options: EngineOptions | None = None
    use_cache: bool = True
    profile: bool = False


class _TenantState:
    """Work-unit accounting for one tenant (guarded by the service lock)."""

    def __init__(self, budget: int, window_seconds: float | None):
        self.budget = int(budget)
        self.window_seconds = window_seconds
        self.consumed = 0
        self.window_start = time.monotonic()

    def remaining(self, now: float) -> int:
        if (self.window_seconds is not None
                and now - self.window_start >= self.window_seconds):
            self.consumed = 0
            self.window_start = now
        return self.budget - self.consumed

    def charge(self, work: int) -> None:
        self.consumed += max(0, int(work))


class QueryService:
    """Admission-controlled, cached, multi-tenant query execution."""

    def __init__(self, context: ClusterContext | None = None,
                 config=None, *,
                 max_concurrent: int | None = None,
                 queue_depth: int | None = None,
                 tenant_budgets: "dict[str, int] | None" = None,
                 budget_policy: str = "reject",
                 budget_window: float | None = None,
                 queue_timeout: float = 30.0,
                 result_cache_bytes: int | None = None):
        if budget_policy not in BUDGET_POLICIES:
            raise ConfigError(
                f"budget_policy must be one of {BUDGET_POLICIES}, "
                f"got {budget_policy!r}")
        if context is not None and config is not None:
            raise ConfigError("pass either context= or config=, not both")
        self.max_concurrent = (env("REPRO_MAX_CONCURRENT")
                               if max_concurrent is None
                               else max(1, int(max_concurrent)))
        self.queue_depth = (2 * self.max_concurrent if queue_depth is None
                            else max(0, int(queue_depth)))
        self.budget_policy = budget_policy
        self.budget_window = budget_window
        self.queue_timeout = queue_timeout
        self.result_cache = ResultCache(
            max_bytes=env("REPRO_RESULT_CACHE_BYTES")
            if result_cache_bytes is None else result_cache_bytes)
        self._context = (context or ClusterContext(config)).acquire()
        self._session = JoinSession(context=self._context)
        self._tenants: dict[str, _TenantState] = {}
        for tenant, budget in (tenant_budgets or {}).items():
            self._tenants[tenant] = _TenantState(budget, budget_window)
        self._lock = threading.Lock()
        self._budget_cond = threading.Condition(self._lock)
        self._inflight = 0        # admitted, not yet finished
        self._active = 0          # actually executing
        self._closed = False
        self._pool = ThreadPoolExecutor(
            max_workers=self.max_concurrent,
            thread_name_prefix="repro-service")

    # -- lifecycle -----------------------------------------------------------

    @property
    def context(self) -> ClusterContext:
        return self._context

    def warm(self) -> "QueryService":
        """Stand the shared executor up ahead of the first query."""
        self._context.executor()
        return self

    def close(self) -> None:
        """Drain in-flight queries, then release the context (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._budget_cond.notify_all()
        self._pool.shutdown(wait=True)
        try:
            self._session.close()
        finally:
            self._context.release()
        log.info("service closed %s", kv(
            plans=len(PLAN_CACHE), results=len(self.result_cache)))

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- tenants -------------------------------------------------------------

    def set_tenant_budget(self, tenant: str, work_budget: int,
                          window_seconds: float | None = None) -> None:
        """Install (or replace) a tenant's work budget.

        ``window_seconds`` overrides the service-wide ``budget_window``
        for this tenant; None inherits it.
        """
        window = (self.budget_window if window_seconds is None
                  else window_seconds)
        with self._lock:
            self._tenants[tenant] = _TenantState(work_budget, window)
            self._budget_cond.notify_all()

    def tenant_remaining(self, tenant: str) -> int | None:
        """Work units the tenant may still spend (None = unlimited)."""
        with self._lock:
            state = self._tenants.get(tenant)
            return None if state is None else state.remaining(
                time.monotonic())

    # -- admission + execution -----------------------------------------------

    def submit(self, query: "JoinQuery | str", db: Database,
               engine: str = "adj", tenant: str = "default",
               options: EngineOptions | None = None,
               use_cache: bool = True,
               profile: bool = False) -> "Future[EngineResult]":
        """Admit one query; returns a Future resolving to its result.

        Raises :class:`AdmissionError` *synchronously* when the bounded
        queue is full (``reason="capacity"``) or — under the ``reject``
        policy — when the tenant's budget is exhausted
        (``reason="budget"``).  Execution failures never surface as
        exceptions: the Future resolves to a failed
        :class:`EngineResult`, exactly like ``QueryJob.run``.
        """
        if isinstance(query, str):
            query = parse_query(query)
        request = QueryRequest(query=query, db=db, engine=engine,
                               tenant=tenant, options=options,
                               use_cache=use_cache, profile=profile)
        METRICS.counter("service.submitted").inc()
        with self._lock:
            if self._closed:
                raise ConfigError("this QueryService is closed")
            if self._inflight >= self.max_concurrent + self.queue_depth:
                METRICS.counter("service.rejected_capacity").inc()
                raise AdmissionError(
                    f"admission queue full ({self._inflight} in flight, "
                    f"bound {self.max_concurrent}+{self.queue_depth}); "
                    f"retry later", reason="capacity", tenant=tenant)
            if self.budget_policy == "reject":
                state = self._tenants.get(tenant)
                if state is not None \
                        and state.remaining(time.monotonic()) <= 0:
                    METRICS.counter("service.rejected_budget").inc()
                    raise AdmissionError(
                        f"tenant {tenant!r} is over its work budget "
                        f"({state.budget} units)", reason="budget",
                        tenant=tenant)
            self._inflight += 1
            METRICS.gauge("service.queued").set(
                self._inflight - self._active)
        try:
            return self._pool.submit(self._run_request, request)
        except RuntimeError:
            # shutdown raced the submit
            with self._lock:
                self._inflight -= 1
            raise ConfigError("this QueryService is closed") from None

    def execute(self, query: "JoinQuery | str", db: Database,
                engine: str = "adj", tenant: str = "default",
                options: EngineOptions | None = None,
                use_cache: bool = True,
                profile: bool = False) -> EngineResult:
        """Synchronous :meth:`submit` — blocks for the result."""
        return self.submit(query, db, engine=engine, tenant=tenant,
                           options=options, use_cache=use_cache,
                           profile=profile).result()

    # -- internals -----------------------------------------------------------

    def _await_budget(self, request: QueryRequest) -> int | None:
        """Apply the budget policy inside the driver thread.

        Returns the work budget the run must respect (None = the
        session default).  ``queue`` blocks here — on a driver thread,
        never the caller's — until the tenant's window refills.
        """
        with self._lock:
            state = self._tenants.get(request.tenant)
            if state is None:
                return None
            now = time.monotonic()
            remaining = state.remaining(now)
            if self.budget_policy == "downgrade":
                # Clamp instead of refusing: the run itself trips
                # BudgetExceeded cleanly if it needs more than remains.
                if remaining < state.budget:
                    METRICS.counter("service.downgraded").inc()
                return max(1, remaining)
            if self.budget_policy == "queue" and remaining <= 0:
                if state.window_seconds is None:
                    raise AdmissionError(
                        f"tenant {request.tenant!r} is over its work "
                        f"budget and has no refill window",
                        reason="budget", tenant=request.tenant)
                deadline = now + self.queue_timeout
                while remaining <= 0:
                    if self._closed:
                        raise ConfigError("this QueryService is closed")
                    now = time.monotonic()
                    if now >= deadline:
                        METRICS.counter("service.rejected_budget").inc()
                        raise AdmissionError(
                            f"tenant {request.tenant!r} stayed over "
                            f"budget for {self.queue_timeout}s",
                            reason="budget", tenant=request.tenant)
                    refill_in = max(0.01, state.window_seconds
                                    - (now - state.window_start))
                    METRICS.counter("service.budget_waits").inc()
                    self._budget_cond.wait(
                        timeout=min(refill_in, deadline - now))
                    remaining = state.remaining(time.monotonic())
            return max(1, remaining) if remaining < state.budget else None

    def _charge(self, request: QueryRequest, result: EngineResult,
                clamped: int | None) -> None:
        with self._lock:
            state = self._tenants.get(request.tenant)
            if state is None:
                return
            work = result.extra.get("leapfrog_work")
            if work is None:
                # Budget-tripped runs burned (at least) their clamp;
                # other failures charge nothing measurable.
                work = clamped or 0 if result.failure == "budget" else 0
            state.charge(int(work))

    def _run_request(self, request: QueryRequest) -> EngineResult:
        start = time.perf_counter()
        with self._lock:
            self._active += 1
            METRICS.gauge("service.active").set(self._active)
            METRICS.gauge("service.queued").set(
                self._inflight - self._active)
        try:
            clamped = self._await_budget(request)
            opts = self._session.config.engine_options(request.options)
            if clamped is not None:
                current = opts.work_budget
                opts = opts.merged_with(None, work_budget=(
                    clamped if current is None else min(clamped, current)))
            rkey = None
            if request.use_cache:
                rkey = result_key(request.query, request.db,
                                  request.engine, opts)
                hit = self.result_cache.get(
                    rkey, query_id=self._context.next_query_id(
                        request.query.name))
                if hit is not None:
                    METRICS.counter("service.completed").inc()
                    return hit
            job = self._session.query_from(request.query, request.db)
            result = job.run(request.engine, options=opts,
                             profile=request.profile)
            self._charge(request, result, clamped)
            if result.ok and rkey is not None:
                self.result_cache.put(rkey, result)
            METRICS.counter("service.completed").inc()
            if not result.ok:
                METRICS.counter("service.failed_runs").inc()
            return result
        finally:
            with self._lock:
                self._active -= 1
                self._inflight -= 1
                METRICS.gauge("service.active").set(self._active)
                METRICS.gauge("service.queued").set(
                    self._inflight - self._active)
            METRICS.histogram("service.seconds").observe(
                time.perf_counter() - start)

    # -- maintenance ---------------------------------------------------------

    def invalidate(self, db: Database | None = None) -> int:
        """Drop the cached results that read any relation of ``db``
        (every result for None); returns how many were dropped.  Plans
        stay: their keys name the content they were made from."""
        return self.result_cache.invalidate(db)

    def stats(self) -> dict:
        """A point-in-time snapshot for monitors and the wire STAT op."""
        with self._lock:
            tenants = {name: state.remaining(time.monotonic())
                       for name, state in self._tenants.items()}
            return {
                "active": self._active,
                "queued": self._inflight - self._active,
                "inflight": self._inflight,
                "max_concurrent": self.max_concurrent,
                "queue_depth": self.queue_depth,
                "budget_policy": self.budget_policy,
                "plan_cache_entries": len(PLAN_CACHE),
                "result_cache_entries": len(self.result_cache),
                "tenants": tenants,
                "closed": self._closed,
            }

    def __repr__(self) -> str:
        return (f"QueryService(max_concurrent={self.max_concurrent}, "
                f"queue_depth={self.queue_depth}, "
                f"policy={self.budget_policy!r})")
