"""Lazy query jobs: explain, run, estimate, compare.

A :class:`QueryJob` is a (query, database) pair bound to a
:class:`~repro.api.session.JoinSession`.  Nothing is shuffled or
executed until ``run``/``compare`` is called; ``explain`` and
``estimate`` are pure planner/sampler work on the coordinator (no
executor is created, no transport publishes anything — tested via the
data-plane counters).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import cast

from ..core.optimizer import OptimizerReport
from ..core.sampling import CardinalityEstimator
from ..data.database import Database
from ..engines import registry
from ..engines.base import Engine, EngineOptions, EngineResult, \
    run_engine_safely
from ..errors import ConfigError
from ..ghd.decomposition import Hypertree
from ..obs.metrics import METRICS
from ..obs.profile import build_profile
from ..obs.tracing import Tracer, chrome_trace_events, use_tracer
from ..query.query import JoinQuery

__all__ = ["QueryJob", "ExplainReport", "ComparisonReport"]


@dataclass(frozen=True)
class ExplainReport:
    """Plan + GHD + modeled cost breakdown, produced without executing."""

    query: JoinQuery
    hypertree: Hypertree
    report: OptimizerReport
    #: Modeled model-seconds per phase of the chosen plan:
    #: precompute (costM), communication (costC), computation (costE).
    cost_breakdown: dict[str, float] = field(default_factory=dict)
    #: Per-bag :mod:`repro.kernels` decisions under the run's kernel
    #: (the ``kernel`` option, else the session's): ``{bag_index: (key,
    #: reason)}``.
    kernel_decisions: dict[int, tuple[str, str]] = \
        field(default_factory=dict)

    @property
    def plan(self):
        return self.report.plan

    @property
    def estimated_total(self) -> float:
        return self.plan.estimated_cost

    def describe(self) -> str:
        """The CLI ``plan`` rendering: hypertree, plan, costs."""
        query, tree = self.query, self.hypertree
        lines = [f"query: {query!r}",
                 f"hypertree (fhw={tree.width:.2f}):"]
        for bag in tree.bags:
            members = ", ".join(query.atoms[i].relation
                                for i in bag.atom_indices)
            lines.append(
                f"  v{bag.index}: [{members}]  attrs="
                f"{{{','.join(sorted(bag.attributes))}}}  "
                f"width={tree.bag_widths[bag.index]:.2f}")
        lines.append(f"tree edges: {tree.tree_edges}")
        lines.append("")
        lines.append(self.plan.describe())
        lines.append(f"rewritten: {self.plan.rewritten_query()!r}")
        costs = ", ".join(f"{k}={v:.4f}"
                          for k, v in self.cost_breakdown.items())
        lines.append(f"modeled cost (model-s): {costs} "
                     f"-> total={self.estimated_total:.4f}")
        lines.append(f"explored {self.report.explored_configurations} "
                     f"configurations in {self.report.wall_seconds:.2f}s")
        if self.kernel_decisions:
            lines.append("kernel decisions:")
            for index, (key, reason) in sorted(
                    self.kernel_decisions.items()):
                lines.append(f"  v{index}: {key}  ({reason})")
        return "\n".join(lines)


@dataclass(frozen=True)
class ComparisonReport:
    """Results of running several engines on one job, agreement-checked."""

    results: tuple[EngineResult, ...]

    @property
    def counts(self) -> set[int]:
        return {r.count for r in self.results if r.ok}

    @property
    def agreed(self) -> bool:
        """True when every *successful* engine produced the same count."""
        return len(self.counts) <= 1

    @property
    def count(self) -> int | None:
        """The agreed count, or None when engines disagree / all failed."""
        counts = self.counts
        return counts.pop() if len(counts) == 1 else None

    @property
    def failures(self) -> tuple[EngineResult, ...]:
        return tuple(r for r in self.results if not r.ok)

    def describe(self) -> str:
        lines = [f"{'engine':14} {'count':>12} {'total(s)':>10} "
                 f"{'wall(s)':>10}"]
        for r in self.results:
            if r.ok:
                wall = (f"{r.measured_seconds:10.3f}"
                        if r.measured_seconds is not None else f"{'-':>10}")
                lines.append(f"{r.engine:14} {r.count:>12,} "
                             f"{r.total_seconds:>10.4f} {wall}")
            else:
                lines.append(f"{r.engine:14} {'FAILED (' + r.failure + ')':>12}")
        if not self.agreed:
            lines.append(f"DISAGREEMENT: {sorted(self.counts)}")
        return "\n".join(lines)


class QueryJob:
    """A lazily-evaluated query bound to a session's resources."""

    def __init__(self, session, query: JoinQuery, db: Database):
        self.session = session
        self.query = query
        self.db = db

    def __repr__(self) -> str:
        return f"QueryJob({self.query.name!r}, {self.query.num_atoms} atoms)"

    # -- pure planner work (no execution) ------------------------------------

    def explain(self, options: EngineOptions | None = None,
                **overrides) -> ExplainReport:
        """The ADJ plan for this query: GHD, plan, modeled costs.

        The plan ``run("adj")`` with the same options executes, from the
        same plan cache (:meth:`repro.engines.adj.ADJ.plan`): a miss
        runs Algorithm 2 on the coordinator only — no shuffle, no
        executor, no transport traffic — and a hit samples nothing.
        """
        from ..engines.adj import ADJ

        opts = self.session.config.engine_options(options, **overrides)
        adj = cast(ADJ, registry.create("adj", opts))
        report = adj.plan(self.query, self.db, self.session.cluster)
        tree = report.plan.hypertree
        costs = report.breakdown
        breakdown = {"precompute": costs.precompute,
                     "communication": costs.communication,
                     "computation": costs.computation}
        # Per-bag kernel decisions (pure — no spans/metrics recorded):
        # what repro.kernels would pick for each bag's subquery under
        # the run's kernel.
        from ..kernels.adaptive import choose_kernel

        decisions: dict[int, tuple[str, str]] = {}
        for bag in tree.bags:
            choice = choose_kernel(adj.kernel, bag.subquery(self.query)[0],
                                   self.db)
            decisions[bag.index] = (choice.key, choice.reason)
        return ExplainReport(query=self.query, hypertree=tree,
                             report=report, cost_breakdown=breakdown,
                             kernel_decisions=decisions)

    def estimate(self, samples: int | None = None,
                 seed: int | None = None):
        """Sampling-based cardinality estimate (Sec. IV), coordinator-only."""
        cfg = self.session.config
        estimator = CardinalityEstimator(
            self.db,
            num_samples=cfg.samples if samples is None else samples,
            seed=cfg.seed if seed is None else seed)
        return estimator.estimate(self.query)

    # -- execution -----------------------------------------------------------

    def _resolve(self, engine: str | Engine,
                 options: EngineOptions | None, **overrides) -> Engine:
        if isinstance(engine, str):
            opts = self.session.config.engine_options(options, **overrides)
            return registry.create(engine, opts)
        # An engine instance is already fully configured: silently
        # dropping caller options would mask a mistake.
        if options is not None or overrides:
            raise ConfigError(
                f"options cannot be applied to an engine instance "
                f"({type(engine).__name__}); pass a registry key, or "
                f"construct the instance with the desired knobs")
        return engine

    def run(self, engine: str | Engine = "adj",
            options: EngineOptions | None = None,
            profile: bool | None = None,
            **overrides) -> EngineResult:
        """Run one engine (registry key or instance) on this job.

        Failures (OOM / budget / worker crash) come back as a failed
        :class:`EngineResult`, never as an exception — the session's
        executor stays owned and is torn down by ``session.close()``.

        ``profile=True`` (default: ``RunConfig.profile`` /
        ``REPRO_PROFILE``) assembles an EXPLAIN ANALYZE
        :class:`~repro.obs.profile.QueryProfile` onto
        ``result.profile``: spans are recorded into the session tracer
        (or a run-local one when tracing is off) and the run executes
        under a :meth:`~repro.obs.metrics.MetricsRegistry.scope`
        labeled with its ``query_id``, so every span and metric of the
        run — including those shipped home from pool children and
        remote agents — carries per-query attribution.
        """
        obj = self._resolve(engine, options, **overrides)
        # Register with the session *before* touching shared resources:
        # session.close() waits for registered runs, so an executor or
        # transport can never be torn down underneath this run.
        self.session._begin_run()
        try:
            return self._run_resolved(obj, engine, profile)
        finally:
            self.session._end_run()

    def _run_resolved(self, obj: Engine, engine: "str | Engine",
                      profile: bool | None) -> EngineResult:
        executor = self.session.executor()
        tracer = self.session.tracer()
        if profile is None:
            profile = self.session.config.profile
        METRICS.counter("query.runs").inc()
        if not tracer.enabled and not profile:
            # The zero-overhead fast path: no tracer install, no scope,
            # no Span objects anywhere (regression-tested).
            start = time.perf_counter()
            result = run_engine_safely(obj, self.query, self.db,
                                       self.session.cluster,
                                       executor=executor)
            METRICS.histogram("query.seconds").observe(
                time.perf_counter() - start)
            if not result.ok:
                METRICS.counter("query.failures").inc()
            return result
        # Install the run tracer (thread-local wins in worker threads;
        # the module-global makes routing/publish threads on this
        # process visible too) and hand the run's own slice of the
        # timeline back on the result.  Profiled-but-untraced runs use
        # a run-local tracer so the session trace file stays opt-in.
        run_tracer = tracer if tracer.enabled else Tracer()
        query_id = self.session.next_query_id(self.query.name)
        scope = METRICS.scope(query_id) if profile else None
        if profile:
            METRICS.counter("query.profiled").inc()
        mark = run_tracer.mark()
        previous_query_id = run_tracer.query_id
        run_tracer.query_id = query_id
        start = time.perf_counter()
        try:
            with use_tracer(run_tracer):
                with run_tracer.span(
                        "engine_run", cat="engine",
                        engine=getattr(obj, "name", str(engine)),
                        query=self.query.name or "?",
                        kernel=self.session.config.kernel):
                    if scope is not None:
                        with scope:
                            result = run_engine_safely(
                                obj, self.query, self.db,
                                self.session.cluster, executor=executor)
                    else:
                        result = run_engine_safely(
                            obj, self.query, self.db,
                            self.session.cluster, executor=executor)
        finally:
            run_tracer.query_id = previous_query_id
        METRICS.histogram("query.seconds").observe(
            time.perf_counter() - start)
        if not result.ok:
            METRICS.counter("query.failures").inc()
        spans = run_tracer.spans[mark:]
        result.extra["trace"] = {
            "traceEvents": chrome_trace_events(spans),
            "displayTimeUnit": "ms",
        }
        if profile:
            result.extra["profile"] = build_profile(
                result, query_id=query_id,
                backend=self.session.config.backend,
                transport_label=self.session.transport_label,
                spans=spans, metrics_window=scope.snapshot())
        return result

    def compare(self, engines=None, options: EngineOptions | None = None,
                profile: bool | None = None,
                **overrides) -> ComparisonReport:
        """Run several engines and cross-check their counts.

        ``engines`` defaults to every registered engine; entries may be
        registry keys or engine instances.  ``profile`` passes through
        to each :meth:`run`, so every result carries its own
        :class:`~repro.obs.profile.QueryProfile`.
        """
        names = self.session.engines() if engines is None else engines
        return ComparisonReport(results=tuple(
            self.run(e, options, profile=profile, **overrides)
            for e in names))
