"""Engine protocol and shared helpers for the five Sec. VII competitors."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from ..data.database import Database
from ..data.relation import Relation
from ..distributed.cluster import Cluster
from ..distributed.metrics import CostBreakdown
from ..errors import BudgetExceeded, ConfigError, OutOfMemory, WorkerCrashed
from ..ghd.decomposition import Hypertree
from ..query.query import JoinQuery
from ..runtime.executor import Executor, SerialExecutor
from ..runtime.telemetry import RuntimeTelemetry
from ..runtime.transport import PickleTransport

__all__ = ["EngineResult", "Engine", "EngineOptions", "run_engine_safely",
           "engine_from_options", "attach_degree_order"]


@dataclass(frozen=True)
class EngineOptions:
    """Typed knobs shared by every engine constructor.

    Each field defaults to ``None``, meaning "use the engine's own
    default".  An engine declares which fields it understands (and what
    constructor keyword each maps to) in its ``options_map`` class
    attribute; :func:`engine_from_options` performs the translation, so
    callers — the registry, :class:`repro.api.JoinSession`, benches —
    never need per-engine keyword knowledge.
    """

    #: Optimizer sample budget (ADJ's ``num_samples``).
    samples: int | None = None
    #: Seed for sampling-based optimization.
    seed: int | None = None
    #: Leapfrog work budget, the paper's 12-hour-timeout analogue.
    work_budget: int | None = None
    #: Cap on intermediate tuples (SparkSQL's timeout analogue).
    budget_tuples: int | None = None
    #: Cap on shuffled bindings (BigJoin's timeout analogue).
    budget_bindings: int | None = None
    #: Explicit attribute order (engines that accept one).
    order: tuple[str, ...] | None = None
    #: Explicit hypertree decomposition (engines that accept one).
    hypertree: Hypertree | None = None
    #: :mod:`repro.kernels` key (``wcoj`` | ``binary`` | ``adaptive``)
    #: for per-bag/per-cube join execution; None keeps each engine's
    #: default (``wcoj``).
    kernel: str | None = None

    def merged_with(self, other: "EngineOptions | None" = None,
                    **overrides) -> "EngineOptions":
        """A copy where ``other``'s (then ``overrides``'s) non-None
        fields win over this instance's."""
        values = {f.name: getattr(self, f.name)
                  for f in dataclasses.fields(self)}
        if other is not None:
            for f in dataclasses.fields(other):
                v = getattr(other, f.name)
                if v is not None:
                    values[f.name] = v
        for key, v in overrides.items():
            if key not in values:
                raise ConfigError(
                    f"unknown engine option {key!r}; choose from "
                    f"{tuple(values)}")
            if v is not None:
                values[key] = v
        return EngineOptions(**values)


def engine_from_options(cls, options: EngineOptions | None):
    """Instantiate an engine class from an :class:`EngineOptions`.

    Only the fields named in ``cls.options_map`` are consulted; ``None``
    fields are omitted so the constructor defaults apply.
    """
    kwargs = {}
    if options is not None:
        for opt_field, ctor_kwarg in getattr(cls, "options_map",
                                             {}).items():
            value = getattr(options, opt_field)
            if value is not None:
                kwargs[ctor_kwarg] = value
    return cls(**kwargs)


@dataclass
class EngineResult:
    """What one engine run produced (or how it failed)."""

    engine: str
    query: str
    count: int
    breakdown: CostBreakdown
    shuffled_tuples: int = 0
    rounds: int = 1
    failure: str | None = None        # None | "oom" | "budget" | "crash"
    extra: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.failure is None

    @property
    def total_seconds(self) -> float:
        return self.breakdown.total

    @property
    def telemetry(self) -> RuntimeTelemetry | None:
        """Measured wall-clock telemetry (None only on a failed run)."""
        return self.extra.get("telemetry")

    @property
    def data_plane(self) -> dict | None:
        """Physical data-plane counters (None only on a run that failed
        before it published anything).

        Keys follow :class:`repro.runtime.transport.TransportStats`
        (``published_bytes``, ``shipped_bytes``, ``fetched_bytes``,
        ``freed_blocks``, ...) plus ``transport`` — the basis for
        comparing pickle vs shm vs tcp movement on the same run.
        """
        return self.extra.get("data_plane")

    @property
    def measured_seconds(self) -> float | None:
        t = self.telemetry
        return t.total if t is not None else None

    @property
    def trace(self) -> dict | None:
        """Chrome trace-event document for this run, when traced.

        Present when the session had tracing enabled
        (``RunConfig.trace_path`` / ``REPRO_TRACE`` / CLI ``--trace``):
        a ``{"traceEvents": [...]}`` dict covering this run's spans —
        route, publish, every worker task, including spans merged back
        from remote agents.  Load it in Perfetto or
        ``chrome://tracing``.  See docs/observability.md.
        """
        return self.extra.get("trace")

    @property
    def profile(self):
        """The EXPLAIN ANALYZE report, when the run was profiled.

        A :class:`repro.obs.profile.QueryProfile` attached by
        ``QueryJob.run(profile=True)`` / ``repro run --profile``:
        modeled-vs-measured phases, per-worker skew, per-atom bytes and
        the query's scoped metrics window.  None otherwise.
        """
        return self.extra.get("profile")


class Engine(Protocol):
    """A distributed join engine (the paper's competing methods)."""

    name: str
    #: EngineOptions field -> constructor keyword (see engine_from_options).
    options_map: dict[str, str]

    def run(self, query: JoinQuery, db: Database, cluster: Cluster,
            executor: Executor | None = None) -> EngineResult:
        """Evaluate the query; raises OutOfMemory / BudgetExceeded.

        ``executor`` selects the :mod:`repro.runtime` backend carrying
        the local per-worker computation; None runs the same tasks on a
        private in-process :class:`~repro.runtime.SerialExecutor`.
        """
        ...


def _resolve_executor(executor: Executor | None) -> Executor:
    """The executor a run dispatches its tasks on.

    ``None`` becomes a private :class:`SerialExecutor` over a
    :class:`PickleTransport`: in-process, no pool and no staged blocks,
    so there is nothing to close or leak when the run ends.
    """
    return executor or SerialExecutor(transport=PickleTransport())


def _failure_extra(executor: Executor, baseline, **extra) -> dict:
    """Extra payload for a failed run: real data-plane counters included.

    :func:`repro.runtime.scheduler.run_epoch` has already torn the epoch
    down by the time the failure reaches here, freezing its true counters into the
    transport's ``last_epoch`` — so failed runs report what they
    actually published/shipped instead of zeros.  ``baseline`` is the
    ``last_epoch`` object observed *before* the run: every teardown
    replaces it, so an unchanged identity means this run never tore an
    epoch down (it failed before touching the transport) and reporting
    the previous run's counters would be a lie — report nothing.
    """
    transport = executor.transport
    epoch = transport.last_epoch
    if epoch is not baseline and (epoch.published_blocks
                                  or epoch.shipped_refs):
        extra["data_plane"] = dict(epoch.as_dict(),
                                   transport=transport.name)
    return extra


def run_engine_safely(engine: Engine, query: JoinQuery, db: Database,
                      cluster: Cluster,
                      executor: Executor | None = None) -> EngineResult:
    """Run an engine, converting the paper's two failure modes into a
    failed :class:`EngineResult` (missing bar / frame-top bar).  Runtime
    worker crashes surface the same way (``failure="crash"``)."""
    executor = _resolve_executor(executor)
    baseline = executor.transport.last_epoch
    try:
        return engine.run(query, db, cluster, executor=executor)
    except OutOfMemory:
        return EngineResult(engine=engine.name, query=query.name, count=-1,
                            breakdown=CostBreakdown(), failure="oom",
                            extra=_failure_extra(executor, baseline))
    except BudgetExceeded:
        return EngineResult(engine=engine.name, query=query.name, count=-1,
                            breakdown=CostBreakdown(), failure="budget",
                            extra=_failure_extra(executor, baseline))
    except WorkerCrashed as exc:
        return EngineResult(engine=engine.name, query=query.name, count=-1,
                            breakdown=CostBreakdown(), failure="crash",
                            extra=_failure_extra(executor, baseline,
                                                 crash_reason=str(exc)))


def attach_degree_order(query: JoinQuery, db: Database) -> tuple[str, ...]:
    """The all-space attribute-order heuristic used by HCubeJ ([11]).

    Greedy: start from the attribute with the fewest distinct values
    (most selective), then repeatedly append the attribute occurring in
    the most atoms that already touch the bound set, breaking ties by
    distinct-value count.  This is the baseline 'All-Selected' order of
    Fig. 8 — deliberately *not* restricted to hypertree-valid orders.
    """
    distinct: dict[str, int] = {}
    for attr in query.attributes:
        best = None
        for atom in query.atoms_with(attr):
            rel = db[atom.relation]
            col = atom.attributes.index(attr)
            count = rel.distinct_count(rel.attributes[col])
            best = count if best is None else min(best, count)
        distinct[attr] = best or 0
    order = [min(query.attributes, key=lambda a: (distinct[a], a))]
    while len(order) < len(query.attributes):
        bound = set(order)
        remaining = [a for a in query.attributes if a not in bound]

        def connectivity(a: str) -> int:
            return sum(1 for atom in query.atoms_with(a)
                       if bound & set(atom.attributes))

        order.append(max(remaining,
                         key=lambda a: (connectivity(a), -distinct[a], a)))
    return tuple(order)
