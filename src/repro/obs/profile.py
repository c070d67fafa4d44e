"""EXPLAIN ANALYZE: one structured profile per executed query.

A :class:`QueryProfile` is assembled *after* a run from streams the
stack already produces — the modeled :class:`CostBreakdown`, the
measured :class:`RuntimeTelemetry`, the run's span slice, the
data-plane counters and the query's :class:`MetricsScope` window — so
profiling adds **no** instrumentation points to the engines; it only
reads what tracing/metrics already recorded (docs/observability.md).

``QueryJob.run(profile=True)`` / ``repro run --profile`` build one and
attach it as ``result.extra["profile"]``; ``repro profile`` renders it.
The report reconciles by construction:

- ``measured`` phase seconds are exactly ``telemetry.phase_seconds``
  (their sum equals ``RuntimeTelemetry.total``); ADJ's coordinator
  walls (``optimize``, ``precompute``) are measured too, so a plan-cache
  hit reads as modeled optimization seconds against measured
  microseconds;
- ``data_plane`` is the same dict as ``EngineResult.data_plane``;
- per-atom bytes aggregate the transport's publish spans (logical
  bytes staged per relation — the pickle transport *ships* those bytes
  inside task payloads instead of publishing them, so compare against
  ``published_bytes`` or ``shipped_bytes`` per the transport).

Rendering: :meth:`QueryProfile.render` (a tree for terminals) and
:meth:`QueryProfile.as_dict` (the JSON schema CI validates;
``version`` gates future shape changes).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

__all__ = ["PhaseRow", "QueryProfile", "build_profile",
           "PROFILE_SCHEMA_VERSION"]

#: Bumped whenever :meth:`QueryProfile.as_dict` changes shape.
PROFILE_SCHEMA_VERSION = 1

#: Modeled cost phase -> the measured telemetry phases it corresponds
#: to.  ``communication`` is the shuffle/route + publish wall;
#: ``computation`` is task execution; ``optimization``/``precompute``
#: are ADJ's coordinator walls before any task is dispatched — the plan
#: lookup (Algorithm 2 on a plan-cache miss) and materializing the
#: chosen bags.  Engines without those phases leave the rows unmeasured.
_PHASE_MAP: dict[str, tuple[str, ...]] = {
    "optimization": ("optimize",),
    "precompute": ("precompute",),
    "communication": ("shuffle", "publish"),
    "computation": ("local_join",),
}


@dataclass(frozen=True)
class PhaseRow:
    """One modeled-vs-measured line of the profile tree."""

    name: str
    modeled: float
    #: Measured wall-clock seconds; None when the run carries no
    #: telemetry (it failed before reporting any) or did not record the
    #: phase (optimization/precompute outside ADJ).
    measured: float | None = None
    #: The telemetry phases folded into ``measured`` (e.g. shuffle +
    #: publish for communication), for the tree rendering.
    parts: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"name": self.name, "modeled": self.modeled,
                "measured": self.measured, "parts": dict(self.parts)}


@dataclass
class QueryProfile:
    """The EXPLAIN ANALYZE report for one executed query."""

    query_id: str
    query: str
    engine: str
    count: int
    ok: bool
    failure: str | None
    backend: str
    transport: str | None
    kernel: str | None
    kernel_reason: str | None
    #: Modeled cost phases side by side with measured wall-clock.
    phases: list[PhaseRow] = field(default_factory=list)
    modeled_total: float = 0.0
    measured_total: float | None = None
    overlap_seconds: float | None = None
    #: Coordinator-visible wall seconds summed per span name
    #: (route/publish/worker_task/merge/teardown/...).
    span_wall: dict[str, float] = field(default_factory=dict)
    span_count: int = 0
    #: Per-worker task seconds, straggler and skew attribution.
    worker_seconds: dict[str, float] = field(default_factory=dict)
    tasks_executed: int = 0
    straggler_worker: str | None = None
    straggler_seconds: float | None = None
    #: max(worker) / mean(worker): 1.0 = perfectly balanced.
    skew_ratio: float | None = None
    #: The run's :attr:`EngineResult.data_plane` dict, verbatim.
    data_plane: dict | None = None
    #: Published bytes attributed to each atom relation (from the
    #: transport's publish spans).
    atom_bytes: dict[str, int] = field(default_factory=dict)
    #: Per-bag kernel decisions ``[{bag, kernel, reason}]`` when the
    #: engine recorded them (yannakakis/adj), annotated with realized
    #: intermediate sizes when available.
    kernel_decisions: list[dict] = field(default_factory=list)
    #: Realized intermediate sizes: tuples per traversal level
    #: (estimated counterpart rides in ``estimated_cost``).
    level_tuples: list[int] = field(default_factory=list)
    estimated_cost: float | None = None
    #: The query's scoped metrics window (exact per-query deltas,
    #: including windowed task-latency quantiles).
    metrics: dict = field(default_factory=dict)

    # -- export --------------------------------------------------------------

    def as_dict(self) -> dict:
        return {
            "version": PROFILE_SCHEMA_VERSION,
            "query_id": self.query_id,
            "query": self.query,
            "engine": self.engine,
            "count": self.count,
            "ok": self.ok,
            "failure": self.failure,
            "backend": self.backend,
            "transport": self.transport,
            "kernel": self.kernel,
            "kernel_reason": self.kernel_reason,
            "phases": [row.as_dict() for row in self.phases],
            "modeled_total": self.modeled_total,
            "measured_total": self.measured_total,
            "overlap_seconds": self.overlap_seconds,
            "span_wall": dict(self.span_wall),
            "span_count": self.span_count,
            "worker_seconds": dict(self.worker_seconds),
            "tasks_executed": self.tasks_executed,
            "straggler_worker": self.straggler_worker,
            "straggler_seconds": self.straggler_seconds,
            "skew_ratio": self.skew_ratio,
            "data_plane": dict(self.data_plane) if self.data_plane
            else None,
            "atom_bytes": dict(self.atom_bytes),
            "kernel_decisions": [dict(d) for d in self.kernel_decisions],
            "level_tuples": list(self.level_tuples),
            "estimated_cost": self.estimated_cost,
            "metrics": self.metrics,
        }

    def render(self) -> str:
        """The terminal tree: modeled vs measured, workers, data plane."""

        def secs(value: float | None) -> str:
            return f"{value:.4f}s" if value is not None else "-"

        status = "ok" if self.ok else f"FAILED ({self.failure})"
        head = (f"profile {self.query_id} engine={self.engine} "
                f"count={self.count:,} backend={self.backend} "
                f"transport={self.transport or 'inline'} "
                f"kernel={self.kernel or '-'} [{status}]")
        lines = [head, "├─ phases (modeled model-s vs measured wall-s)"]
        for row in self.phases:
            parts = ""
            if row.parts:
                parts = "  (" + ", ".join(
                    f"{k}={v:.4f}s" for k, v in sorted(row.parts.items())
                ) + ")"
            lines.append(f"│   {row.name:<13} modeled={row.modeled:.4f} "
                         f"measured={secs(row.measured)}{parts}")
        overlap = (f"  overlap={secs(self.overlap_seconds)}"
                   if self.overlap_seconds else "")
        lines.append(f"│   {'total':<13} modeled="
                     f"{self.modeled_total:.4f} "
                     f"measured={secs(self.measured_total)}{overlap}")
        if self.span_wall:
            walls = "  ".join(f"{name}={dur:.4f}s" for name, dur in
                              sorted(self.span_wall.items(),
                                     key=lambda kv: -kv[1]))
            lines.append(f"├─ span wall ({self.span_count} spans)")
            lines.append(f"│   {walls}")
        if self.worker_seconds:
            lines.append(
                f"├─ workers (n={len(self.worker_seconds)}, "
                f"tasks={self.tasks_executed}, "
                f"straggler={self.straggler_worker} "
                f"{secs(self.straggler_seconds)}, "
                f"skew={self.skew_ratio:.2f}x)")
            peak = max(self.worker_seconds.values()) or 1.0
            for worker, seconds in sorted(self.worker_seconds.items()):
                bar = "▇" * max(1, int(round(8 * seconds / peak)))
                lines.append(f"│   w{worker:<4} {bar:<8} {seconds:.4f}s")
        if self.data_plane:
            plane = self.data_plane
            lines.append(
                f"├─ data plane ({plane.get('transport', '?')}): "
                f"published={plane.get('published_bytes', 0):,}B "
                f"shipped={plane.get('shipped_bytes', 0):,}B "
                f"fetched={plane.get('fetched_bytes', 0):,}B")
            if self.atom_bytes:
                atoms = "  ".join(f"{name}={size:,}B" for name, size in
                                  sorted(self.atom_bytes.items()))
                lines.append(f"│   per atom: {atoms}")
        if self.kernel_decisions:
            lines.append("├─ kernel decisions")
            for dec in self.kernel_decisions:
                realized = (f"  realized={dec['realized_tuples']:,}t"
                            if "realized_tuples" in dec else "")
                lines.append(f"│   v{dec['bag']}: {dec['kernel']} "
                             f"({dec['reason']}){realized}")
        elif self.kernel_reason:
            lines.append(f"├─ kernel: {self.kernel} "
                         f"({self.kernel_reason})")
        if self.level_tuples:
            sizes = " -> ".join(f"{n:,}" for n in self.level_tuples)
            est = (f"  (modeled cost {self.estimated_cost:.4f})"
                   if self.estimated_cost is not None else "")
            lines.append(f"├─ intermediates: {sizes} tuples{est}")
        window = self.metrics
        if window:
            task_hist = window.get("runtime.task_seconds")
            summary = []
            if isinstance(task_hist, dict) and task_hist.get("count"):
                summary.append(f"tasks={task_hist['count']} "
                               f"task_p95={task_hist['p95']:.4f}s")
            for name in ("transport.published_bytes",
                         "transport.fetched_bytes",
                         "runtime.intersection_work"):
                if name in window:
                    summary.append(f"{name}={window[name]:,}")
            lines.append("└─ metrics window: "
                         + ("  ".join(summary) if summary
                            else f"{len(window)} instruments"))
        else:
            lines.append("└─ metrics window: empty")
        return "\n".join(lines)


_EPOCH_PREFIX = re.compile(r"^e\d+/")


def _atom_bytes(spans) -> dict[str, int]:
    """Published bytes per atom relation, from publish-span args."""
    totals: dict[str, int] = {}
    for span in spans:
        if span.name != "publish":
            continue
        key = span.args.get("key")
        size = span.args.get("bytes")
        if not key or size is None:
            continue
        # Drop the per-query epoch namespace (``e0001/rel:R1``) that
        # ExecutorView transports stamp on every publish key.
        name = _EPOCH_PREFIX.sub("", str(key).split("#", 1)[0])
        if name.startswith("rel:"):
            name = name[4:]
        totals[name] = totals.get(name, 0) + int(size)
    return totals


def build_profile(result, *, query_id: str, backend: str,
                  transport_label: str | None, spans=(),
                  metrics_window: dict | None = None) -> QueryProfile:
    """Assemble the profile for one finished :class:`EngineResult`.

    ``spans`` is the run's slice of the tracer (coordinator + shipped
    worker/agent spans); ``metrics_window`` the query's
    :class:`~repro.obs.metrics.MetricsScope` snapshot.  Works on failed
    results too — a crashed run still profiles whatever phases ran.
    """
    spans = list(spans)
    breakdown = result.breakdown
    telemetry = result.telemetry
    measured_phases = dict(telemetry.phase_seconds) if telemetry else {}
    rows: list[PhaseRow] = []
    mapped: set[str] = set()
    for name in ("optimization", "precompute", "communication",
                 "computation"):
        modeled = getattr(breakdown, name, 0.0)
        parts = {phase: measured_phases[phase]
                 for phase in _PHASE_MAP[name]
                 if phase in measured_phases}
        mapped.update(parts)
        measured = sum(parts.values()) if parts else None
        rows.append(PhaseRow(name=name, modeled=modeled,
                             measured=measured, parts=parts))
    # Telemetry phases outside the model's vocabulary still reconcile:
    # they appear as modeled=0 rows so the measured column sums to
    # RuntimeTelemetry.total exactly.
    for phase in sorted(set(measured_phases) - mapped):
        rows.append(PhaseRow(name=phase, modeled=0.0,
                             measured=measured_phases[phase],
                             parts={phase: measured_phases[phase]}))

    span_wall: dict[str, float] = {}
    for span in spans:
        span_wall[span.name] = span_wall.get(span.name, 0.0) + span.dur

    worker_seconds = ({str(w): s
                       for w, s in telemetry.worker_seconds.items()}
                      if telemetry else {})
    straggler_worker = straggler = skew = None
    if worker_seconds:
        straggler_worker = max(worker_seconds, key=worker_seconds.get)
        straggler = worker_seconds[straggler_worker]
        mean = sum(worker_seconds.values()) / len(worker_seconds)
        skew = straggler / mean if mean else 1.0

    extra = result.extra
    decisions = []
    for bag, (key, reason) in sorted(
            (extra.get("kernel_decisions") or {}).items()):
        decisions.append({"bag": bag, "kernel": key, "reason": reason})
    level_tuples = [int(n) for n in (extra.get("level_tuples") or ())]
    if decisions and level_tuples and len(decisions) == len(level_tuples):
        # Bag-per-level engines (yannakakis): annotate each decision
        # with the realized intermediate size of its level.
        for dec, realized in zip(decisions, level_tuples):
            dec["realized_tuples"] = realized

    return QueryProfile(
        query_id=query_id,
        query=result.query,
        engine=result.engine,
        count=result.count,
        ok=result.ok,
        failure=result.failure,
        backend=backend,
        transport=transport_label,
        kernel=extra.get("kernel"),
        kernel_reason=extra.get("kernel_reason"),
        phases=rows,
        modeled_total=breakdown.total,
        measured_total=telemetry.total if telemetry else None,
        overlap_seconds=telemetry.overlap_seconds if telemetry else None,
        span_wall=span_wall,
        span_count=len(spans),
        worker_seconds=worker_seconds,
        tasks_executed=telemetry.tasks_executed if telemetry else 0,
        straggler_worker=straggler_worker,
        straggler_seconds=straggler,
        skew_ratio=skew,
        data_plane=result.data_plane,
        atom_bytes=_atom_bytes(spans),
        kernel_decisions=decisions,
        level_tuples=level_tuples,
        estimated_cost=extra.get("estimated_cost"),
        metrics=dict(metrics_window or {}),
    )
