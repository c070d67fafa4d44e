"""Measured wall-clock telemetry, side by side with the cost model.

Every engine run already produces a *modeled* :class:`CostBreakdown`
(deterministic counters converted through calibrated rates).  Once plans
execute on a real backend (:mod:`repro.runtime.executor`) we can also
*measure* each phase with ``time.perf_counter``.  A
:class:`RuntimeTelemetry` collects those measurements so benchmarks can
report modeled-vs-measured numbers in one table and catch the places
where the model and the hardware disagree (GIL contention, pickling
overhead, cache effects).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = ["RuntimeTelemetry", "modeled_vs_measured"]


@dataclass
class RuntimeTelemetry:
    """Measured seconds per phase for one engine run.

    ``phase_seconds`` is wall-clock observed by the coordinating process
    (parallel phases therefore record elapsed time, not CPU time summed
    over workers).  ``worker_seconds`` holds per-worker task durations so
    stragglers are visible; ``worker_cpu_seconds`` sums the busy time the
    workers reported, which exceeds the elapsed wall-clock whenever real
    parallelism happened.
    """

    backend: str = "serial"
    num_workers: int = 1
    phase_seconds: dict[str, float] = field(default_factory=dict)
    worker_seconds: dict[int, float] = field(default_factory=dict)
    tasks_executed: int = 0
    #: Wall-clock during which task *production* (routing/publishing/
    #: descriptor minting on the coordinator) and task *execution*
    #: coexisted — the pipelined-epoch overlap window.  Not a phase:
    #: it measures concurrency between phases, so it is excluded from
    #: :attr:`total` (which would double-count it).  Zero on the
    #: serial backend, which runs each task between mints.
    overlap_seconds: float = 0.0

    @property
    def total(self) -> float:
        return sum(self.phase_seconds.values())

    @property
    def worker_cpu_seconds(self) -> float:
        return sum(self.worker_seconds.values())

    @property
    def straggler_seconds(self) -> float:
        """Duration of the slowest worker task (the parallel makespan)."""
        return max(self.worker_seconds.values(), default=0.0)

    def record(self, phase: str, seconds: float) -> None:
        self.phase_seconds[phase] = \
            self.phase_seconds.get(phase, 0.0) + seconds

    def record_worker(self, worker: int, seconds: float) -> None:
        self.worker_seconds[worker] = \
            self.worker_seconds.get(worker, 0.0) + seconds
        self.tasks_executed += 1

    def record_overlap(self, seconds: float) -> None:
        """Accumulate pipelined mint/execute overlap (see field doc)."""
        self.overlap_seconds += max(0.0, seconds)

    @contextmanager
    def measure(self, phase: str):
        """Time a ``with`` block into ``phase`` (exceptions still count)."""
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.record(phase, time.perf_counter() - start)

    def as_row(self) -> dict[str, float]:
        row = {f"measured_{k}": v for k, v in self.phase_seconds.items()}
        row["measured_total"] = self.total
        row["measured_overlap"] = self.overlap_seconds
        row["measured_straggler"] = self.straggler_seconds
        return row

    def __str__(self) -> str:
        phases = ", ".join(f"{k}={v:.4f}s"
                           for k, v in self.phase_seconds.items())
        return (f"RuntimeTelemetry({self.backend} x{self.num_workers}: "
                f"{phases}, total={self.total:.4f}s)")


def modeled_vs_measured(breakdown, telemetry: RuntimeTelemetry | None
                        ) -> dict[str, float | None]:
    """One flat record pairing modeled seconds with measured wall-clock.

    ``breakdown`` is a :class:`repro.distributed.metrics.CostBreakdown`;
    ``telemetry`` may be None (purely simulated run), in which case the
    measured columns are None.

    ``measured_overlap`` (pipelined mint/execute overlap window) and
    ``straggler_seconds`` (slowest worker task — the parallel makespan)
    ride along so bench tables show pipeline wins and load imbalance
    without digging through per-run telemetry objects.
    """
    return {
        "modeled_seconds": breakdown.total,
        "measured_seconds": telemetry.total if telemetry else None,
        "measured_overlap": telemetry.overlap_seconds if telemetry
        else None,
        "straggler_seconds": telemetry.straggler_seconds if telemetry
        else None,
        "backend": telemetry.backend if telemetry else "simulated",
    }
