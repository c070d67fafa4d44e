"""Skew and straggler diagnostics.

Sec. VII-B attributes Q5's limited scalability to skew: "the 'last
straggler' effect plays a bigger role in determining the elapsed time".
These helpers quantify that effect for any per-worker load or work
distribution, and power the skew ablation bench.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from ..errors import ConfigError

__all__ = ["SkewReport", "skew_report", "straggler_slowdown"]


@dataclass(frozen=True)
class SkewReport:
    """Distributional summary of per-worker load/work."""

    num_workers: int
    total: float
    mean: float
    maximum: float
    imbalance: float       # max / mean; 1.0 = perfectly balanced
    cv: float              # coefficient of variation
    gini: float            # 0 = equal, -> 1 = one worker does everything

    def __str__(self) -> str:
        return (f"SkewReport(workers={self.num_workers}, "
                f"imbalance={self.imbalance:.2f}, cv={self.cv:.2f}, "
                f"gini={self.gini:.2f})")


def _gini(values: Sequence[float], total: float) -> float:
    if total == 0:
        return 0.0
    n = len(values)
    return sum((2 * rank - n - 1) * v
               for rank, v in enumerate(sorted(values), 1)) / (n * total)


def skew_report(loads: Mapping[int, float] | Sequence[float]) -> SkewReport:
    """Summarize a per-worker load distribution.

    Plain Python over one value per worker: numpy's per-call overhead
    costs more than the arithmetic on a few dozen values.
    """
    values = [float(v) for v in (loads.values() if isinstance(loads, Mapping)
                                 else loads)]
    if not values:
        raise ConfigError("need at least one worker load")
    total = sum(values)
    mean = total / len(values)
    maximum = max(values)
    variance = sum((v - mean) ** 2 for v in values) / len(values)
    return SkewReport(
        num_workers=len(values),
        total=total,
        mean=mean,
        maximum=maximum,
        imbalance=(maximum / mean) if mean > 0 else 1.0,
        cv=math.sqrt(variance) / mean if mean > 0 else 0.0,
        gini=_gini(values, total),
    )


def straggler_slowdown(loads: Mapping[int, float] | Sequence[float]
                       ) -> float:
    """Parallel-time penalty of skew: makespan / ideal makespan.

    1.0 means the work could not have been spread better; k means the
    straggler made the phase k times slower than a perfect re-balance.
    """
    report = skew_report(loads)
    if report.total == 0:
        return 1.0
    ideal = report.total / report.num_workers
    return report.maximum / ideal
