"""Measuring alpha and beta on the running process (Sec. III-B).

The paper calibrates its cost model by timing the cluster: alpha is
tuples shuffled per second, beta is partial bindings extended per second.
Our simulated cluster defaults to pinned rates (reproducible numbers);
``calibrate()`` measures the actual throughput of this process's shuffle
and intersection kernels instead, preserving the paper's methodology for
anyone who wants wall-clock-faithful model-seconds.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from ..data.database import Database
from ..data.relation import Relation
from ..distributed.hcube import HypercubeGrid, hcube_route
from ..distributed.metrics import CostModelParams
from ..query.query import Atom, JoinQuery
from ..wcoj.leapfrog import LeapfrogStats, intersect_sorted

__all__ = ["measure_alpha", "measure_beta", "calibrate"]


def measure_alpha(num_tuples: int = 200_000, num_workers: int = 8,
                  seed: int = 0) -> float:
    """Tuples per second through HCube routing on a one-attribute grid.

    The routing path the engines use (a hash partition on ``a``), not a
    materializing copy of it.
    """
    rng = np.random.default_rng(seed)
    rel = Relation("calib", ("a", "b"),
                   rng.integers(0, 1 << 30, size=(num_tuples, 2)))
    query = JoinQuery([Atom("calib", ("a", "b"))], name="calib")
    grid = HypercubeGrid(query, {"a": num_workers, "b": 1}, num_workers)
    t0 = time.perf_counter()
    hcube_route(query, Database([rel]), grid)
    elapsed = max(1e-9, time.perf_counter() - t0)
    return len(rel) / elapsed


def measure_beta(num_values: int = 100_000, rounds: int = 20,
                 seed: int = 0) -> float:
    """Intersection work units per second through the leapfrog kernel."""
    rng = np.random.default_rng(seed)
    a = np.unique(rng.integers(0, num_values * 4, size=num_values))
    b = np.unique(rng.integers(0, num_values * 4, size=num_values))
    stats = LeapfrogStats()
    t0 = time.perf_counter()
    for _ in range(rounds):
        intersect_sorted([a, b], stats)
    elapsed = max(1e-9, time.perf_counter() - t0)
    return stats.intersection_work / elapsed


def calibrate(base: CostModelParams | None = None,
              seed: int = 0) -> CostModelParams:
    """A :class:`CostModelParams` with measured beta_work / alpha_pull.

    The push/merge alphas keep their pinned *ratios* to alpha_pull (the
    ratios encode serialization overheads we do not re-measure).
    """
    base = base or CostModelParams()
    alpha_pull = measure_alpha(seed=seed)
    beta = measure_beta(seed=seed)
    scale = alpha_pull / base.alpha_pull
    return replace(
        base,
        alpha_pull=alpha_pull,
        alpha_push=base.alpha_push * scale,
        alpha_merge=base.alpha_merge * scale,
        beta_work=beta,
    )
