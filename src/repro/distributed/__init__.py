"""Distributed substrate: cluster simulator, HCube routing, metrics."""

from .cluster import Cluster
from .hcube import (
    HCubeRouting,
    HCubeShuffleResult,
    HypercubeGrid,
    hcube_route,
    local_atom_name,
    localized_query,
    mix_hash,
    modulo_hash,
)
from .metrics import (
    CostBreakdown,
    CostLedger,
    CostModelParams,
    Moved,
    ShuffleStats,
    Work,
    price,
)
from .partitioner import (
    Shares,
    dup_factor,
    enumerate_share_vectors,
    frac_factor,
    optimize_shares,
)
from .skew import SkewReport, skew_report, straggler_slowdown

__all__ = [
    "SkewReport",
    "skew_report",
    "straggler_slowdown",
    "Cluster",
    "HCubeRouting",
    "HCubeShuffleResult",
    "HypercubeGrid",
    "hcube_route",
    "local_atom_name",
    "localized_query",
    "mix_hash",
    "modulo_hash",
    "CostBreakdown",
    "CostLedger",
    "CostModelParams",
    "Moved",
    "ShuffleStats",
    "Work",
    "price",
    "Shares",
    "dup_factor",
    "enumerate_share_vectors",
    "frac_factor",
    "optimize_shares",
]
