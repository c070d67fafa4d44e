"""Worst-case optimal joins and sequential baselines."""

from .agm import agm_bound, fractional_edge_cover_number
from .binary_join import (
    BinaryPlan,
    greedy_left_deep_plan,
)
from .leapfrog import (
    JoinResult,
    LeapfrogStats,
    build_tries,
    leapfrog_join,
    leapfrog_sample_counts,
)
from .reference import brute_force_join, leapfrog_reference
from .yannakakis import (
    YannakakisStats,
    full_reducer,
    join_reduced,
)

__all__ = [
    "YannakakisStats",
    "full_reducer",
    "join_reduced",
    "agm_bound",
    "fractional_edge_cover_number",
    "BinaryPlan",
    "greedy_left_deep_plan",
    "JoinResult",
    "LeapfrogStats",
    "build_tries",
    "leapfrog_join",
    "leapfrog_reference",
    "leapfrog_sample_counts",
    "brute_force_join",
]
