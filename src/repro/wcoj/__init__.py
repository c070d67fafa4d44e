"""Worst-case optimal joins and sequential baselines."""

from .agm import agm_bound, fractional_edge_cover_number
from .binary_join import (
    BinaryPlan,
    greedy_left_deep_plan,
)
from .cache import IntersectionCache
from .leapfrog import (
    JoinResult,
    LeapfrogStats,
    build_tries,
    intersect_sorted,
    leapfrog_join,
    leapfrog_reference,
    leapfrog_sample_counts,
)
from .reference import brute_force_join
from .yannakakis import (
    YannakakisStats,
    full_reducer,
    join_reduced,
    materialize_bags,
    yannakakis_join,
)

__all__ = [
    "YannakakisStats",
    "full_reducer",
    "join_reduced",
    "materialize_bags",
    "yannakakis_join",
    "agm_bound",
    "fractional_edge_cover_number",
    "BinaryPlan",
    "greedy_left_deep_plan",
    "IntersectionCache",
    "JoinResult",
    "LeapfrogStats",
    "build_tries",
    "intersect_sorted",
    "leapfrog_join",
    "leapfrog_reference",
    "leapfrog_sample_counts",
    "brute_force_join",
]
