"""ADJ core: plans, sampling estimator, cost model, Algorithm 2 optimizer."""

from .calibration import calibrate, measure_alpha, measure_beta
from .cost_model import CostModel
from .exhaustive import ExhaustiveReport, exhaustive_plan
from .optimizer import (
    PLAN_CACHE,
    Optimizer,
    OptimizerReport,
    PlanCache,
    communication_first_plan,
    data_key,
    optimize_plan,
)
from .plan import (
    CandidateRelation,
    QueryPlan,
    candidate_relation_for,
    projected_database,
)
from .sampling import (
    CardinalityEstimator,
    SampleEstimate,
    required_samples,
)

__all__ = [
    "calibrate",
    "measure_alpha",
    "measure_beta",
    "CostModel",
    "ExhaustiveReport",
    "exhaustive_plan",
    "Optimizer",
    "OptimizerReport",
    "PlanCache",
    "PLAN_CACHE",
    "data_key",
    "communication_first_plan",
    "optimize_plan",
    "CandidateRelation",
    "QueryPlan",
    "candidate_relation_for",
    "projected_database",
    "CardinalityEstimator",
    "SampleEstimate",
    "required_samples",
]
