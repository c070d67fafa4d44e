"""ADJ core: plans, sampling estimator, cost model, Algorithm 2 optimizer."""

from .calibration import calibrate, measure_alpha, measure_beta
from .cost_model import CostModel
from .exhaustive import ExhaustiveReport, exhaustive_plan
from .optimizer import (
    Optimizer,
    OptimizerReport,
    communication_first_plan,
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
