"""VQE driver: estimators, expectation assembly, and the tuning loop."""

from .estimator import (
    BaselineEstimator,
    BaselineSpec,
    EstimatorBase,
    IdealEstimator,
    IdealSpec,
)
from .gc_estimator import GeneralCommutationEstimator, GeneralCommutationSpec
from .expectation import (
    assign_terms_to_groups,
    energy_from_group_pmfs,
    term_expectation,
)
from .runner import VQEResult, initial_parameters, run_vqe

__all__ = [
    "EstimatorBase",
    "BaselineEstimator",
    "BaselineSpec",
    "IdealEstimator",
    "IdealSpec",
    "GeneralCommutationEstimator",
    "GeneralCommutationSpec",
    "term_expectation",
    "energy_from_group_pmfs",
    "assign_terms_to_groups",
    "VQEResult",
    "run_vqe",
    "initial_parameters",
]
