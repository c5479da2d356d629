"""Metrics and experiment-scaling helpers."""

from .experiments import (
    TuningRun,
    energy_at_params,
    mean_energy_at_params,
    optimal_parameters,
)
from .metrics import (
    arithmetic_mean,
    energy_error,
    geometric_mean,
    percent_inaccuracy_mitigated,
)
from .plotting import sparkline
from .scale import is_full_scale, scaled

__all__ = [
    "percent_inaccuracy_mitigated",
    "energy_error",
    "geometric_mean",
    "arithmetic_mean",
    "is_full_scale",
    "scaled",
    "TuningRun",
    "optimal_parameters",
    "energy_at_params",
    "mean_energy_at_params",
    "sparkline",
]
