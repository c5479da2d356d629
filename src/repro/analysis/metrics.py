"""Evaluation metrics used throughout the paper's figures and tables.

The paper's accuracy metric is *percent inaccuracy mitigated*: how much of
the gap between a reference scheme's energy and the ideal energy a
mitigated scheme closes (Figs. 14, 15; Tables 3, 4).
"""

from __future__ import annotations

import math

__all__ = [
    "percent_inaccuracy_mitigated",
    "energy_error",
    "geometric_mean",
    "arithmetic_mean",
]


def energy_error(energy: float, ideal: float) -> float:
    """Absolute inaccuracy vs the exact ground state (>= 0 up to noise)."""
    return abs(energy - ideal)


def percent_inaccuracy_mitigated(
    ideal: float, reference: float, mitigated: float
) -> float:
    """Share of the reference scheme's inaccuracy removed by mitigation.

    ``100 * (err_ref - err_mit) / err_ref`` where errors are measured
    against the ideal energy.  100 means the mitigated scheme reaches the
    ideal; 0 means no improvement; negative means it did worse (the paper
    reports one such case in Table 4).
    """
    err_ref = energy_error(reference, ideal)
    err_mit = energy_error(mitigated, ideal)
    if err_ref == 0.0:
        return 0.0
    return 100.0 * (err_ref - err_mit) / err_ref


def geometric_mean(values) -> float:
    """Geometric mean (the right average for ratios like Fig. 12's)."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def arithmetic_mean(values) -> float:
    values = [float(v) for v in values]
    if not values:
        raise ValueError("empty sequence")
    return sum(values) / len(values)
