"""Classical tuners: SPSA, ImFil, Nelder-Mead."""

from .base import ObjectiveFn, Optimizer, OptimizerResult
from .imfil import ImFil
from .nelder_mead import NelderMead
from .spsa import SPSA

__all__ = [
    "SPSA",
    "ImFil",
    "NelderMead",
    "Optimizer",
    "OptimizerResult",
    "ObjectiveFn",
]
