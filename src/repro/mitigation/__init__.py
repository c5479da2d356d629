"""Measurement error mitigation: JigSaw, matrix-based (MBM), M3, bias-aware."""

from .bias_aware import flip_pmf_bits, invert_and_measure, polarity_circuits
from .jigsaw import JigSawEstimator, JigSawSpec
from .m3 import M3Mitigator
from .mbm import MatrixMitigator
from .reconstruction import (
    bayesian_reconstruct,
    bayesian_reconstruct_batch,
    subset_index_map,
)
from .single_circuit import JigsawResult, jigsaw_mitigate
from .zne import linear_extrapolate, richardson_extrapolate, zne_energy
from .subsets import sliding_windows

__all__ = [
    "JigSawEstimator",
    "JigSawSpec",
    "MatrixMitigator",
    "M3Mitigator",
    "invert_and_measure",
    "polarity_circuits",
    "flip_pmf_bits",
    "bayesian_reconstruct",
    "bayesian_reconstruct_batch",
    "subset_index_map",
    "sliding_windows",
    "JigsawResult",
    "jigsaw_mitigate",
    "richardson_extrapolate",
    "linear_extrapolate",
    "zne_energy",
]
