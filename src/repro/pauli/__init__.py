"""Pauli strings, QWC + general-commutation grouping, Fig. 7 parents."""

from .gc_grouping import (
    anticommutation_graph,
    color_general_commuting,
    diagonalized_groups,
    group_general_commuting,
)
from .graph import all_strings, measuring_parents
from .grouping import MeasurementGroup, cover_reduce, group_qwc
from .pauli import PAULI_CHARS, PAULI_MATRICES, PauliString
from .symplectic import PauliTable, decode, encode

__all__ = [
    "PauliString",
    "PAULI_CHARS",
    "PAULI_MATRICES",
    "MeasurementGroup",
    "group_qwc",
    "cover_reduce",
    "group_general_commuting",
    "color_general_commuting",
    "diagonalized_groups",
    "anticommutation_graph",
    "all_strings",
    "measuring_parents",
    "PauliTable",
    "encode",
    "decode",
]
