"""Pre-packaged experiment workloads (Table 2 molecules + TFIM)."""

from ..hamiltonian import MOLECULES, molecule_keys
from .registry import (
    ESTIMATOR_KINDS,
    SPIN_MODELS,
    Workload,
    make_spin_workload,
    make_workload,
)

__all__ = [
    "Workload",
    "make_workload",
    "make_spin_workload",
    "ESTIMATOR_KINDS",
    "SPIN_MODELS",
    "MOLECULES",
    "molecule_keys",
]
