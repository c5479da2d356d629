"""QAOA: the second VQA domain (paper Sections 2.4 and 7.3).

The paper evaluates VQE but states VarSaw "is applicable to all VQA
problems"; QAOA is the one it names.  This subpackage supplies the QAOA
substrate — Ising-form combinatorial problems and the alternating
cost/mixer ansatz — shaped to drop into the same estimator and runner
plumbing as the VQE workloads, so every VarSaw scheme (baseline, JigSaw,
spatial-only, spatial+temporal) runs unchanged on QAOA.
"""

from .ansatz import QAOAAnsatz
from .problems import (
    cut_value,
    maxcut_hamiltonian,
    random_regular_maxcut,
    ring_maxcut,
)
from .workload import make_qaoa_workload

__all__ = [
    "QAOAAnsatz",
    "maxcut_hamiltonian",
    "ring_maxcut",
    "random_regular_maxcut",
    "cut_value",
    "make_qaoa_workload",
]
