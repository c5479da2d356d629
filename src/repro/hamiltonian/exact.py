"""Exact reference solutions via sparse diagonalization.

The paper's 'Ideal' line and every "% inaccuracy mitigated" metric need the
true ground-state energy of each workload Hamiltonian.  Up to ~14 qubits a
Lanczos run on the sparse Pauli-sum matrix is instantaneous; its start
vector is seeded, so every call returns the same bits.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla

from .hamiltonian import Hamiltonian

__all__ = ["ground_state_energy", "ground_state"]


def ground_state(hamiltonian: Hamiltonian) -> tuple[float, np.ndarray]:
    """Return ``(energy, statevector)`` of the lowest eigenpair."""
    matrix = hamiltonian.to_sparse_matrix()
    dim = matrix.shape[0]
    if dim <= 64:
        dense = matrix.toarray()
        values, vectors = np.linalg.eigh(dense)
        return float(values[0]), vectors[:, 0]
    # Seeded: ARPACK's own start vector comes from fresh OS entropy, and
    # a constant one could be orthogonal to a symmetric ground state.
    v0 = np.random.default_rng(0).standard_normal(dim)
    values, vectors = spla.eigsh(matrix, k=1, which="SA", v0=v0)
    return float(values[0]), vectors[:, 0]


def ground_state_energy(hamiltonian: Hamiltonian) -> float:
    """The exact ground-state energy (paper metric: lower is better)."""
    return ground_state(hamiltonian)[0]
