"""Frozen Kronecker-chain Hamiltonian builder: the test oracle.

A self-contained copy of the original ``Hamiltonian.to_sparse_matrix``:
every term is a chain of ``sp.kron`` calls over 2x2 sparse Pauli
factors (leftmost character = most significant qubit), scaled by its
coefficient, and the term matrices are added one at a time in term
order, starting from an all-zero CSR matrix.  SciPy's sparse addition
drops entries that cancel to exactly zero and keeps indices sorted, so
the result is a canonical CSR matrix.  It reads only the
``(coefficient, label)`` pairs, so a change to the library's matrix
arithmetic (entry order, signed zeros, dropped zeros) shows up as a
difference.  Slow and deliberately never optimized: do not edit it to
track the library.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

_SPARSE_PAULI = {
    "I": sp.identity(2, format="csr", dtype=complex),
    "X": sp.csr_matrix(np.array([[0, 1], [1, 0]], dtype=complex)),
    "Y": sp.csr_matrix(np.array([[0, -1j], [1j, 0]], dtype=complex)),
    "Z": sp.csr_matrix(np.array([[1, 0], [0, -1]], dtype=complex)),
}


def reference_sparse_matrix(
    terms: list[tuple[float, str]], n_qubits: int
) -> sp.csr_matrix:
    """Sum of ``coefficient * kron(label)`` over ``terms``, in order."""
    dim = 2**n_qubits
    out = sp.csr_matrix((dim, dim), dtype=complex)
    for coeff, label in terms:
        term = sp.identity(1, format="csr", dtype=complex)
        for c in label:
            term = sp.kron(term, _SPARSE_PAULI[c], format="csr")
        out = out + coeff * term
    return out
