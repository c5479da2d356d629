"""Qubit Hamiltonians as weighted sums of Pauli strings.

The VQA objective is ``<H> = sum_j c_j <P_j>`` (Section 3.1).  A
:class:`Hamiltonian` stores the ``(c_j, P_j)`` pairs, exposes the QWC
grouping that determines how many distinct circuits one evaluation costs,
and can materialize a sparse matrix for exact reference energies, built
from each string's bit masks (see :mod:`repro.pauli.pauli`).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..pauli import MeasurementGroup, PauliString, cover_reduce
from ..pauli.pauli import _parity_signs

__all__ = ["Hamiltonian"]


class Hamiltonian:
    """A weighted Pauli-sum operator.

    Parameters
    ----------
    terms:
        Iterable of ``(coefficient, pauli)`` with real coefficients; paulis
        may be strings or :class:`PauliString`.  Duplicate strings are
        merged by summing coefficients.
    name:
        Display name ("CH4-6" etc.).
    """

    def __init__(self, terms, name: str = ""):
        merged: dict[PauliString, float] = {}
        width: int | None = None
        for coeff, pauli in terms:
            pauli = (
                pauli
                if isinstance(pauli, PauliString)
                else PauliString(pauli)
            )
            if width is None:
                width = pauli.n_qubits
            elif pauli.n_qubits != width:
                raise ValueError(
                    f"term {pauli} has width {pauli.n_qubits}, "
                    f"expected {width}"
                )
            merged[pauli] = merged.get(pauli, 0.0) + float(coeff)
        if width is None:
            raise ValueError("Hamiltonian needs at least one term")
        self.name = name
        self.n_qubits = width
        self.terms: list[tuple[float, PauliString]] = [
            (c, p) for p, c in merged.items()
        ]
        #: Sum of coefficients on the identity string (the constant offset).
        self.identity_coefficient = sum(
            c for c, p in self.terms if p.is_identity()
        )
        self._groups: list[MeasurementGroup] | None = None
        self._matrix: sp.csr_matrix | None = None

    # -------------------------------------------------------------- structure

    @property
    def num_terms(self) -> int:
        """Total Pauli terms including identity (Table 2's 'Pauli terms')."""
        return len(self.terms)

    def non_identity_terms(self) -> list[tuple[float, PauliString]]:
        """The ``(coefficient, string)`` pairs without the identity term."""
        return [(c, p) for c, p in self.terms if not p.is_identity()]

    def shifted(self, delta: float) -> "Hamiltonian":
        """Return ``H + delta * I`` (shifts every eigenvalue by ``delta``)."""
        terms = list(self.terms)
        terms.append((delta, PauliString.identity(self.n_qubits)))
        return Hamiltonian(terms, self.name)

    # --------------------------------------------------------------- grouping

    def measurement_groups(self) -> list[MeasurementGroup]:
        """Trivial-commutation groups — one circuit per group.

        This is the paper's baseline 'commutativity-based reduction'
        (C_Comm in Fig. 6): terms measurable by another term are absorbed
        into it; the number of groups is the number of circuits a
        traditional VQA iteration executes.
        """
        if self._groups is None:
            strings = [p for _, p in self.non_identity_terms()]
            self._groups = cover_reduce(strings, self.n_qubits)
        return self._groups

    # ----------------------------------------------------------------- matrix

    def to_sparse_matrix(self) -> sp.csr_matrix:
        """Sparse matrix of the operator (practical up to ~16 qubits).

        Cached: VQE's ideal estimator evaluates ``<psi|H|psi>`` thousands
        of times against the same operator.
        """
        if self._matrix is not None:
            return self._matrix
        if self.n_qubits > 16:
            raise ValueError(
                f"refusing to materialize a {self.n_qubits}-qubit matrix"
            )
        n, dim = self.n_qubits, 2**self.n_qubits
        # P|i> = i^#Y (-1)^popcount(i & z) |i ^ x>.  Each X mask's terms
        # add in term order from complex zero, so rounding and signed
        # zeros match a term-by-term sparse sum; cancelled entries drop.
        columns: dict[int, np.ndarray] = {}
        for coeff, p in self.terms:
            column = columns.setdefault(p.x_mask, np.zeros(dim, complex))
            phase = 1j ** (p.x_mask & p.z_mask).bit_count()
            column += coeff * phase * _parity_signs(n, p.z_mask)
        index = np.arange(dim)
        rows = np.concatenate([index ^ x for x in columns])
        cols = np.tile(index, len(columns))
        data = np.concatenate(list(columns.values()))
        matrix = sp.csr_matrix((data, (rows, cols)), shape=(dim, dim))
        matrix.eliminate_zeros()
        self._matrix = matrix
        return matrix

    def expectation_exact(self, state: np.ndarray) -> float:
        """Exact ``<state|H|state>`` for a statevector."""
        matrix = self.to_sparse_matrix()
        value = np.vdot(state, matrix.dot(state))
        return float(value.real)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<Hamiltonian{label}: {self.n_qubits} qubits, "
            f"{self.num_terms} terms>"
        )
