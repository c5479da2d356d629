"""Symplectic (binary) representation of Pauli strings.

Every n-qubit Pauli maps to a pair of bit vectors ``(x, z)``: position q
has X iff ``x[q]``, Z iff ``z[q]``, Y iff both.  Commutation and products
become bit arithmetic, which lets NumPy batch-process the tens of
thousands of terms in the larger Table 2 Hamiltonians.

:class:`PauliTable` is the batch container; it interoperates with
:class:`~repro.pauli.pauli.PauliString` and is validated against the
string implementation by property-based tests.
"""

from __future__ import annotations

import numpy as np

from .pauli import _CHAR_TO_XZ, _XZ_TO_CHAR, PauliString

__all__ = ["PauliTable", "encode", "decode"]


def encode(pauli: PauliString) -> tuple[np.ndarray, np.ndarray]:
    """PauliString -> (x, z) bool vectors."""
    x, z = np.array([_CHAR_TO_XZ[c] for c in pauli.label], dtype=bool).T
    return x, z


def decode(x: np.ndarray, z: np.ndarray) -> PauliString:
    """(x, z) bool vectors -> PauliString."""
    if x.shape != z.shape or x.ndim != 1:
        raise ValueError("x and z must be equal-length 1-D vectors")
    pairs = zip(x.tolist(), z.tolist())
    return PauliString("".join(_XZ_TO_CHAR[xz] for xz in pairs))


class PauliTable:
    """A batch of Pauli strings as packed boolean matrices.

    Rows are Paulis; columns are qubits.  All predicates are vectorized.
    """

    def __init__(self, x: np.ndarray, z: np.ndarray):
        x = np.asarray(x, dtype=bool)
        z = np.asarray(z, dtype=bool)
        if x.shape != z.shape or x.ndim != 2:
            raise ValueError("x and z must be equal-shape 2-D matrices")
        self.x = x
        self.z = z

    # ------------------------------------------------------------ construction

    @classmethod
    def from_strings(cls, paulis) -> "PauliTable":
        items = [
            p if isinstance(p, PauliString) else PauliString(p)
            for p in paulis
        ]
        if not items:
            raise ValueError("empty Pauli list")
        n = items[0].n_qubits
        for p in items:
            if p.n_qubits != n:
                raise ValueError("width mismatch in Pauli list")
        x = np.zeros((len(items), n), dtype=bool)
        z = np.zeros((len(items), n), dtype=bool)
        for i, p in enumerate(items):
            x[i], z[i] = encode(p)
        return cls(x, z)

    def to_strings(self) -> list[PauliString]:
        return [decode(self.x[i], self.z[i]) for i in range(len(self))]

    # -------------------------------------------------------------- predicates

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def n_qubits(self) -> int:
        return self.x.shape[1]

    def commutes_with(self, other: PauliString) -> np.ndarray:
        """Vector of full-commutation flags against one Pauli.

        Rows commute iff the symplectic form ``<a, b> = a.x·b.z + a.z·b.x``
        is even.
        """
        ox, oz = encode(other)
        if ox.shape[0] != self.n_qubits:
            raise ValueError("width mismatch")
        form = (self.x & oz).sum(axis=1) + (self.z & ox).sum(axis=1)
        return form % 2 == 0

    def __repr__(self) -> str:
        return f"<PauliTable: {len(self)} paulis x {self.n_qubits} qubits>"
