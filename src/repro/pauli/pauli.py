"""Pauli strings.

A :class:`PauliString` is a word over ``{I, X, Y, Z}``; the leftmost
character acts on qubit 0 (the same reading order the paper uses, e.g.
'ZZIZ' in Fig. 6).  The class is immutable and hashable so strings can be
deduplicated in sets — the operation VarSaw's spatial reduction lives on.

Each string fixes its bit masks at construction: bit ``n-1-q`` of
``x_mask`` (``z_mask``) is set where qubit ``q`` holds X or Y (Z or Y),
qubit 0 most significant as in every outcome index.  The predicates
are popcounts of mask products, and ``P|i> = i^#Y (-1)^popcount(i &
z_mask) |i ^ x_mask>`` gives both the term signs and the Hamiltonian
matrix (see docs/architecture.md, "Pauli strings").
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..circuits import Circuit

__all__ = ["PauliString", "PAULI_CHARS", "PAULI_MATRICES"]

PAULI_CHARS = "IXYZ"

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

#: The symplectic encoding: each character's ``(x, z)`` bits (Y = both).
_CHAR_TO_XZ = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_XZ_TO_CHAR = {xz: c for c, xz in _CHAR_TO_XZ.items()}
_X_BITS = str.maketrans({c: str(x) for c, (x, _) in _CHAR_TO_XZ.items()})
_Z_BITS = str.maketrans({c: str(z) for c, (_, z) in _CHAR_TO_XZ.items()})


def _bit_parity(values: np.ndarray) -> np.ndarray:
    """Elementwise popcount-mod-2 of a uint64 array.

    Uses ``np.bitwise_count`` where available (NumPy >= 2.0); the
    fallback folds the 64 bits down with five in-place shifted XORs.
    """
    popcount = getattr(np, "bitwise_count", None)
    if popcount is not None:
        return (popcount(values) & 1).astype(bool)
    folded = values.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        folded ^= folded >> np.uint64(shift)
    return (folded & np.uint64(1)).astype(bool)


def _parity_signs(n: int, mask: int) -> np.ndarray:
    """Read-only ``(-1)^popcount(i & mask)`` for every ``n``-bit index."""
    index = np.arange(2**n, dtype=np.uint64)
    signs = 1.0 - 2.0 * _bit_parity(index & np.uint64(mask))
    signs.setflags(write=False)
    return signs


#: Term signs, memoized: every energy assembly reads them again.
_measured_signs = lru_cache(maxsize=None)(_parity_signs)


class PauliString:
    """An n-qubit Pauli operator written as a string, e.g. 'ZXIZ'.

    ``support`` holds the non-identity positions, ascending.
    """

    __slots__ = ("label", "x_mask", "z_mask", "support")
    label: str
    x_mask: int
    z_mask: int
    support: tuple[int, ...]

    def __init__(self, label: str):
        label = label.upper()
        if not label:
            raise ValueError("empty Pauli string")
        bad = set(label) - set(PAULI_CHARS)
        if bad:
            raise ValueError(f"invalid Pauli characters {sorted(bad)}")
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "x_mask", int(label.translate(_X_BITS), 2))
        object.__setattr__(self, "z_mask", int(label.translate(_Z_BITS), 2))
        support = tuple(q for q, c in enumerate(label) if c != "I")
        object.__setattr__(self, "support", support)

    def __setattr__(self, name, value):
        raise AttributeError("PauliString is immutable")

    def __reduce__(self):
        # Copy and pickle rebuild from the label, not through __setattr__.
        return type(self), (self.label,)

    # ------------------------------------------------------------ constructors

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliString":
        """The all-``I`` string on ``n_qubits`` qubits."""
        return cls("I" * n_qubits)

    @classmethod
    def from_sparse(
        cls, n_qubits: int, assignment: dict[int, str]
    ) -> "PauliString":
        """Build from a {qubit: char} map; unmentioned qubits get 'I'."""
        chars = ["I"] * n_qubits
        for q, c in assignment.items():
            if not 0 <= q < n_qubits:
                raise ValueError(f"qubit {q} out of range")
            if c not in PAULI_CHARS:
                raise ValueError(f"invalid Pauli char {c!r}")
            chars[q] = c
        return cls("".join(chars))

    # -------------------------------------------------------------- structure

    @property
    def n_qubits(self) -> int:
        """Width of the string (its number of characters)."""
        return len(self.label)

    @property
    def weight(self) -> int:
        """Number of non-identity positions."""
        return len(self.support)

    def is_identity(self) -> bool:
        """True if every position is 'I' (the constant term)."""
        return not self.support

    def __getitem__(self, index: int) -> str:
        return self.label[index]

    def sparse(self) -> dict[int, str]:
        """The {qubit: char} map of non-identity positions."""
        return {q: self.label[q] for q in self.support}

    def restricted_to(self, positions) -> "PauliString":
        """Keep the given positions, setting all others to 'I'."""
        keep = set(int(p) for p in positions)
        chars = [
            c if i in keep else "I" for i, c in enumerate(self.label)
        ]
        return PauliString("".join(chars))

    # ----------------------------------------------------------- commutation

    def commutes_with(self, other: "PauliString") -> bool:
        """Full (operator) commutation: even number of anticommuting sites."""
        self._check_width(other)
        form = (self.x_mask & other.z_mask) ^ (self.z_mask & other.x_mask)
        return form.bit_count() % 2 == 0

    def qubit_wise_commutes(self, other: "PauliString") -> bool:
        """Qubit-wise commutation: every site agrees or involves an 'I'.

        This is the 'trivial qubit commutation' the paper restricts itself
        to (Section 3.1) — QWC-compatible strings share one measurement
        circuit.
        """
        self._check_width(other)
        differ = (self.x_mask ^ other.x_mask) | (self.z_mask ^ other.z_mask)
        both = (self.x_mask | self.z_mask) & (other.x_mask | other.z_mask)
        return not differ & both

    def can_be_measured_by(self, basis: "PauliString") -> bool:
        """True if measuring in ``basis`` also yields this string's value.

        Requires ``basis`` to fix the same Pauli at every support position
        of ``self`` ('IZZ' can be measured by 'ZZZ' but not vice versa —
        the arrow direction of Fig. 7).
        """
        self._check_width(basis)
        differ = (self.x_mask ^ basis.x_mask) | (self.z_mask ^ basis.z_mask)
        return not differ & (self.x_mask | self.z_mask)

    def _check_width(self, other: "PauliString") -> None:
        if other.n_qubits != self.n_qubits:
            raise ValueError(
                f"width mismatch: {self.n_qubits} vs {other.n_qubits}"
            )

    # -------------------------------------------------------------- measuring

    def basis_rotation(self, n_qubits: int | None = None) -> Circuit:
        """Circuit mapping this Pauli's eigenbasis to the computational basis.

        Append after the ansatz: X -> H, Y -> S† then H, Z/I -> nothing.
        """
        n = n_qubits if n_qubits is not None else self.n_qubits
        if n != self.n_qubits:
            raise ValueError("n_qubits must match the string width")
        qc = Circuit(n, name=f"meas_{self.label}")
        for q in self.support:
            if self.label[q] == "Y":
                qc.sdg(q)
            if self.label[q] != "Z":
                qc.h(q)
        return qc

    def expectation_from_probs(self, probs: np.ndarray) -> float:
        """<P> from computational-basis probabilities *after* basis rotation.

        ``probs`` must cover all ``n_qubits`` bits in this string's order.
        The value is the parity-weighted sum over the support positions.
        """
        n = self.n_qubits
        if probs.shape != (2**n,):
            raise ValueError("probability vector has wrong length")
        if self.is_identity():
            return 1.0
        signs = _measured_signs(n, self.x_mask | self.z_mask)
        return float(np.dot(signs, probs))

    # ----------------------------------------------------------------- matrix

    def to_matrix(self) -> np.ndarray:
        """Dense ``2^n x 2^n`` matrix (small n only — used by exact solvers)."""
        out = np.array([[1.0 + 0j]])
        for c in self.label:
            out = np.kron(out, PAULI_MATRICES[c])
        return out

    # -------------------------------------------------------------- plumbing

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PauliString):
            return self.label == other.label
        if isinstance(other, str):
            return self.label == other.upper()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.label)

    def __lt__(self, other: "PauliString") -> bool:
        return self.label < other.label

    def __str__(self) -> str:
        return self.label

    def __repr__(self) -> str:
        return f"PauliString({self.label!r})"
