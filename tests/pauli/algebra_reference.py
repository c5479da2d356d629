"""Pauli products with their phases, one character at a time: the oracle.

The Clifford tableau multiplies Pauli images as ``i^k X^x Z^z`` bit
forms, and nothing in the library calls a character-table product.
This one is kept test-only, as an independent reference: the Pauli
tests check it against dense matrices, and the Clifford property tests
check conjugation against it.
"""

from __future__ import annotations

from repro.pauli import PauliString

# Single-qubit products: (a, b) -> (phase, c) with a*b = phase * c,
# phase in {1, i, -1, -i} encoded as a power of i.
_PRODUCT_TABLE: dict[tuple[str, str], tuple[int, str]] = {
    ("I", "I"): (0, "I"), ("I", "X"): (0, "X"), ("I", "Y"): (0, "Y"), ("I", "Z"): (0, "Z"),
    ("X", "I"): (0, "X"), ("X", "X"): (0, "I"), ("X", "Y"): (1, "Z"), ("X", "Z"): (3, "Y"),
    ("Y", "I"): (0, "Y"), ("Y", "X"): (3, "Z"), ("Y", "Y"): (0, "I"), ("Y", "Z"): (1, "X"),
    ("Z", "I"): (0, "Z"), ("Z", "X"): (1, "Y"), ("Z", "Y"): (3, "X"), ("Z", "Z"): (0, "I"),
}

_PHASES = (1, 1j, -1, -1j)


def phase_product(a: PauliString, b: PauliString) -> tuple[complex, PauliString]:
    """Return ``(phase, c)`` with ``a @ b == phase * c`` as operators."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("width mismatch")
    power = 0
    chars = []
    for ca, cb in zip(a.label, b.label):
        p, c = _PRODUCT_TABLE[(ca, cb)]
        power = (power + p) % 4
        chars.append(c)
    return _PHASES[power], PauliString("".join(chars))
