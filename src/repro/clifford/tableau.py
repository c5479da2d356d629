"""Phase-tracking Clifford tableau (Aaronson-Gottesman style).

A Clifford unitary is fully described by the images of the single-qubit
generators under conjugation: ``U X_q U†`` and ``U Z_q U†`` are signed
Pauli strings.  :class:`CliffordTableau` stores those ``2n`` images as
binary symplectic rows plus a sign bit and updates them gate by gate, so
conjugating an arbitrary Pauli through a whole circuit costs O(n) per
gate instead of O(4^n) dense algebra.

Conventions
-----------
* Row ``i < n`` is the image of ``X_i``; row ``n + i`` is the image of
  ``Z_i``.
* A row ``(x, z, s)`` denotes the Hermitian Pauli ``(-1)^s · P`` where
  ``P`` has X on qubits with ``x``, Z with ``z``, Y with both (the same
  encoding as :mod:`repro.pauli.symplectic`).
* Internally, products track phases as ``i^k · X^x Z^z`` with ``k`` mod 4
  — the ``Y = iXZ`` bookkeeping that makes sign propagation exact.
"""

from __future__ import annotations

import numpy as np

from ..circuits import Circuit
from ..pauli.pauli import PauliString
from ..pauli.symplectic import decode, encode

__all__ = ["CliffordTableau", "CLIFFORD_GATES"]

#: Gate names :meth:`CliffordTableau.from_circuit` accepts.
CLIFFORD_GATES = frozenset(
    {"i", "x", "y", "z", "h", "s", "sdg", "sx", "cx", "cz", "swap"}
)

PhaseForm = tuple[int, np.ndarray, np.ndarray]


def _phase_encode(pauli: PauliString) -> PhaseForm:
    """Hermitian string -> (k, x, z) with ``pauli = i^k X^x Z^z``.

    Each Y site contributes one factor of i (``Y = iXZ``).
    """
    x, z = encode(pauli)
    return int(np.count_nonzero(x & z)) % 4, x, z


def _phase_decode(form: PhaseForm) -> tuple[int, PauliString]:
    """(k, x, z) -> (sign, Hermitian string); raises if the phase is ±i."""
    k, x, z = form
    residue = (k - int(np.count_nonzero(x & z))) % 4
    if residue == 0:
        sign = 1
    elif residue == 2:
        sign = -1
    else:
        raise ValueError("non-Hermitian phase (±i) — invalid conjugation")
    return sign, decode(x, z)


def _phase_mul(a: PhaseForm, b: PhaseForm) -> PhaseForm:
    """Product of two ``i^k X^x Z^z`` forms.

    Commuting ``Z^az`` past ``X^bx`` picks up ``(-1)`` per overlapping
    site: ``i^(2·|az & bx|)``.
    """
    ka, xa, za = a
    kb, xb, zb = b
    k = (ka + kb + 2 * int(np.count_nonzero(za & xb))) % 4
    return k, xa ^ xb, za ^ zb


class CliffordTableau:
    """The conjugation action of a Clifford circuit on Pauli strings."""

    def __init__(self, n_qubits: int):
        if n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        self.n = n_qubits
        # Row i: image of X_i; row n+i: image of Z_i.
        self.x = np.zeros((2 * n_qubits, n_qubits), dtype=bool)
        self.z = np.zeros((2 * n_qubits, n_qubits), dtype=bool)
        self.sign = np.zeros(2 * n_qubits, dtype=bool)
        for q in range(n_qubits):
            self.x[q, q] = True
            self.z[n_qubits + q, q] = True

    # ------------------------------------------------------------ constructors

    @classmethod
    def from_circuit(cls, circuit: Circuit) -> "CliffordTableau":
        """Interpret a Clifford-only circuit; raises on any other gate."""
        tab = cls(circuit.n_qubits)
        for inst in circuit.instructions:
            tab.apply_gate(inst.name, inst.qubits)
        return tab

    def copy(self) -> "CliffordTableau":
        out = CliffordTableau(self.n)
        out.x = self.x.copy()
        out.z = self.z.copy()
        out.sign = self.sign.copy()
        return out

    # ------------------------------------------------------------------- gates

    def apply_gate(self, name: str, qubits: tuple[int, ...]) -> None:
        """Update the tableau for one more gate appended to the circuit."""
        name = name.lower()
        if name not in CLIFFORD_GATES:
            raise ValueError(f"{name!r} is not a Clifford tableau gate")
        handlers = {
            "i": lambda q: self._check(q),
            "x": self.x_gate,
            "y": self.y_gate,
            "z": self.z_gate,
            "h": self.h,
            "s": self.s,
            "sdg": self.sdg,
            "sx": self.sx,
            "cx": self.cx,
            "cz": self.cz,
            "swap": self.swap,
        }
        handlers[name](*qubits)

    def _check(self, *qubits: int) -> None:
        for q in qubits:
            if not 0 <= q < self.n:
                raise ValueError(f"qubit {q} out of range for n={self.n}")

    def h(self, q: int) -> None:
        self._check(q)
        self.sign ^= self.x[:, q] & self.z[:, q]
        self.x[:, q], self.z[:, q] = self.z[:, q].copy(), self.x[:, q].copy()

    def s(self, q: int) -> None:
        self._check(q)
        self.sign ^= self.x[:, q] & self.z[:, q]
        self.z[:, q] ^= self.x[:, q]

    def sdg(self, q: int) -> None:
        self._check(q)
        self.sign ^= self.x[:, q] & ~self.z[:, q]
        self.z[:, q] ^= self.x[:, q]

    def sx(self, q: int) -> None:
        # SX = H·S·H exactly, so the conjugation action composes.
        self.h(q)
        self.s(q)
        self.h(q)

    def x_gate(self, q: int) -> None:
        self._check(q)
        self.sign ^= self.z[:, q]

    def y_gate(self, q: int) -> None:
        self._check(q)
        self.sign ^= self.x[:, q] ^ self.z[:, q]

    def z_gate(self, q: int) -> None:
        self._check(q)
        self.sign ^= self.x[:, q]

    def cx(self, control: int, target: int) -> None:
        self._check(control, target)
        if control == target:
            raise ValueError("cx control == target")
        xc, zc = self.x[:, control], self.z[:, control]
        xt, zt = self.x[:, target], self.z[:, target]
        self.sign ^= xc & zt & ~(xt ^ zc)
        self.x[:, target] = xt ^ xc
        self.z[:, control] = zc ^ zt

    def cz(self, a: int, b: int) -> None:
        # CZ = H(b)·CX(a,b)·H(b); compose the primitive updates.
        self.h(b)
        self.cx(a, b)
        self.h(b)

    def swap(self, a: int, b: int) -> None:
        self._check(a, b)
        self.x[:, [a, b]] = self.x[:, [b, a]]
        self.z[:, [a, b]] = self.z[:, [b, a]]

    # ----------------------------------------------------------- conjugation

    def conjugate(
        self, pauli: PauliString, sign: int = 1
    ) -> tuple[int, PauliString]:
        """Return ``(sign', P')`` with ``U (sign·pauli) U† = sign'·P'``."""
        if pauli.n_qubits != self.n:
            raise ValueError("Pauli width mismatch")
        if sign not in (1, -1):
            raise ValueError("sign must be ±1")
        k0, x, z = _phase_encode(pauli)
        if sign == -1:
            k0 = (k0 + 2) % 4
        acc: PhaseForm = (
            k0,
            np.zeros(self.n, dtype=bool),
            np.zeros(self.n, dtype=bool),
        )
        # P = i^k · (Π_q X_q^{x_q}) (Π_q Z_q^{z_q}); conjugation is a
        # homomorphism, so multiply the images factor by factor.
        for q in range(self.n):
            if x[q]:
                acc = _phase_mul(acc, self._row_phase_form(q))
        for q in range(self.n):
            if z[q]:
                acc = _phase_mul(acc, self._row_phase_form(self.n + q))
        return _phase_decode(acc)

    def _row_phase_form(self, row: int) -> PhaseForm:
        """Row image as an ``i^k X^x Z^z`` form (sign bit folded into k)."""
        x, z = self.x[row], self.z[row]
        k = int(np.count_nonzero(x & z)) % 4
        if self.sign[row]:
            k = (k + 2) % 4
        return k, x, z

    # ----------------------------------------------------------- composition

    def then(self, other: "CliffordTableau") -> "CliffordTableau":
        """Tableau of running ``self``'s circuit, then ``other``'s."""
        if other.n != self.n:
            raise ValueError("width mismatch")
        out = CliffordTableau(self.n)
        for row in range(2 * self.n):
            row_sign, label = _phase_decode(self._row_phase_form(row))
            s2, p2 = other.conjugate(label)
            _, out.x[row], out.z[row] = _phase_encode(p2)
            out.sign[row] = (row_sign * s2) == -1
        return out

    def inverse(self) -> "CliffordTableau":
        """The tableau of the inverse circuit.

        The binary part of a symplectic matrix ``M = [[A, B], [C, D]]``
        (column blocks x|z, row blocks X|Z) inverts as
        ``M⁻¹ = [[Dᵀ, Bᵀ], [Cᵀ, Aᵀ]]`` over GF(2); signs are then fixed
        by requiring each inverse row to conjugate back to its generator
        with sign +1.
        """
        n = self.n
        a = self.x[:n, :]
        b = self.z[:n, :]
        c = self.x[n:, :]
        d = self.z[n:, :]
        inv = CliffordTableau(n)
        inv.x[:n, :] = d.T
        inv.z[:n, :] = b.T
        inv.x[n:, :] = c.T
        inv.z[n:, :] = a.T
        for row in range(2 * n):
            _, label = _phase_decode(inv._row_phase_form(row))
            s, _ = self.conjugate(label)
            inv.sign[row] = s == -1
        return inv

    # ----------------------------------------------------------- inspection

    def is_identity(self) -> bool:
        return self == CliffordTableau(self.n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CliffordTableau):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.z, other.z)
            and np.array_equal(self.sign, other.sign)
        )

    def __repr__(self) -> str:
        return f"CliffordTableau(n={self.n})"
