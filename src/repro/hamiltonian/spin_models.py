"""Spin-chain Hamiltonians: Heisenberg and XY models.

Section 7.3 of the paper names "time-evolving Hamiltonian simulations
... the Ising model, Heisenberg model, XY model" as the natural next
applications for VarSaw, because their Pauli terms spread across multiple
measurement bases (so both the spatial and temporal optimizations bite).
These constructors make those workloads first-class citizens alongside
the molecular suite; the ``ext_spin_models`` catalog entry evaluates
VarSaw on them.
"""

from __future__ import annotations

from ..pauli import PauliString
from .hamiltonian import Hamiltonian

__all__ = ["heisenberg_hamiltonian", "xy_hamiltonian"]


def _bonds(n_qubits: int, periodic: bool) -> list[tuple[int, int]]:
    if n_qubits < 2:
        raise ValueError("spin chain needs at least two qubits")
    bonds = [(i, i + 1) for i in range(n_qubits - 1)]
    if periodic and n_qubits > 2:
        bonds.append((n_qubits - 1, 0))
    return bonds


def heisenberg_hamiltonian(
    n_qubits: int,
    jx: float = 1.0,
    jy: float = 1.0,
    jz: float = 1.0,
    field: float = 0.0,
    periodic: bool = False,
) -> Hamiltonian:
    """The (an)isotropic Heisenberg chain.

    ``H = sum_b [jx XX + jy YY + jz ZZ]_b + field * sum_i Z_i``.
    The XX / YY / ZZ bond terms live in three different measurement
    bases — the property that makes spatial subset sharing valuable.
    """
    terms: list[tuple[float, PauliString]] = []
    for i, j in _bonds(n_qubits, periodic):
        for coupling, kind in ((jx, "X"), (jy, "Y"), (jz, "Z")):
            if coupling != 0.0:
                terms.append(
                    (
                        coupling,
                        PauliString.from_sparse(
                            n_qubits, {i: kind, j: kind}
                        ),
                    )
                )
    if field != 0.0:
        for i in range(n_qubits):
            terms.append(
                (field, PauliString.from_sparse(n_qubits, {i: "Z"}))
            )
    return Hamiltonian(terms, name=f"Heisenberg-{n_qubits}")


def xy_hamiltonian(
    n_qubits: int,
    coupling: float = 1.0,
    anisotropy: float = 0.0,
    field: float = 0.0,
    periodic: bool = False,
) -> Hamiltonian:
    """The XY chain with anisotropy ``gamma``.

    ``H = -J/2 sum_b [(1+gamma) XX + (1-gamma) YY]_b - h sum_i Z_i``.
    ``anisotropy = 1`` recovers the transverse-field Ising model (up to
    basis relabeling); ``0`` the isotropic XX model.
    """
    if not -1.0 <= anisotropy <= 1.0:
        raise ValueError("anisotropy must be in [-1, 1]")
    terms: list[tuple[float, PauliString]] = []
    half = -0.5 * coupling
    for i, j in _bonds(n_qubits, periodic):
        cx = half * (1.0 + anisotropy)
        cy = half * (1.0 - anisotropy)
        if cx != 0.0:
            terms.append(
                (cx, PauliString.from_sparse(n_qubits, {i: "X", j: "X"}))
            )
        if cy != 0.0:
            terms.append(
                (cy, PauliString.from_sparse(n_qubits, {i: "Y", j: "Y"}))
            )
    if field != 0.0:
        for i in range(n_qubits):
            terms.append(
                (-field, PauliString.from_sparse(n_qubits, {i: "Z"}))
            )
    return Hamiltonian(terms, name=f"XY-{n_qubits}")
