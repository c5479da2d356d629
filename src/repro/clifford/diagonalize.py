"""Simultaneous diagonalization of mutually-commuting Pauli families.

A set of pairwise (fully) commuting Pauli strings can be measured with a
*single* circuit: a Clifford rotation that maps every member to a Z-only
string, followed by computational-basis measurement.  This is the
machinery behind general-commutation grouping — the "more sophisticated
forms of commutation" the paper leaves out of scope in Section 3.1
because of exactly the circuit-depth cost this module makes measurable.

Algorithm
---------
Work on an independent generating set (GF(2) row reduction of the
symplectic matrix).  For each generator with X-support left, pick a pivot
qubit and clear the row with column operations realized as gates:

* ``S(q)``   clears a Y at the pivot (``z ^= x`` at column q),
* ``CX(q→r)`` clears X at other columns,
* ``CZ(q, r)`` clears residual Z at other columns,
* ``H(q)``   converts the lone X at the pivot into a lone Z.

After a row is reduced to a single ``Z_q``, commutation guarantees no
other row has X at ``q``, so later operations never disturb it.  Products
of Z-only strings are Z-only, so the dependent members come out diagonal
for free.  Signs of the diagonal images are recovered exactly with
:class:`~repro.clifford.tableau.CliffordTableau`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..circuits import Circuit
from ..pauli.pauli import PauliString
from ..pauli.symplectic import PauliTable
from .tableau import CliffordTableau

__all__ = ["DiagonalizedGroup", "diagonalize_commuting"]


@dataclass(frozen=True)
class DiagonalizedGroup:
    """A commuting Pauli family plus its shared measurement circuit.

    ``diagonals[i]`` is ``(sign, Z-only string)``: the image of
    ``members[i]`` under conjugation by ``circuit``.  The expectation of
    member *i* from post-circuit computational-basis probabilities is
    ``sign * diagonal.expectation_from_probs(probs)``.
    """

    n_qubits: int
    members: tuple[PauliString, ...]
    circuit: Circuit
    diagonals: tuple[tuple[int, PauliString], ...]

    def expectation(self, index: int, probs: np.ndarray) -> float:
        """<members[index]> from full-width post-rotation probabilities."""
        sign, diagonal = self.diagonals[index]
        return sign * diagonal.expectation_from_probs(probs)

    @property
    def entangling_gates(self) -> int:
        """Two-qubit gate count of the measurement rotation."""
        return self.circuit.num_two_qubit_gates

    def __len__(self) -> int:
        return len(self.members)


def _independent_generators(table: PauliTable) -> np.ndarray:
    """GF(2) row reduction of [x|z]; returns the independent rows stacked."""
    mat = np.concatenate([table.x, table.z], axis=1).astype(np.uint8)
    keep: list[np.ndarray] = []
    pivots: list[int] = []
    for row in mat:
        row = row.copy()
        for kept, pivot in zip(keep, pivots):
            if row[pivot]:
                row ^= kept
        nonzero = np.flatnonzero(row)
        if nonzero.size:
            keep.append(row)
            pivots.append(int(nonzero[0]))
    if not keep:
        return np.zeros((0, mat.shape[1]), dtype=np.uint8)
    return np.stack(keep)


def _verify_commuting(table: PauliTable) -> None:
    for i, pauli in enumerate(table.to_strings()):
        flags = table.commutes_with(pauli)
        if not bool(np.all(flags)):
            j = int(np.flatnonzero(~flags)[0])
            raise ValueError(
                f"Paulis do not mutually commute: "
                f"{pauli} vs {table.to_strings()[j]}"
            )


def diagonalize_commuting(paulis, n_qubits: int) -> DiagonalizedGroup:
    """Build the shared measurement circuit for a commuting Pauli family.

    Raises ``ValueError`` if any pair fails to (fully) commute.

    Example
    -------
    >>> group = diagonalize_commuting(["XX", "YY", "ZZ"], 2)
    >>> [str(d) for _, d in group.diagonals]
    ['ZI', 'ZZ', 'IZ']
    """
    members = tuple(
        p if isinstance(p, PauliString) else PauliString(p) for p in paulis
    )
    if not members:
        raise ValueError("empty Pauli family")
    for p in members:
        if p.n_qubits != n_qubits:
            raise ValueError(f"{p} width != {n_qubits}")
    table = PauliTable.from_strings(members)
    _verify_commuting(table)

    gen = _independent_generators(table)
    k = gen.shape[0]
    x = gen[:, :n_qubits].astype(bool)
    z = gen[:, n_qubits:].astype(bool)

    circuit = Circuit(n_qubits, name="gc_diagonalize")

    def apply_s(q: int) -> None:
        circuit.s(q)
        z[:, q] ^= x[:, q]

    def apply_h(q: int) -> None:
        circuit.h(q)
        x[:, q], z[:, q] = z[:, q].copy(), x[:, q].copy()

    def apply_cx(c: int, t: int) -> None:
        circuit.cx(c, t)
        x[:, t] ^= x[:, c]
        z[:, c] ^= z[:, t]

    def apply_cz(a: int, b: int) -> None:
        circuit.cz(a, b)
        z[:, a] ^= x[:, b]
        z[:, b] ^= x[:, a]

    for i in range(k):
        row_x = np.flatnonzero(x[i])
        if row_x.size == 0:
            continue  # already Z-only; stays Z-only under later column ops
        pivot = int(row_x[0])
        if z[i, pivot]:
            apply_s(pivot)
        for r in np.flatnonzero(x[i]):
            r = int(r)
            if r == pivot:
                continue
            if z[i, r]:
                apply_s(r)
            apply_cx(pivot, r)
        for r in np.flatnonzero(z[i]):
            r = int(r)
            if r == pivot:
                continue
            apply_cz(pivot, r)
        assert not z[i, pivot], "pivot Z must be clear before H"
        apply_h(pivot)

    tableau = CliffordTableau.from_circuit(circuit)
    diagonals = []
    for p in members:
        sign, image = tableau.conjugate(p)
        if image.x_mask:
            raise AssertionError(
                f"diagonalization failed: {p} -> {image}"
            )
        diagonals.append((sign, image))
    return DiagonalizedGroup(
        n_qubits=n_qubits,
        members=members,
        circuit=circuit,
        diagonals=tuple(diagonals),
    )
