"""Qubit-commutativity graphs (Fig. 7 of the paper).

The figure draws a directed graph over Pauli strings: an arrow from P to Q
means "Q can commutatively measure P", i.e. measuring in Q's basis also
reads off P.  Strings with many 'I's have large commuting families — the
structural reason VarSaw's aggregate-then-commute reduction wins more as
Hamiltonians grow.
"""

from __future__ import annotations

import itertools

from .pauli import PauliString

__all__ = ["measuring_parents", "all_strings"]


def all_strings(n_qubits: int, alphabet: str = "IXZ") -> list[PauliString]:
    """Every Pauli string of the given width over ``alphabet``.

    Fig. 7 uses the 27 three-qubit strings over {I, X, Z}.
    """
    return [
        PauliString("".join(chars))
        for chars in itertools.product(alphabet, repeat=n_qubits)
    ]


def measuring_parents(
    pauli: PauliString, universe
) -> list[PauliString]:
    """All strings in ``universe`` that can measure ``pauli`` (Fig. 7 arrows).

    'III' has 26 parents among the 27 {I,X,Z} 3-qubit strings, 'IIZ' has 8,
    'IZZ' has 2, and 'ZZZ' has none — the counts quoted in the figure.
    """
    return [
        q
        for q in (
            u if isinstance(u, PauliString) else PauliString(u)
            for u in universe
        )
        if q != pauli and pauli.can_be_measured_by(q)
    ]
