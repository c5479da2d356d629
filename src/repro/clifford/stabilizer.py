"""Stabilizer-state outcome distributions from a Clifford tableau.

A Clifford circuit maps |0...0> to a *stabilizer state*: the state
stabilized by the images of the initial ``Z_q`` generators under the
circuit's conjugation action — exactly the rows a
:class:`~repro.clifford.tableau.CliffordTableau` tracks.  The
computational-basis outcome distribution of such a state is uniform
over an affine subspace of bitstrings, so it can be computed without
ever materializing the ``2^n`` complex statevector:

1. Reduce the ``n`` stabilizer generators over GF(2) until the X-parts
   are in echelon form; the generators whose X-part vanishes span the
   *Z-type* subgroup.
2. Each Z-type generator ``(-1)^s Z^b`` contributes one linear
   constraint ``b . x = s (mod 2)`` on the outcome bits ``x``.
3. The distribution is uniform over the bitstrings satisfying every
   constraint (probability ``2^m / 2^n`` for ``m`` independent Z-type
   generators — exactly representable, so results are bit-identical to
   the dense simulator's).

This is the fast path behind the ``clifford`` execution backend
(:mod:`repro.backends.clifford`): tableau evolution costs O(n) per
gate instead of the statevector's O(2^n).
"""

from __future__ import annotations

import numpy as np

from ..circuits import Circuit
from ..pauli.pauli import _bit_parity
from ..pauli.symplectic import decode
from .tableau import CLIFFORD_GATES, CliffordTableau, PhaseForm, _phase_mul

__all__ = ["is_clifford_circuit", "stabilizer_probabilities"]


def is_clifford_circuit(circuit: Circuit) -> bool:
    """Whether every gate in ``circuit`` has a tableau update.

    The test is purely syntactic (gate names against
    :data:`~repro.clifford.tableau.CLIFFORD_GATES`): an ``rz`` at a
    multiple of pi/2 still reads as non-Clifford, which keeps dispatch
    deterministic and cheap.
    """
    return all(
        ins.name.lower() in CLIFFORD_GATES for ins in circuit.instructions
    )


def _z_type_constraints(
    tableau: CliffordTableau,
) -> list[tuple[np.ndarray, int]]:
    """The Z-type subgroup of the state's stabilizer group.

    Returns ``(b, s)`` pairs, one per independent pure-Z stabilizer
    ``(-1)^s Z^b``; outcomes must satisfy ``b . x = s (mod 2)``.
    """
    n = tableau.n
    forms: list[PhaseForm] = [
        tableau._row_phase_form(n + q) for q in range(n)
    ]
    # GF(2) elimination on the X-parts; phase bookkeeping rides along
    # through _phase_mul so the surviving Z-rows keep exact signs.
    pivot_rows: list[PhaseForm] = []
    for column in range(n):
        pivot = next(
            (i for i, (_, x, _z) in enumerate(forms) if x[column]), None
        )
        if pivot is None:
            continue
        pivot_form = forms.pop(pivot)
        pivot_rows.append(pivot_form)
        forms = [
            _phase_mul(form, pivot_form) if form[1][column] else form
            for form in forms
        ]
    constraints: list[tuple[np.ndarray, int]] = []
    for k, x, z in forms:
        if x.any():  # pragma: no cover - elimination guarantees not
            raise AssertionError("non-Z row survived elimination")
        # Hermitian, X-free rows carry phase i^k with k in {0, 2}.
        if k % 2:  # pragma: no cover - tableau rows stay Hermitian
            raise AssertionError("non-Hermitian stabilizer row")
        constraints.append((z, (k % 4) // 2))
    return constraints


def stabilizer_probabilities(circuit: Circuit) -> np.ndarray:
    """Exact outcome probabilities of a Clifford-only circuit.

    Every probability is an exactly-represented dyadic rational
    (``1/|support|`` or ``0``); the dense simulator reproduces the same
    distribution up to floating-point dust from its gate products.
    Qubit 0 is the most significant bit of the outcome index — the
    library-wide convention.  Raises ``ValueError`` on non-Clifford
    gates; callers dispatch with :func:`is_clifford_circuit` first.
    """
    tableau = CliffordTableau.from_circuit(circuit)
    n = tableau.n
    support = np.ones(2**n, dtype=bool)
    constraints = _z_type_constraints(tableau)
    if constraints:
        # Evaluate each parity constraint as popcount(index & mask) —
        # O(1) temporaries per constraint instead of an n-column bit
        # matrix, keeping the fast path's peak memory below the dense
        # simulator's complex statevector at any device width.
        index = np.arange(2**n, dtype=np.uint64)
        for b, s in constraints:
            mask = decode(np.zeros_like(b), b).z_mask  # that of Z^b
            support &= _bit_parity(index & np.uint64(mask)) == s
    count = int(support.sum())
    if count == 0:  # pragma: no cover - stabilizer states are non-empty
        raise AssertionError("stabilizer state with empty support")
    probs = np.zeros(2**n)
    probs[support] = 1.0 / count
    return probs
