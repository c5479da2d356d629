"""The QAOA alternating ansatz.

p layers of [cost unitary, mixer unitary] after a uniform-superposition
start.  The cost unitary ``exp(-i γ H_C)`` is exact for the diagonal
(Z/ZZ-only) Hamiltonians :mod:`repro.qaoa.problems` produces: each ZZ
term compiles to CX·RZ·CX and each Z term to one RZ.  The mixer is the
standard transverse field ``exp(-i β Σ X_q)``.

The class duck-types :class:`~repro.ansatz.EfficientSU2` (``n_qubits``,
``num_parameters``, ``bind``, ``gate_load``, ``content_key``) so every
estimator and runner in the library accepts it unchanged.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

from ..circuits import Circuit
from ..hamiltonian import Hamiltonian

__all__ = ["QAOAAnsatz"]


class QAOAAnsatz:
    """Alternating cost/mixer ansatz for a diagonal cost Hamiltonian.

    Parameters are ordered ``[γ_1, β_1, γ_2, β_2, ...]`` — ``2·reps``
    total.

    Example
    -------
    >>> from repro.qaoa import ring_maxcut
    >>> ansatz = QAOAAnsatz(ring_maxcut(4), reps=2)
    >>> ansatz.num_parameters
    4
    >>> ansatz.bind([0.1, 0.2, 0.3, 0.4]).is_bound()
    True
    """

    def __init__(self, cost_hamiltonian: Hamiltonian, reps: int = 1):
        if reps < 1:
            raise ValueError("reps must be >= 1")
        for _, pauli in cost_hamiltonian.non_identity_terms():
            if pauli.x_mask:
                raise ValueError(
                    "QAOA cost Hamiltonian must be diagonal (Z/I only); "
                    f"got term {pauli}"
                )
        self.hamiltonian = cost_hamiltonian
        self.n_qubits = cost_hamiltonian.n_qubits
        self.reps = reps

    @property
    def num_parameters(self) -> int:
        return 2 * self.reps

    @property
    def entanglement(self) -> str:
        """Entanglement is dictated by the problem graph, not a knob."""
        return "problem"

    def _append_cost_layer(self, qc: Circuit, gamma: float) -> None:
        for coeff, pauli in self.hamiltonian.non_identity_terms():
            support = pauli.support
            angle = 2.0 * gamma * coeff
            if len(support) == 1:
                qc.rz(angle, support[0])
            elif len(support) == 2:
                a, b = support
                qc.cx(a, b)
                qc.rz(angle, b)
                qc.cx(a, b)
            else:
                # exp(-iθ/2 Z...Z) via a CX parity ladder onto the last
                # support qubit.
                for q in support[:-1]:
                    qc.cx(q, support[-1])
                qc.rz(angle, support[-1])
                for q in reversed(support[:-1]):
                    qc.cx(q, support[-1])

    def _append_mixer_layer(self, qc: Circuit, beta: float) -> None:
        for q in range(self.n_qubits):
            qc.rx(2.0 * beta, q)

    @functools.cached_property
    def content_key(self) -> str:
        """Digest of everything that shapes this ansatz's bound circuits.

        The width, the depth and every cost term's coefficient and
        support, in order: a bound angle is ``2γ·coefficient``, so the
        gate structure alone would let two weightings share a key.
        Computed once per instance; the engine keys prepared states by
        it.
        """
        h = hashlib.blake2b(digest_size=16)
        h.update(f"qaoa:{self.n_qubits}:{self.reps}".encode())
        for coeff, pauli in self.hamiltonian.non_identity_terms():
            h.update(f"|{coeff!r}:{pauli.support}".encode())
        return h.hexdigest()

    def bind(self, values) -> Circuit:
        """Build the bound circuit for a flat [γ, β, ...] array."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.num_parameters,):
            raise ValueError(
                f"expected {self.num_parameters} parameters, "
                f"got shape {values.shape}"
            )
        qc = Circuit(self.n_qubits, name=f"qaoa_p{self.reps}")
        for q in range(self.n_qubits):
            qc.h(q)
        for layer in range(self.reps):
            gamma, beta = values[2 * layer], values[2 * layer + 1]
            self._append_cost_layer(qc, float(gamma))
            self._append_mixer_layer(qc, float(beta))
        return qc

    @property
    def gate_load(self) -> tuple[int, int]:
        """(1-qubit, 2-qubit) gate counts of one bound instance."""
        probe = self.bind(np.zeros(self.num_parameters))
        two = probe.num_two_qubit_gates
        return probe.num_gates - two, two

    def __repr__(self) -> str:
        return (
            f"QAOAAnsatz(problem={self.hamiltonian.name!r}, "
            f"n_qubits={self.n_qubits}, reps={self.reps})"
        )
