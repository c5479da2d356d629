"""Frozen kron-embedding density-matrix evolution: the test oracle.

A verbatim copy of the original :mod:`repro.sim.density` evolution,
kept test-only so the axis-contraction implementation always has an
independent reference to diff against.  Every gate and every Kraus
operator is kron-embedded into a full ``2^n x 2^n`` matrix and applied
with two dense matmuls (O(8^n) per op), and each noise channel is a
loop over its Kraus operators.  Slow, simple, and deliberately never
optimized: do not edit it to track the library.
"""

from __future__ import annotations

import numpy as np

from repro.circuits import Circuit, gate_matrix


def depolarizing_kraus(probability: float) -> list[np.ndarray]:
    """Single-qubit depolarizing channel as four Kraus operators."""
    identity = np.eye(2, dtype=complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    z = np.diag([1, -1]).astype(complex)
    p = probability
    return [
        np.sqrt(1 - 3 * p / 4) * identity,
        np.sqrt(p / 4) * x,
        np.sqrt(p / 4) * y,
        np.sqrt(p / 4) * z,
    ]


def amplitude_damping_kraus(gamma: float) -> list[np.ndarray]:
    """Single-qubit amplitude damping (T1 relaxation) channel."""
    k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
    return [k0, k1]


class KronDensityMatrix:
    """An n-qubit mixed state evolved by full-register kron embedding."""

    def __init__(self, matrix: np.ndarray):
        self.matrix = np.asarray(matrix, dtype=complex)
        self.n_qubits = int(np.log2(self.matrix.shape[0]))

    @classmethod
    def zero_state(cls, n_qubits: int) -> "KronDensityMatrix":
        dim = 2**n_qubits
        matrix = np.zeros((dim, dim), dtype=complex)
        matrix[0, 0] = 1.0
        return cls(matrix)

    def _embed(self, op: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
        """Expand a k-qubit operator to the full register.

        Simple and fast enough at validation sizes: kron with identities,
        then permute axes so ``qubits`` land where they belong.
        """
        n = self.n_qubits
        rest = [q for q in range(n) if q not in qubits]
        order = list(qubits) + rest
        kron = op
        for _ in rest:
            kron = np.kron(kron, np.eye(2, dtype=complex))
        # kron acts on qubits in `order`; permute axes back to 0..n-1.
        kron = kron.reshape((2,) * (2 * n))
        perm = [order.index(q) for q in range(n)]
        full_perm = perm + [n + p for p in perm]
        return np.transpose(kron, full_perm).reshape(2**n, 2**n)

    def apply_unitary(
        self, matrix: np.ndarray, qubits: tuple[int, ...]
    ) -> None:
        """In-place ``rho -> U rho U†`` on the given qubits."""
        full = self._embed(matrix, tuple(int(q) for q in qubits))
        self.matrix = full @ self.matrix @ full.conj().T

    def apply_channel(self, kraus_ops, qubit: int) -> None:
        """In-place single-qubit Kraus channel ``rho -> sum K rho K†``."""
        out = np.zeros_like(self.matrix)
        for k in kraus_ops:
            full = self._embed(np.asarray(k, dtype=complex), (qubit,))
            out += full @ self.matrix @ full.conj().T
        self.matrix = out


def kron_run_density_matrix(
    circuit: Circuit,
    gate_error_1q: float = 0.0,
    gate_error_2q: float = 0.0,
    amplitude_damping: float = 0.0,
) -> KronDensityMatrix:
    """The original gate-by-gate evolution with per-gate Kraus channels.

    After every gate, a depolarizing channel of the matching error rate
    acts on each touched qubit; optional amplitude damping follows.
    Identity instructions skip the unitary but keep their noise.
    """
    rho = KronDensityMatrix.zero_state(circuit.n_qubits)
    dep_1q = depolarizing_kraus(gate_error_1q) if gate_error_1q else None
    dep_2q = depolarizing_kraus(gate_error_2q) if gate_error_2q else None
    damp = (
        amplitude_damping_kraus(amplitude_damping)
        if amplitude_damping
        else None
    )
    for ins in circuit.instructions:
        if ins.name != "i":
            rho.apply_unitary(gate_matrix(ins.name, ins.param), ins.qubits)
        channel = dep_2q if len(ins.qubits) == 2 else dep_1q
        for q in ins.qubits:
            if channel is not None:
                rho.apply_channel(channel, q)
            if damp is not None:
                rho.apply_channel(damp, q)
    return rho
