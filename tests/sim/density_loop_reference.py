"""Frozen per-gate density evolution loop: the bitwise test oracle.

A verbatim copy of the :mod:`repro.sim.density` evolution loop as it
stood before superoperators were built once per call: every gate
rebuilds ``U ⊗ U*`` with its own ``einsum``, folds it with the gate's
noise channel by its own ``noise @`` product, and ``_evolve`` copies rho
twice per op (into the GEMM operand, then back to a contiguous
``2^n x 2^n`` matrix).  :func:`repro.sim.run_density_matrix` must
reproduce its full matrix bit for bit.  Deliberately never optimized:
do not edit it to track the library.
"""

from __future__ import annotations

import numpy as np

from repro.circuits import Circuit, gate_matrix


def amplitude_damping_kraus(gamma: float) -> list[np.ndarray]:
    """Single-qubit amplitude damping (T1 relaxation) channel."""
    k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
    return [k0, k1]


def _superop(kraus_ops) -> np.ndarray:
    """``rho -> sum K rho K†`` as ``sum K ⊗ K*``, acting on vec(rho)."""
    ks = np.asarray(kraus_ops, dtype=complex)
    superop = np.einsum("mij,mkl->ikjl", ks, ks.conj())
    return superop.reshape(ks.shape[1] ** 2, -1)


def _depolarizing(p: float) -> np.ndarray:
    """``rho -> (1-p) rho + p (I/2 ⊗ Tr rho)`` on one qubit, closed form."""
    trace = np.array([1, 0, 0, 1], dtype=complex)  # vec(I)
    return (1 - p) * np.eye(4) + (p / 2) * np.outer(trace, trace)


def _on_pair(channel: np.ndarray) -> np.ndarray:
    """A one-qubit superoperator applied to both qubits of a pair."""
    both = np.kron(channel, channel).reshape((2,) * 8)
    # (r1 c1 r2 c2) -> (r1 r2 c1 c2), the order _evolve contracts in.
    return both.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(16, 16)


def _axis_permutation(axes, n_axes):
    """The transpose moving ``axes`` to the front, and its inverse."""
    rest = tuple(a for a in range(n_axes) if a not in axes)
    perm = axes + rest
    return perm, tuple(int(i) for i in np.argsort(perm))


class LoopDensityMatrix:
    """An n-qubit mixed state kept as a contiguous ``2^n x 2^n`` matrix."""

    def __init__(self, matrix: np.ndarray):
        self.matrix = np.asarray(matrix, dtype=complex)
        self.n_qubits = int(np.log2(self.matrix.shape[0]))

    @classmethod
    def zero_state(cls, n_qubits: int) -> "LoopDensityMatrix":
        dim = 2**n_qubits
        matrix = np.zeros((dim, dim), dtype=complex)
        matrix[0, 0] = 1.0
        return cls(matrix)

    def _evolve(self, superop: np.ndarray, qubits: tuple[int, ...]) -> None:
        """Contract ``superop`` into ``qubits``' row, then column, axes."""
        n = self.n_qubits
        axes = qubits + tuple(n + q for q in qubits)
        perm, inv = _axis_permutation(axes, 2 * n)
        tensor = self.matrix.reshape((2,) * (2 * n))
        out = superop @ tensor.transpose(perm).reshape(len(superop), -1)
        shape = self.matrix.shape
        self.matrix = out.reshape(tensor.shape).transpose(inv).reshape(shape)


def loop_run_density_matrix(
    circuit: Circuit,
    gate_error_1q: float = 0.0,
    gate_error_2q: float = 0.0,
    amplitude_damping: float = 0.0,
) -> LoopDensityMatrix:
    """Simulate a bound circuit with local per-gate noise channels."""
    rho = LoopDensityMatrix.zero_state(circuit.n_qubits)
    damp = _superop(amplitude_damping_kraus(amplitude_damping))
    noise = {
        1: damp @ _depolarizing(gate_error_1q),
        2: _on_pair(damp @ _depolarizing(gate_error_2q)),
    }
    for ins in circuit.instructions:
        superop = noise[len(ins.qubits)]
        if ins.name != "i":
            superop = superop @ _superop([gate_matrix(ins.name, ins.param)])
        rho._evolve(superop, ins.qubits)
    return rho
