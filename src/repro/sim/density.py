"""Density-matrix simulation with per-gate noise channels.

The fast backend (:mod:`repro.noise.backend`) applies noise to outcome
*probabilities* — exact for readout error, approximate (global
depolarizing) for gate error.  This module is the reference
implementation: full mixed-state evolution with local channels
(depolarizing after every gate, optional amplitude damping), the way
Qiskit Aer's density-matrix method models the paper's noisy simulations.

Rho evolves as a ``(2,)*2n`` tensor, never via a full-register operator:
each op is a superoperator (``U ⊗ U*``, ``sum K ⊗ K*``, or closed-form
depolarizing) contracted into its qubits' row and column axes, which
:func:`~repro.sim.plan.axis_permutation` moves to the front.
:meth:`DensityMatrix._evolve` is the one contraction kernel: one copy
into the GEMM operand per op, after which rho stays a transposed view
until :attr:`DensityMatrix.matrix` is read.  :func:`run_density_matrix`
folds each distinct fixed gate with its noise channel once per call,
and every rotation's in one stacked product.  That is O(4^n) per op:
for validation and small systems, not VQA loops.
"""

from __future__ import annotations

import numpy as np

from ..circuits import ROTATION_GATES, Circuit, gate_matrix
from .plan import axis_permutation

__all__ = [
    "DensityMatrix",
    "depolarizing_kraus",
    "amplitude_damping_kraus",
    "run_density_matrix",
]


def depolarizing_kraus(probability: float) -> list[np.ndarray]:
    """Single-qubit depolarizing channel as four Kraus operators."""
    if not 0.0 <= probability <= 1.0:
        raise ValueError("probability must be in [0, 1]")
    p = probability
    identity = np.sqrt(1 - 3 * p / 4) * gate_matrix("i")
    return [identity] + [np.sqrt(p / 4) * gate_matrix(g) for g in "xyz"]


def amplitude_damping_kraus(gamma: float) -> list[np.ndarray]:
    """Single-qubit amplitude damping (T1 relaxation) channel."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must be in [0, 1]")
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


class DensityMatrix:
    """An n-qubit mixed state, ``2^n x 2^n`` complex matrix.

    Bit ordering matches the rest of the library: qubit 0 is the most
    significant bit of the row/column index.  Rho is stored as a
    ``(2,)*2n`` tensor, which evolution leaves a transposed view.
    """

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("density matrix must be square")
        n = int(np.log2(matrix.shape[0]))
        if 2**n != matrix.shape[0]:
            raise ValueError("dimension must be a power of two")
        self.n_qubits = n
        self._tensor = matrix.reshape((2,) * (2 * n))

    @property
    def matrix(self) -> np.ndarray:
        """Rho as a ``2^n x 2^n`` array.

        The first read after evolution copies the transposed tensor
        into this layout once and keeps it, so later reads are views.
        """
        dim = 2**self.n_qubits
        matrix = self._tensor.reshape(dim, dim)
        self._tensor = matrix.reshape(self._tensor.shape)
        return matrix

    # ------------------------------------------------------------ constructors

    @classmethod
    def zero_state(cls, n_qubits: int) -> DensityMatrix:
        """The pure all-zeros state ``|0...0><0...0|``."""
        dim = 2**n_qubits
        matrix = np.zeros((dim, dim), dtype=complex)
        matrix[0, 0] = 1.0
        return cls(matrix)

    # ------------------------------------------------------------- properties

    def trace(self) -> float:
        """Tr(rho), real part: 1 for a normalized state."""
        return float(np.trace(self.matrix).real)

    def probabilities(self) -> np.ndarray:
        """Computational-basis outcome probabilities (the diagonal)."""
        probs = np.clip(np.diag(self.matrix).real, 0.0, None)
        total = probs.sum()
        if total <= 0:
            raise ValueError("density matrix has zero trace")
        return probs / total

    def expectation(self, operator: np.ndarray) -> float:
        """Tr(rho O) for a Hermitian operator."""
        return float(np.trace(self.matrix @ operator).real)

    # --------------------------------------------------------------- dynamics

    def _checked(self, qubits, ops=()) -> tuple[int, ...]:
        """``qubits`` as ints: in range, distinct, matching ``ops``."""
        qubits = tuple(int(q) for q in qubits)
        n, k = self.n_qubits, len(qubits)
        if any(not 0 <= q < n for q in qubits):
            raise ValueError(f"qubits {qubits} out of range for {n} qubits")
        if len(set(qubits)) != k:
            raise ValueError(f"qubits {qubits} are not distinct")
        for op in ops:
            if op.shape != (2**k, 2**k):
                raise ValueError(f"{op.shape} operator on {k} qubit(s)")
        return qubits

    def _evolve(self, superop: np.ndarray, qubits: tuple[int, ...]) -> None:
        """Contract ``superop`` into ``qubits``' row, then column, axes.

        Rho stays the transposed view the previous op left, so the
        reshape below is the op's one copy (none when the axes already
        line up).  The GEMM sees the operand a contiguous rho would
        give, so the result is bit-identical to copying rho back to a
        ``2^n x 2^n`` matrix after every op, as
        ``tests/sim/test_density_bitwise.py`` pins.
        """
        n = self.n_qubits
        axes = qubits + tuple(n + q for q in qubits)
        perm, inv = axis_permutation(axes, 2 * n)
        tensor = self._tensor
        out = superop @ tensor.transpose(perm).reshape(len(superop), -1)
        self._tensor = out.reshape(tensor.shape).transpose(inv)

    def apply_unitary(self, matrix: np.ndarray, qubits) -> None:
        """In-place ``rho -> U rho U†``: ``U`` on rows, ``U*`` on columns."""
        matrix = np.asarray(matrix, dtype=complex)
        qubits = self._checked(qubits, [matrix])
        self._evolve(_superop([matrix]), qubits)

    def apply_channel(self, kraus_ops, qubit: int) -> None:
        """In-place Kraus channel ``rho -> sum K rho K†`` on one qubit."""
        ops = [np.asarray(k, dtype=complex) for k in kraus_ops]
        qubits = self._checked((qubit,), ops)
        self._evolve(_superop(ops), qubits)


def run_density_matrix(
    circuit: Circuit,
    gate_error_1q: float = 0.0,
    gate_error_2q: float = 0.0,
    amplitude_damping: float = 0.0,
) -> DensityMatrix:
    """Simulate a bound circuit with local per-gate noise channels.

    After every gate, a depolarizing channel of the matching error rate
    acts on each touched qubit; optional amplitude damping follows.
    Each gate's superoperator comes folded with that channel: built
    once per distinct fixed gate, and for all rotations in one stacked
    ``U ⊗ U*`` and one broadcast product.  Nothing outlives the call,
    so the rates and damping of each call are the only ones it sees.
    """
    if not circuit.is_bound():
        raise ValueError("circuit must be bound")
    for name, value in (
        ("gate_error_1q", gate_error_1q),
        ("gate_error_2q", gate_error_2q),
        ("amplitude_damping", amplitude_damping),
    ):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1]")
    rho = DensityMatrix.zero_state(circuit.n_qubits)
    # Each gate folds with its qubits' depolarizing-then-damping channel.
    damp = _superop(amplitude_damping_kraus(amplitude_damping))
    noise = {
        1: damp @ _depolarizing(gate_error_1q),
        2: _on_pair(damp @ _depolarizing(gate_error_2q)),
    }
    instructions = circuit.instructions
    unitaries = np.array([
        gate_matrix(ins.name, ins.param)
        for ins in instructions
        if ins.name in ROTATION_GATES
    ], dtype=complex).reshape(-1, 2, 2)
    # Every rotation's U ⊗ U* at once, as _superop builds each one (the
    # reshape keeps the stack 3-D for a circuit without rotations).
    rotations = iter(noise[1] @ np.einsum(
        "bij,bkl->bikjl", unitaries, unitaries.conj()
    ).reshape(-1, 4, 4))
    fixed: dict[str, np.ndarray] = {}
    for ins in instructions:
        if ins.name in ROTATION_GATES:
            superop = next(rotations)
        else:
            superop = fixed.get(ins.name)
            if superop is None:
                superop = noise[len(ins.qubits)]
                if ins.name != "i":
                    superop = superop @ _superop([gate_matrix(ins.name)])
                fixed[ins.name] = superop
        rho._evolve(superop, ins.qubits)
    return rho
