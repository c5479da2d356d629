"""Unit tests for the density-matrix reference simulator."""

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.pauli import PauliString
from repro.sim import (
    DensityMatrix,
    amplitude_damping_kraus,
    depolarizing_kraus,
    probabilities,
    run_density_matrix,
    run_statevector,
)


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2): 1 for pure states, 1/2^n for maximally mixed."""
    return float(np.trace(rho.matrix @ rho.matrix).real)


def bell() -> Circuit:
    qc = Circuit(2)
    qc.h(0)
    qc.cx(0, 1)
    return qc


class TestKrausChannels:
    @pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 1.0])
    def test_depolarizing_trace_preserving(self, p):
        ops = depolarizing_kraus(p)
        total = sum(k.conj().T @ k for k in ops)
        assert np.allclose(total, np.eye(2))

    @pytest.mark.parametrize("g", [0.0, 0.3, 1.0])
    def test_damping_trace_preserving(self, g):
        ops = amplitude_damping_kraus(g)
        total = sum(k.conj().T @ k for k in ops)
        assert np.allclose(total, np.eye(2))

    def test_bounds(self):
        with pytest.raises(ValueError):
            depolarizing_kraus(1.5)
        with pytest.raises(ValueError):
            amplitude_damping_kraus(-0.1)

    def test_full_depolarizing_mixes_completely(self):
        rho = DensityMatrix.zero_state(1)
        rho.apply_channel(depolarizing_kraus(1.0), 0)
        assert np.allclose(rho.matrix, np.eye(2) / 2)

    def test_damping_decays_excited_state(self):
        qc = Circuit(1)
        qc.x(0)
        rho = run_density_matrix(qc, amplitude_damping=0.25)
        # After X and one damping step: p(|1>) = 0.75.
        assert rho.probabilities()[1] == pytest.approx(0.75)


class TestDensityMatrix:
    def test_zero_state(self):
        rho = DensityMatrix.zero_state(2)
        assert rho.trace() == pytest.approx(1.0)
        assert purity(rho) == pytest.approx(1.0)
        assert rho.probabilities()[0] == pytest.approx(1.0)

    def test_invalid_shapes(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            DensityMatrix(np.zeros((3, 3)))

    def test_expectation_matches_statevector(self):
        state = run_statevector(bell())
        rho = DensityMatrix(np.outer(state, state.conj()))
        for label in ("ZZ", "XX", "ZI"):
            op = PauliString(label).to_matrix()
            expected = np.vdot(state, op @ state).real
            assert rho.expectation(op) == pytest.approx(expected)


class TestRunDensityMatrix:
    def test_noiseless_matches_statevector(self):
        qc = Circuit(3)
        qc.h(0)
        qc.cx(0, 1)
        qc.ry(0.6, 2)
        qc.cz(1, 2)
        rho = run_density_matrix(qc)
        assert np.allclose(
            rho.probabilities(), probabilities(run_statevector(qc))
        )
        assert purity(rho) == pytest.approx(1.0)

    def test_gate_noise_reduces_purity(self):
        rho = run_density_matrix(bell(), gate_error_2q=0.05)
        assert purity(rho) < 1.0
        assert rho.trace() == pytest.approx(1.0)

    def test_unbound_rejected(self):
        from repro.circuits import Parameter

        qc = Circuit(1)
        qc.rx(Parameter("a"), 0)
        with pytest.raises(ValueError):
            run_density_matrix(qc)

    def test_validates_rates(self):
        with pytest.raises(ValueError):
            run_density_matrix(bell(), gate_error_1q=2.0)

    def test_global_depolarizing_approximation_quality(self):
        """The fast backend's uniform-mix approximation tracks the true
        local-channel result on the Bell circuit's distribution."""
        error = 0.02
        exact = run_density_matrix(bell(), gate_error_1q=error,
                                   gate_error_2q=error)
        exact_probs = exact.probabilities()
        ideal = probabilities(run_statevector(bell()))
        # Fast approximation: mix toward uniform with the survival model.
        lam = 1.0 - (1.0 - error) ** 1 * (1.0 - error) ** 1
        approx = (1 - lam) * ideal + lam * np.full(4, 0.25)
        assert np.abs(exact_probs - approx).max() < 0.02

    def test_noise_contracts_pauli_expectations(self):
        zz = PauliString("ZZ").to_matrix()
        clean = run_density_matrix(bell())
        noisy = run_density_matrix(bell(), gate_error_2q=0.1)
        assert abs(noisy.expectation(zz)) < abs(clean.expectation(zz))


class TestQubitValidation:
    """Bad qubits raise a clear ValueError instead of failing by accident
    inside a reshape, or silently wrapping (``q = -1``) as an axis."""

    CX = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
        dtype=complex,
    )
    H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

    @pytest.mark.parametrize("qubits", [(2,), (-1,)])
    def test_unitary_qubit_out_of_range(self, qubits):
        rho = DensityMatrix.zero_state(2)
        with pytest.raises(ValueError, match="out of range"):
            rho.apply_unitary(self.H, qubits)

    def test_unitary_qubits_not_distinct(self):
        rho = DensityMatrix.zero_state(3)
        with pytest.raises(ValueError, match="not distinct"):
            rho.apply_unitary(self.CX, (1, 1))

    @pytest.mark.parametrize(
        "matrix, qubits",
        [(CX, (0,)), (H, (0, 1)), (np.eye(3), (0,)), (np.ones(2), (0,))],
    )
    def test_unitary_arity_mismatch(self, matrix, qubits):
        rho = DensityMatrix.zero_state(3)
        with pytest.raises(ValueError, match="operator on"):
            rho.apply_unitary(matrix, qubits)

    @pytest.mark.parametrize("qubit", [3, -1])
    def test_channel_qubit_out_of_range(self, qubit):
        rho = DensityMatrix.zero_state(3)
        with pytest.raises(ValueError, match="out of range"):
            rho.apply_channel(depolarizing_kraus(0.1), qubit)

    def test_channel_kraus_arity_mismatch(self):
        rho = DensityMatrix.zero_state(2)
        with pytest.raises(ValueError, match="operator on"):
            rho.apply_channel([np.eye(4)], 0)

    def test_failed_validation_leaves_the_state_untouched(self):
        rho = DensityMatrix.zero_state(2)
        before = rho.matrix.copy()
        with pytest.raises(ValueError):
            rho.apply_unitary(self.H, (-1,))
        assert np.array_equal(rho.matrix, before)
