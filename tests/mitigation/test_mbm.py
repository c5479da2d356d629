"""Unit tests for matrix-based measurement mitigation."""

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.mitigation import MatrixMitigator
from repro.noise import SimulatorBackend
from repro.sim import PMF


class TestConstruction:
    def test_rejects_non_stochastic(self):
        with pytest.raises(ValueError):
            MatrixMitigator({0: np.array([[0.9, 0.3], [0.2, 0.7]])})

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            MatrixMitigator({0: np.eye(4)})


class TestExactCalibration:
    def test_inverts_readout_channel_exactly(self, tiny_device):
        """mitigate(noisy_pmf) == ideal_pmf when A comes from the model."""
        backend = SimulatorBackend(tiny_device, seed=0)
        qc = Circuit(4)
        qc.h(0)
        qc.cx(0, 1)
        qc.measure([0, 1])
        noisy = backend.exact_pmf(qc)
        backend_clean = SimulatorBackend(
            tiny_device, seed=0, readout_enabled=False
        )
        ideal = backend_clean.exact_pmf(qc)
        mitigator = MatrixMitigator.from_device(backend, [0, 1])
        recovered = mitigator.mitigate_pmf(noisy)
        assert np.allclose(recovered.probs, ideal.probs, atol=1e-10)

    def test_missing_qubit_calibration(self, tiny_device):
        backend = SimulatorBackend(tiny_device, seed=0)
        mitigator = MatrixMitigator.from_device(backend, [0])
        with pytest.raises(ValueError):
            mitigator.mitigate_pmf(PMF([0.25] * 4, qubits=(0, 1)))


class TestSampledCalibration:
    def test_calibrate_estimates_flip_rates(self, tiny_device):
        backend = SimulatorBackend(tiny_device, seed=5)
        mitigator = MatrixMitigator.calibrate(backend, [0, 1], shots=60_000)
        exact = MatrixMitigator.from_device(backend, [0, 1], n_measured=2)
        for q in (0, 1):
            assert np.allclose(
                mitigator.matrices[q], exact.matrices[q], atol=0.01
            )

    def test_calibrate_charges_two_circuits(self, tiny_device):
        backend = SimulatorBackend(tiny_device, seed=5)
        MatrixMitigator.calibrate(backend, [0, 1], shots=100)
        assert backend.circuits_run == 2

    def test_calibrate_rejects_empty_qubits(self, tiny_device):
        backend = SimulatorBackend(tiny_device, seed=5)
        with pytest.raises(ValueError, match="at least one qubit"):
            MatrixMitigator.calibrate(backend, [], shots=100)
        assert backend.circuits_run == 0

    def test_calibrate_rejects_repeated_qubit(self, tiny_device):
        backend = SimulatorBackend(tiny_device, seed=5)
        with pytest.raises(ValueError, match="qubit 1 is listed twice"):
            MatrixMitigator.calibrate(backend, [1, 0, 1], shots=100)
        assert backend.circuits_run == 0


class TestPhysicalityProjection:
    def test_negative_probabilities_clipped(self):
        # An inverse applied to statistically impossible counts can go
        # negative; the projection must return a valid PMF.
        mitigator = MatrixMitigator(
            {0: np.array([[0.8, 0.3], [0.2, 0.7]])}
        )
        weird = PMF([0.05, 0.95], qubits=(0,))
        out = mitigator.mitigate_pmf(weird)
        assert np.all(out.probs >= 0)
        assert np.isclose(out.probs.sum(), 1.0)

    def test_mitigate_counts_path(self, tiny_device):
        from repro.sim import Counts

        backend = SimulatorBackend(tiny_device, seed=0)
        mitigator = MatrixMitigator.from_device(backend, [0])
        counts = Counts({"0": 90, "1": 10}, qubits=(0,))
        out = mitigator.mitigate_counts(counts)
        assert out.n_qubits == 1
