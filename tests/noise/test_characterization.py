"""Unit tests for device readout characterization."""

import pytest

from repro.noise import SimulatorBackend, characterize_readout


class TestCharacterizeReadout:
    def test_estimates_match_model(self, tiny_device):
        backend = SimulatorBackend(tiny_device, seed=0)
        report = characterize_readout(backend, [0, 1, 2, 3], shots=40_000)
        for est in report.qubits:
            model = tiny_device.readout.qubit_errors[est.qubit]
            assert est.p01 == pytest.approx(model.p01, abs=0.01)
            assert est.p10 == pytest.approx(model.p10, abs=0.01)

    def test_detects_crosstalk_inflation(self, tiny_device):
        """Simultaneous measurement is measurably worse than isolated."""
        backend = SimulatorBackend(tiny_device, seed=1)
        report = characterize_readout(backend, [0, 1, 2, 3], shots=40_000)
        # tiny_device has crosstalk_strength=0.1 over 4 qubits: 1.3x.
        assert report.crosstalk_inflation == pytest.approx(1.3, abs=0.15)

    def test_best_qubits_ranking(self, tiny_device):
        backend = SimulatorBackend(tiny_device, seed=2)
        report = characterize_readout(backend, [0, 1, 2, 3], shots=40_000)
        # Model ordering: qubit 2 best, qubit 1 worst.
        assert report.best_qubits(1) == [2]
        assert report.best_qubits(4)[-1] == 1

    def test_best_qubits_validation(self, tiny_device):
        backend = SimulatorBackend(tiny_device, seed=2)
        report = characterize_readout(backend, [0, 1], shots=1000)
        with pytest.raises(ValueError):
            report.best_qubits(0)

    def test_circuit_charges(self, tiny_device):
        backend = SimulatorBackend(tiny_device, seed=3)
        characterize_readout(backend, [0, 1, 2], shots=100)
        # 2 per qubit + 2 simultaneous.
        assert backend.circuits_run == 2 * 3 + 2

    def test_ideal_device_reports_zero_error(self):
        backend = SimulatorBackend(seed=4)
        report = characterize_readout(backend, [0, 1], shots=2000)
        assert report.mean_error() == 0.0
        assert report.crosstalk_inflation == 1.0

    def test_empty_qubits_rejected(self, tiny_device):
        backend = SimulatorBackend(tiny_device, seed=5)
        with pytest.raises(ValueError):
            characterize_readout(backend, [], shots=100)

    def test_repeated_qubit_rejected_before_charging(self, tiny_device):
        backend = SimulatorBackend(tiny_device, seed=5)
        with pytest.raises(ValueError, match="qubit 0 is listed twice"):
            characterize_readout(backend, [0, 0, 1], shots=100)
        assert backend.circuits_run == 0
