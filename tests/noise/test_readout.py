"""Unit tests for readout error models."""

import numpy as np
import pytest

from repro.noise import QubitReadoutError, ReadoutErrorModel

from .finisher_rows import finish, readout_backend


class TestQubitReadoutError:
    def test_confusion_matrix_columns_stochastic(self):
        err = QubitReadoutError(0.03, 0.07)
        m = err.confusion_matrix()
        assert np.allclose(m.sum(axis=0), [1.0, 1.0])
        assert m[1, 0] == 0.03  # P(read 1 | true 0)
        assert m[0, 1] == 0.07  # P(read 0 | true 1)

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            QubitReadoutError(-0.1, 0.0)
        with pytest.raises(ValueError):
            QubitReadoutError(0.0, 1.1)

    def test_scaled_caps_at_half(self):
        err = QubitReadoutError(0.4, 0.4).scaled(10)
        assert err.p01 == 0.5 and err.p10 == 0.5

    def test_mean_error(self):
        assert QubitReadoutError(0.02, 0.04).mean_error == pytest.approx(0.03)


class TestReadoutErrorModel:
    def make(self, crosstalk=0.1, scale=1.0):
        return ReadoutErrorModel(
            [
                QubitReadoutError(0.01, 0.02),
                QubitReadoutError(0.05, 0.08),
                QubitReadoutError(0.002, 0.003),
            ],
            crosstalk_strength=crosstalk,
            scale=scale,
        )

    def test_crosstalk_grows_with_width(self):
        model = self.make()
        assert model.crosstalk_factor(1) == 1.0
        assert model.crosstalk_factor(3) == pytest.approx(1.2)

    def test_effective_error_combines_scale_and_crosstalk(self):
        model = self.make(crosstalk=0.5, scale=2.0)
        err = model.effective_error(0, n_measured=2)
        # 0.01 * 2.0 (scale) * 1.5 (crosstalk over 2 qubits) = 0.03
        assert err.p01 == pytest.approx(0.03)

    def test_best_qubits_sorted_by_mean_error(self):
        model = self.make()
        assert model.best_qubits(1) == [2]
        assert model.best_qubits(3) == [2, 0, 1]

    def test_best_qubits_bounds(self):
        model = self.make()
        with pytest.raises(ValueError):
            model.best_qubits(0)
        with pytest.raises(ValueError):
            model.best_qubits(4)

    def test_with_scale_copies(self):
        model = self.make()
        scaled = model.with_scale(3.0)
        assert scaled.scale == 3.0
        assert model.scale == 1.0

    def test_apply_single_qubit_flip_rates(self):
        backend = readout_backend([QubitReadoutError(0.1, 0.3)])
        assert np.allclose(finish(backend, [1.0, 0.0]).probs, [0.9, 0.1])
        assert np.allclose(finish(backend, [0.0, 1.0]).probs, [0.3, 0.7])

    def test_apply_uses_physical_mapping(self):
        backend = readout_backend(self.make(crosstalk=0.0).qubit_errors)
        # Read qubit 1 alone: it goes through the noisiest line (1).
        noisy = finish(backend, [1.0, 0.0, 0.0, 0.0], measured=(1,))
        assert np.isclose(noisy.probs[1], 0.05)

    def test_apply_missing_mapping_raises(self):
        backend = readout_backend(self.make().qubit_errors)
        # A fourth qubit has no readout line on the 3-qubit device.
        with pytest.raises(ValueError):
            finish(backend, [1.0] + [0.0] * 15, measured=(3,))

    def test_apply_preserves_normalization(self):
        backend = readout_backend(self.make().qubit_errors, 0.1)
        noisy = finish(backend, [0.1, 0.2, 0.3, 0.4])
        assert np.isclose(noisy.probs.sum(), 1.0)

    def test_zero_scale_is_noiseless(self):
        model = self.make(scale=0.0)
        backend = readout_backend(
            model.qubit_errors, model.crosstalk_strength, model.scale
        )
        # Qubit 0 in |0>, qubit 1 read through line 1.
        noisy = finish(backend, [0.1, 0.9, 0.0, 0.0], measured=(1,))
        assert np.allclose(noisy.probs, [0.1, 0.9])

    def test_validation(self):
        with pytest.raises(ValueError):
            ReadoutErrorModel([], 0.1)
        with pytest.raises(ValueError):
            ReadoutErrorModel([QubitReadoutError(0, 0)], -0.1)
