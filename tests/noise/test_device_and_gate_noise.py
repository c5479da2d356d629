"""Unit tests for device presets and the depolarizing gate-noise channel."""

import networkx as nx
import numpy as np
import pytest

from repro.circuits import Circuit
from repro.noise import (
    DEVICE_PRESETS,
    DepolarizingGateNoise,
    ibm_jakarta_like,
    ibm_lagos_like,
    ibmq_mumbai_like,
    ideal_device,
)
from repro.sim import PMF

from .finisher_rows import finish, gate_noise_backend


class TestDepolarizingGateNoise:
    """The global depolarizing mix, as the noise finisher applies it."""

    def test_weight_grows_with_gates(self):
        noise = DepolarizingGateNoise(error_1q=0.001, error_2q=0.01)
        backend = gate_noise_backend(2, noise)
        small = Circuit(2)
        small.h(0)
        big = Circuit(2)
        for _ in range(10):
            big.cx(0, 1)
        # Mass left on the ideal outcome falls as the weight grows.
        kept = [
            finish(
                backend, [1.0, 0.0, 0.0, 0.0],
                gate_load=backend.noise_gate_load(qc),
            ).probs[0]
            for qc in (small, big)
        ]
        assert kept[1] < kept[0] < 1.0

    def test_zero_error_identity(self):
        noise = DepolarizingGateNoise(error_1q=0.0, error_2q=0.0)
        backend = gate_noise_backend(2, noise)
        qc = Circuit(2)
        qc.h(0)
        qc.cx(0, 1)
        pmf = PMF([0.5, 0, 0, 0.5])
        noisy = finish(
            backend, pmf.probs, gate_load=backend.noise_gate_load(qc)
        )
        assert noisy == pmf

    def test_apply_mixes_toward_uniform(self):
        noise = DepolarizingGateNoise(error_1q=0.0, error_2q=0.5)
        backend = gate_noise_backend(2, noise)
        qc2 = Circuit(2)
        qc2.cx(0, 1)
        noisy = finish(
            backend, [1.0, 0.0, 0.0, 0.0],
            gate_load=backend.noise_gate_load(qc2),
        )
        assert np.allclose(noisy.probs, [0.625, 0.125, 0.125, 0.125])

    def test_invalid_rates(self):
        with pytest.raises(ValueError):
            DepolarizingGateNoise(error_1q=-0.1)
        with pytest.raises(ValueError):
            DepolarizingGateNoise(error_2q=1.5)

    def test_with_scale(self):
        noise = DepolarizingGateNoise(error_1q=0.01, error_2q=0.0)
        backend = gate_noise_backend(1, noise.with_scale(2.0))
        qc = Circuit(1)
        qc.h(0)
        noisy = finish(
            backend, [1.0, 0.0], gate_load=backend.noise_gate_load(qc)
        )
        # One qubit: the mix moves half the weight onto |1>.
        assert 2 * noisy.probs[1] == pytest.approx(0.02)


class TestDevicePresets:
    @pytest.mark.parametrize("name", sorted(DEVICE_PRESETS))
    def test_presets_construct(self, name):
        device = DEVICE_PRESETS[name]()
        assert device.n_qubits in (7, 27)
        assert device.readout.n_qubits == device.n_qubits

    def test_presets_deterministic(self):
        a = ibmq_mumbai_like()
        b = ibmq_mumbai_like()
        for ea, eb in zip(a.readout.qubit_errors, b.readout.qubit_errors):
            assert ea == eb

    def test_presets_differ_across_devices(self):
        lagos = ibm_lagos_like()
        jakarta = ibm_jakarta_like()
        assert any(
            ea != eb
            for ea, eb in zip(
                lagos.readout.qubit_errors, jakarta.readout.qubit_errors
            )
        )

    def test_error_rates_in_published_range(self):
        device = ibmq_mumbai_like()
        means = [e.mean_error for e in device.readout.qubit_errors]
        assert 0.005 < float(np.mean(means)) < 0.10
        # p10 should exceed p01 (relaxation asymmetry).
        assert all(
            e.p10 >= e.p01 for e in device.readout.qubit_errors
        )

    def test_noise_scale_multiplies(self):
        base = ibmq_mumbai_like()
        scaled = base.with_noise_scale(3.0)
        assert scaled.readout.scale == pytest.approx(3.0)
        assert scaled.gate_noise.scale == pytest.approx(3.0)
        assert "x3" in scaled.name

    def test_ideal_device_noiseless(self):
        device = ideal_device(5)
        assert all(
            e.p01 == 0.0 and e.p10 == 0.0
            for e in device.readout.qubit_errors
        )
        assert device.gate_noise.error_2q == 0.0


class TestDeviceTopology:
    """Coupling-map wiring added with the layout substrate."""

    def test_mumbai_is_heavy_hex(self):
        device = ibmq_mumbai_like()
        coupling = device.coupling_map
        assert coupling.n_qubits == 27
        assert nx.is_connected(coupling.graph)
        assert all(len(coupling.neighbors(q)) <= 3 for q in range(27))

    def test_lagos_and_jakarta_share_the_h_shape(self):
        from repro.noise import ibm_lagos_like, ibm_jakarta_like

        for device in (ibm_lagos_like(), ibm_jakarta_like()):
            coupling = device.coupling_map
            assert coupling.n_qubits == 7
            assert coupling.n_edges == 6

    def test_ideal_device_fully_connected(self):
        device = ideal_device(4)
        assert device.coupling_map.n_edges == 6

    def test_noise_scale_preserves_topology(self):
        scaled = ibmq_mumbai_like().with_noise_scale(2.0)
        assert scaled.topology == "heavy_hex_27"
        assert scaled.coupling_map.n_qubits == 27

    def test_unknown_topology_rejected(self):
        device = ideal_device(4)
        device.topology = "moebius_strip"
        with pytest.raises(ValueError, match="unknown topology"):
            device.coupling_map

    def test_width_mismatched_topology_rejected(self):
        device = ideal_device(5)
        device.topology = "h_shape_7"
        with pytest.raises(ValueError, match="qubits"):
            device.coupling_map
