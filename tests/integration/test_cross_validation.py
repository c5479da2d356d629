"""Cross-validation between independent implementations of the same physics.

The fast backend's noise finisher applies noise analytically on
probability vectors; these tests validate it against brute-force Monte
Carlo (per-shot bit flipping) and against the density-matrix reference
simulator.
"""

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.noise import QubitReadoutError, SimulatorBackend, ibmq_mumbai_like
from repro.sim import PMF, run_density_matrix, run_statevector

from ..noise.finisher_rows import finish, readout_backend


class TestReadoutChannelVsMonteCarlo:
    def test_analytic_channel_matches_bit_flip_sampling(self, rng):
        """Apply the confusion matrices analytically vs flipping sampled
        bits one shot at a time: the distributions must agree."""
        errors = [
            QubitReadoutError(0.05, 0.12),
            QubitReadoutError(0.02, 0.30),
        ]
        ideal = PMF([0.45, 0.05, 0.15, 0.35], qubits=(0, 1))
        analytic = finish(readout_backend(errors), ideal.probs)

        shots = 400_000
        outcomes = rng.choice(4, size=shots, p=ideal.probs)
        bits = np.stack(
            [(outcomes >> 1) & 1, outcomes & 1], axis=1
        ).astype(bool)
        for j, err in enumerate(errors):
            flips_01 = rng.random(shots) < err.p01
            flips_10 = rng.random(shots) < err.p10
            bits[:, j] = np.where(
                bits[:, j], ~flips_10, flips_01
            )
        observed = bits[:, 0].astype(int) * 2 + bits[:, 1].astype(int)
        empirical = np.bincount(observed, minlength=4) / shots
        assert np.abs(analytic.probs - empirical).max() < 0.005

    def test_crosstalk_inflation_matches_direct_scaling(self):
        """The crosstalk factor the finisher applies equals scaling the
        per-qubit error rates by hand."""
        base = QubitReadoutError(0.04, 0.08)
        ideal = [1.0, 0.0, 0.0, 0.0]
        noisy = finish(readout_backend([base, base], 0.25), ideal)
        inflated = base.scaled(1.25)
        manual = finish(readout_backend([inflated, inflated]), ideal)
        assert np.allclose(noisy.probs, manual.probs)


class TestBackendVsDensityMatrix:
    def test_noiseless_agreement(self):
        qc = Circuit(3)
        qc.h(0)
        qc.cx(0, 1)
        qc.ry(0.9, 2)
        qc.cx(1, 2)
        qc.measure_all()
        backend = SimulatorBackend(seed=0)
        fast = backend.exact_pmf(qc)
        rho = run_density_matrix(qc)
        assert np.allclose(fast.probs, rho.probabilities(), atol=1e-10)

    def test_depolarizing_approximation_tracks_reference(self):
        """The backend's global-depolarizing shortcut stays within a few
        percent (TVD) of true local channels at realistic error rates."""
        device = ibmq_mumbai_like()
        e1 = device.gate_noise.error_1q
        e2 = device.gate_noise.error_2q
        qc = Circuit(3)
        qc.h(0)
        qc.cx(0, 1)
        qc.cx(1, 2)
        qc.ry(0.5, 0)
        qc.measure_all()
        backend = SimulatorBackend(device, seed=0, readout_enabled=False)
        fast = backend.exact_pmf(qc)
        rho = run_density_matrix(qc, gate_error_1q=e1, gate_error_2q=e2)
        reference = PMF(rho.probabilities())
        assert fast.tvd(reference) < 0.02


class TestExpectationPaths:
    def test_three_ways_to_compute_energy_agree(self, h2, h2_ansatz):
        """Matrix expectation == grouped-PMF assembly == density matrix."""
        params = np.linspace(-0.5, 0.5, h2_ansatz.num_parameters)
        bound = h2_ansatz.bind(params)
        state = run_statevector(bound)
        via_matrix = h2.expectation_exact(state)

        from repro.sim import DensityMatrix

        rho = DensityMatrix(np.outer(state, state.conj()))
        via_density = rho.expectation(h2.to_sparse_matrix().toarray())

        from repro.vqe import IdealEstimator

        via_estimator = IdealEstimator(h2, h2_ansatz).evaluate(params)

        assert via_matrix == pytest.approx(via_density, abs=1e-9)
        assert via_matrix == pytest.approx(via_estimator, abs=1e-9)
