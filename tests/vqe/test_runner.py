"""Unit tests for the VQE loop."""

import numpy as np
import pytest

from repro.noise import SimulatorBackend
from repro.optimizers import ImFil
from repro.vqe import (
    BaselineEstimator,
    BaselineSpec,
    IdealEstimator,
    IdealSpec,
    initial_parameters,
    run_vqe,
)


class TestInitialParameters:
    def test_shape_and_spread(self):
        params = initial_parameters(10, seed=0, spread=0.1)
        assert params.shape == (10,)
        assert np.all(np.abs(params) <= 0.1)

    def test_seeded(self):
        assert np.allclose(
            initial_parameters(5, seed=1), initial_parameters(5, seed=1)
        )


class TestRunVqe:
    def test_ideal_vqe_approaches_ground_state(self, h2, h2_ansatz):
        est = IdealEstimator(h2, h2_ansatz, SimulatorBackend(), IdealSpec())
        result = run_vqe(est, max_iterations=250, seed=0)
        from repro.hamiltonian import ground_state_energy

        e0 = ground_state_energy(h2)
        # 250 SPSA iterations should close most of the gap from the random
        # start.
        start = est.evaluate(initial_parameters(h2_ansatz.num_parameters, 0))
        assert result.energy < start
        assert result.energy - e0 < 0.6 * (start - e0)

    def test_histories_aligned(self, h2, h2_ansatz):
        backend = SimulatorBackend(seed=0)
        est = BaselineEstimator(
            h2, h2_ansatz, backend, BaselineSpec(shots=32)
        )
        result = run_vqe(est, max_iterations=10, seed=0)
        assert len(result.energy_history) == len(result.circuit_history) == 10
        assert result.iterations_completed() == 10

    def test_circuit_budget_stops_run(self, h2, h2_ansatz):
        from repro.optimizers import SPSA

        backend = SimulatorBackend(seed=0)
        est = BaselineEstimator(
            h2, h2_ansatz, backend, BaselineSpec(shots=16)
        )
        per_iter = 2 * est.circuits_per_evaluation  # SPSA: 2 evals/iter
        budget = 5 * per_iter
        result = run_vqe(
            est,
            optimizer=SPSA(a=0.2, seed=0),  # fixed gain: no calibration
            max_iterations=1000,
            circuit_budget=budget,
            seed=0,
        )
        assert result.stop_reason == "budget_exhausted"
        assert result.circuits_executed <= budget + per_iter
        assert result.iterations < 1000

    def test_budget_counted_from_run_start(self, h2, h2_ansatz):
        """Pre-existing backend charges don't eat the run's budget."""
        backend = SimulatorBackend(seed=0)
        est = BaselineEstimator(
            h2, h2_ansatz, backend, BaselineSpec(shots=16)
        )
        est.evaluate(np.zeros(h2_ansatz.num_parameters))  # outside the run
        spent_before = backend.circuits_run
        result = run_vqe(
            est,
            max_iterations=3,
            circuit_budget=10 * est.circuits_per_evaluation,
            seed=0,
        )
        assert result.circuits_executed == backend.circuits_run - spent_before

    def test_custom_optimizer(self, h2, h2_ansatz):
        est = IdealEstimator(h2, h2_ansatz, SimulatorBackend(), IdealSpec())
        result = run_vqe(
            est, optimizer=ImFil(h0=0.3), max_iterations=20, seed=0
        )
        assert result.iterations <= 20

    def test_explicit_initial_params(self, h2, h2_ansatz):
        est = IdealEstimator(h2, h2_ansatz, SimulatorBackend(), IdealSpec())
        x0 = np.zeros(h2_ansatz.num_parameters)
        result = run_vqe(est, max_iterations=5, initial_params=x0, seed=0)
        assert result.energy <= est.evaluate(x0) + 1e-9
