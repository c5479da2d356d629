"""Failure-injection and extreme-regime tests.

Mitigation pipelines must stay numerically sane when the inputs are
degenerate: maximal readout noise, single-shot statistics, concentrated
distributions, and adversarial scheduler feedback.
"""

import numpy as np
import pytest

from repro.core import GlobalScheduler, VarSawEstimator, VarSawSpec
from repro.mitigation import (
    JigSawEstimator,
    JigSawSpec,
    bayesian_reconstruct,
)
from repro.noise import (
    DepolarizingGateNoise,
    DeviceModel,
    QubitReadoutError,
    ReadoutErrorModel,
    SimulatorBackend,
    ibmq_mumbai_like,
)
from repro.sim import PMF
from repro.vqe import BaselineEstimator, BaselineSpec


def brutal_device(n_qubits: int = 4) -> DeviceModel:
    """A device with near-maximal readout error on every qubit."""
    readout = ReadoutErrorModel(
        [QubitReadoutError(0.45, 0.45) for _ in range(n_qubits)],
        crosstalk_strength=0.5,
    )
    return DeviceModel(
        "brutal", readout, DepolarizingGateNoise(0.0, 0.0)
    )


class TestExtremeNoise:
    def test_estimators_stay_finite_under_maximal_readout(
        self, h2, h2_ansatz
    ):
        backend = SimulatorBackend(brutal_device(), seed=0)
        params = np.full(h2_ansatz.num_parameters, 0.2)
        for estimator_cls, spec in (
            (BaselineEstimator, BaselineSpec(shots=128)),
            (JigSawEstimator, JigSawSpec(shots=128)),
            (VarSawEstimator, VarSawSpec(shots=128)),
        ):
            est = estimator_cls(h2, h2_ansatz, backend, spec)
            energy = est.evaluate(params)
            assert np.isfinite(energy)

    def test_readout_error_caps_at_half(self):
        model = ReadoutErrorModel(
            [QubitReadoutError(0.4, 0.4)], crosstalk_strength=1.0, scale=5.0
        )
        err = model.effective_error(0, n_measured=1)
        assert err.p01 <= 0.5 and err.p10 <= 0.5

    def test_noise_scale_five_still_valid_pmfs(self, h2, h2_ansatz):
        backend = SimulatorBackend(ibmq_mumbai_like(scale=5.0), seed=1)
        est = BaselineEstimator(
            h2, h2_ansatz, backend, BaselineSpec(shots=64)
        )
        energy = est.evaluate(np.zeros(h2_ansatz.num_parameters))
        assert np.isfinite(energy)


class TestDegenerateStatistics:
    def test_single_shot_evaluation(self, h2, h2_ansatz):
        backend = SimulatorBackend(ibmq_mumbai_like(), seed=2)
        est = VarSawEstimator(h2, h2_ansatz, backend, VarSawSpec(shots=1))
        energy = est.evaluate(np.zeros(h2_ansatz.num_parameters))
        assert np.isfinite(energy)

    def test_reconstruction_with_point_mass_locals(self):
        g = PMF([0.25] * 4)
        local = PMF([1.0, 0.0], qubits=(0,))
        out = bayesian_reconstruct(g, [local])
        assert np.isclose(out.probs.sum(), 1.0)
        assert out.probs[2] == 0.0 and out.probs[3] == 0.0

    def test_reconstruction_with_conflicting_locals(self):
        """Two locals that contradict each other: last evidence wins, no
        crash, normalized output."""
        g = PMF([0.25] * 4)
        says_zero = PMF([1.0, 0.0], qubits=(0,))
        says_one = PMF([0.0, 1.0], qubits=(0,))
        out = bayesian_reconstruct(g, [says_zero, says_one])
        assert np.isclose(out.probs.sum(), 1.0)


class TestSchedulerAdversarial:
    def test_alternating_feedback_stays_bounded(self):
        sched = GlobalScheduler(initial_period=4, min_period=1, max_period=64)
        sched.record_global(0)
        for i in range(100):
            sched.feedback(stale_at_least_as_good=bool(i % 2))
            assert 1 <= sched.period <= 64

    def test_all_fresh_wins_floors_at_min(self):
        sched = GlobalScheduler(initial_period=64, min_period=2, max_period=64)
        sched.record_global(0)
        for _ in range(20):
            sched.feedback(stale_at_least_as_good=False)
        assert sched.period == 2

    def test_due_monotone_after_growth(self):
        sched = GlobalScheduler(initial_period=2, max_period=16)
        executed = []
        for t in range(64):
            if sched.due(t):
                sched.record_global(t)
                sched.feedback(stale_at_least_as_good=True)
                executed.append(t)
            sched.record_evaluation()
        # Executions must be strictly increasing and not every step.
        assert executed == sorted(set(executed))
        assert len(executed) < 64


class TestBudgetEdgeCases:
    def test_zero_budget_runs_nothing(self, h2, h2_ansatz):
        from repro.optimizers import SPSA
        from repro.vqe import run_vqe

        backend = SimulatorBackend(seed=0)
        est = BaselineEstimator(
            h2, h2_ansatz, backend, BaselineSpec(shots=16)
        )
        result = run_vqe(
            est,
            optimizer=SPSA(a=0.2, seed=0),
            max_iterations=100,
            circuit_budget=0,
            seed=0,
        )
        assert result.iterations == 0
        assert result.circuits_executed == 0

    def test_budget_smaller_than_one_iteration(self, h2, h2_ansatz):
        from repro.optimizers import SPSA
        from repro.vqe import run_vqe

        backend = SimulatorBackend(seed=0)
        est = BaselineEstimator(
            h2, h2_ansatz, backend, BaselineSpec(shots=16)
        )
        result = run_vqe(
            est,
            optimizer=SPSA(a=0.2, seed=0),
            max_iterations=100,
            circuit_budget=1,
            seed=0,
        )
        # The first iteration completes (budget checked between
        # iterations, like a real queue), then the run stops.
        assert result.iterations == 1
        assert result.stop_reason == "budget_exhausted"
