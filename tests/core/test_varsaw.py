"""Unit tests for the end-to-end VarSaw estimator."""

import numpy as np
import pytest

from repro.core import VarSawEstimator
from repro.mitigation import JigSawEstimator
from repro.noise import SimulatorBackend, ibmq_mumbai_like
from repro.vqe import BaselineEstimator, IdealEstimator


def make_varsaw(h2, h2_ansatz, backend, **kw):
    kw.setdefault("shots", 64)
    return VarSawEstimator(h2, h2_ansatz, backend, **kw)


class TestCostAccounting:
    @pytest.mark.parametrize("subset_shots", [0, -5])
    def test_subset_shots_below_one_rejected(
        self, h2, h2_ansatz, subset_shots
    ):
        with pytest.raises(ValueError, match="subset_shots"):
            make_varsaw(
                h2, h2_ansatz, SimulatorBackend(), subset_shots=subset_shots
            )

    def test_first_evaluation_runs_globals_and_subsets(self, h2, h2_ansatz):
        backend = SimulatorBackend(seed=0)
        est = make_varsaw(h2, h2_ansatz, backend)
        est.evaluate(np.zeros(h2_ansatz.num_parameters))
        assert backend.circuits_run == (
            est.circuits_per_subset_pass + est.num_groups
        )

    def test_non_global_evaluations_run_subsets_only(self, h2, h2_ansatz):
        backend = SimulatorBackend(seed=0)
        est = make_varsaw(h2, h2_ansatz, backend, global_mode="never")
        params = np.zeros(h2_ansatz.num_parameters)
        est.evaluate(params)
        first = backend.circuits_run
        est.evaluate(params)
        assert backend.circuits_run - first == est.circuits_per_subset_pass

    def test_always_mode_runs_globals_every_time(self, h2, h2_ansatz):
        backend = SimulatorBackend(seed=0)
        est = make_varsaw(h2, h2_ansatz, backend, global_mode="always")
        params = np.zeros(h2_ansatz.num_parameters)
        for _ in range(3):
            est.evaluate(params)
        assert backend.circuits_run == 3 * (
            est.circuits_per_subset_pass + est.num_groups
        )

    def test_varsaw_cheaper_than_jigsaw_per_iteration(self, h2, h2_ansatz):
        """The headline: VarSaw's steady-state cost is far below JigSaw."""
        backend = SimulatorBackend(seed=0)
        var = make_varsaw(h2, h2_ansatz, backend, global_mode="never")
        jig = JigSawEstimator(h2, h2_ansatz, backend, shots=64)
        assert var.circuits_per_subset_pass < jig.circuits_per_evaluation

    def test_global_fraction_tracked(self, h2, h2_ansatz):
        backend = SimulatorBackend(seed=0)
        est = make_varsaw(h2, h2_ansatz, backend, global_mode="never")
        params = np.zeros(h2_ansatz.num_parameters)
        for _ in range(4):
            est.evaluate(params)
        assert est.global_fraction == pytest.approx(0.25)


class TestMitigationQuality:
    def test_noise_free_varsaw_consistent_with_ideal(self, h2, h2_ansatz):
        backend = SimulatorBackend(seed=1)
        est = make_varsaw(h2, h2_ansatz, backend, shots=50_000)
        ideal = IdealEstimator(h2, h2_ansatz)
        params = np.full(h2_ansatz.num_parameters, 0.2)
        assert est.evaluate(params) == pytest.approx(
            ideal.evaluate(params), abs=0.1
        )

    def test_varsaw_beats_baseline_under_noise(self, h2, h2_ansatz):
        """Fig. 14's mechanism at a fixed parameter point."""
        params = np.full(h2_ansatz.num_parameters, 0.3)
        ideal = IdealEstimator(h2, h2_ansatz).evaluate(params)
        device = ibmq_mumbai_like(scale=2.0)
        base_err, var_err = [], []
        for seed in range(3):
            backend = SimulatorBackend(device, seed=seed)
            base = BaselineEstimator(h2, h2_ansatz, backend, shots=4096)
            var = make_varsaw(h2, h2_ansatz, backend, shots=4096)
            base_err.append(abs(base.evaluate(params) - ideal))
            var_err.append(abs(var.evaluate(params) - ideal))
        assert np.mean(var_err) < np.mean(base_err)


class TestTemporalDynamics:
    def test_adaptive_scheduler_moves_period(self, h2, h2_ansatz):
        backend = SimulatorBackend(ibmq_mumbai_like(), seed=2)
        est = make_varsaw(
            h2, h2_ansatz, backend, global_mode="adaptive",
            initial_period=2,
        )
        rng = np.random.default_rng(0)
        for _ in range(12):
            est.evaluate(rng.normal(0, 0.1, h2_ansatz.num_parameters))
        assert est.scheduler.evaluations_seen == 12
        assert est.scheduler.globals_executed < 12
        assert len(est.scheduler.period_history) == 12

    def test_prior_reused_between_evaluations(self, h2, h2_ansatz):
        backend = SimulatorBackend(seed=0)
        est = make_varsaw(h2, h2_ansatz, backend, global_mode="never")
        params = np.zeros(h2_ansatz.num_parameters)
        est.evaluate(params)
        prior_after_first = est._prior
        est.evaluate(params)
        assert est._prior is not prior_after_first  # updated each eval


class TestConstruction:
    def test_plan_matches_spatial_module(self, h2, h2_ansatz):
        from repro.core import varsaw_subset_plan

        backend = SimulatorBackend(seed=0)
        est = make_varsaw(h2, h2_ansatz, backend)
        expected = varsaw_subset_plan(h2, window=2)
        assert est.plan.assignments == expected.assignments

    def test_every_group_has_locals(self, h2, h2_ansatz):
        backend = SimulatorBackend(seed=0)
        est = make_varsaw(h2, h2_ansatz, backend)
        assert all(est._compatible)

    def test_invalid_global_mode(self, h2, h2_ansatz):
        with pytest.raises(ValueError):
            make_varsaw(
                h2, h2_ansatz, SimulatorBackend(), global_mode="bogus"
            )
