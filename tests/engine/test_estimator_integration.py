"""End-to-end: every estimator family routes through the engine with
seed-exact cost accounting."""

import numpy as np
import pytest

from repro import Session
from repro.core import SelectiveSpec, SelectiveVarSawEstimator
from repro.engine import ExecutionEngine
from repro.noise import SimulatorBackend
from repro.vqe import GeneralCommutationEstimator, GeneralCommutationSpec

FAMILIES = ("baseline", "jigsaw", "varsaw", "varsaw_max_sparsity")


def fixed_params(estimator, seed=13):
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.2, 0.2, estimator.ansatz.num_parameters)


class TestEstimatorsUseEngine:
    @pytest.mark.parametrize("kind", FAMILIES)
    def test_jobs_flow_through_engine(self, kind, h2_workload, noisy_device):
        backend = SimulatorBackend(noisy_device, seed=7)
        estimator = Session(backend=backend).estimator(
            kind, h2_workload, shots=64
        )
        estimator.evaluate(fixed_params(estimator))
        stats = estimator.engine.stats
        assert stats.jobs_submitted > 0
        # Every executed circuit was charged through the engine.
        assert backend.circuits_run == stats.jobs_submitted

    def test_gc_estimator_uses_engine(self, h2_workload, noisy_device):
        backend = SimulatorBackend(noisy_device, seed=7)
        estimator = GeneralCommutationEstimator(
            h2_workload.hamiltonian,
            h2_workload.ansatz,
            backend,
            GeneralCommutationSpec(shots=64),
        )
        estimator.evaluate(fixed_params(estimator))
        assert estimator.engine.stats.jobs_submitted == len(
            estimator.gc_groups
        )
        assert backend.circuits_run == len(estimator.gc_groups)

    def test_selective_estimator_uses_engine(self, h2_workload, noisy_device):
        backend = SimulatorBackend(noisy_device, seed=7)
        estimator = SelectiveVarSawEstimator(
            h2_workload.hamiltonian,
            h2_workload.ansatz,
            backend,
            SelectiveSpec(shots=64, mass_fraction=0.6),
        )
        estimator.evaluate(fixed_params(estimator))
        assert estimator.engine.stats.jobs_submitted == backend.circuits_run
        assert backend.circuits_run > 0


class TestCostLedgerParity:
    @pytest.mark.parametrize("kind", FAMILIES)
    def test_ledger_matches_per_iteration_cost_model(
        self, kind, h2_workload, noisy_device
    ):
        """Ledger equals the analytic per-evaluation circuit count."""
        backend = SimulatorBackend(noisy_device, seed=7)
        estimator = Session(backend=backend).estimator(
            kind, h2_workload, shots=64
        )
        estimator.evaluate(fixed_params(estimator))
        if kind in ("baseline", "jigsaw"):
            expected = estimator.circuits_per_evaluation
        else:  # varsaw variants: first evaluation always runs Globals
            expected = (
                estimator.circuits_per_subset_pass
                + estimator.num_groups
            )
        assert backend.circuits_run == expected
        assert backend.shots_run == 64 * expected


class TestCacheAcrossEvaluations:
    def test_repeated_parameters_hit_the_cache(
        self, h2_workload, noisy_device
    ):
        backend = SimulatorBackend(noisy_device, seed=7)
        estimator = Session(backend=backend).estimator(
            "baseline", h2_workload, shots=64
        )
        theta = fixed_params(estimator)
        e1 = estimator.evaluate(theta)
        sims_after_first = estimator.engine.stats.simulations
        e2 = estimator.evaluate(theta)
        stats = estimator.engine.stats
        # Second evaluation re-used every PMF (and the prepared state):
        # no new simulations, one cache hit per unique circuit.
        assert stats.simulations == sims_after_first
        assert stats.pmf_cache.hits == sims_after_first
        assert stats.state_cache.hits == 1
        # ... but was still charged and re-sampled.
        assert backend.circuits_run == 2 * estimator.num_groups
        assert e1 != e2  # independent shot noise

    def test_shared_engine_across_estimators(self, h2_workload, noisy_device):
        backend = SimulatorBackend(noisy_device, seed=7)
        engine = ExecutionEngine(backend)
        session = Session(backend=backend, engine=engine)
        baseline = session.estimator("baseline", h2_workload, shots=64)
        jigsaw = session.estimator("jigsaw", h2_workload, shots=64)
        theta = fixed_params(baseline)
        baseline.evaluate(theta)
        hits_before = engine.stats.pmf_cache.hits
        jigsaw.evaluate(theta)
        # JigSaw's Globals are the same circuits the baseline ran.
        assert engine.stats.pmf_cache.hits >= hits_before + 1
