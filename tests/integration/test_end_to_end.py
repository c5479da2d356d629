"""End-to-end VQE integration tests on the smallest workload.

These run real (tiny) versions of the paper's dynamic experiments and
assert the qualitative outcomes: mitigation helps under noise, VarSaw is
cheaper than JigSaw, sparsity buys iterations under a fixed budget.
"""

import numpy as np
import pytest

from repro.api import Session
from repro.noise import ibmq_mumbai_like
from repro.optimizers import SPSA
from repro.vqe import run_vqe
from repro.workloads import make_workload


@pytest.fixture(scope="module")
def workload():
    return make_workload("H2-4", reps=1, entanglement="linear")


def tuned_params(workload, iterations=250, seed=3):
    ideal = Session(seed=0).estimator("ideal", workload)
    return run_vqe(ideal, max_iterations=iterations, seed=seed).parameters


class TestFixedBudgetEconomics:
    def test_varsaw_completes_more_iterations_than_jigsaw(self, workload):
        """Fig. 13/15: same circuit budget, many more VarSaw iterations."""
        budget = 3000
        results = {}
        for kind in ("jigsaw", "varsaw"):
            est = Session(workload.device, seed=5).estimator(
                kind, workload, shots=32
            )
            results[kind] = run_vqe(
                est,
                optimizer=SPSA(a=0.3, seed=5),
                max_iterations=10_000,
                circuit_budget=budget,
                seed=5,
            )
        assert (
            results["varsaw"].iterations
            > 1.5 * results["jigsaw"].iterations
        )

    def test_budget_respected(self, workload):
        budget = 1500
        est = Session(workload.device, seed=6).estimator(
            "varsaw", workload, shots=32
        )
        result = run_vqe(
            est,
            optimizer=SPSA(a=0.3, seed=6),
            max_iterations=10_000,
            circuit_budget=budget,
            seed=6,
        )
        per_eval = est.circuits_per_subset_pass + est.num_groups
        assert result.circuits_executed <= budget + 2 * per_eval


class TestMitigationAtOptimum:
    def test_varsaw_recovers_energy_at_tuned_params(self, workload):
        """Table 1-style: evaluate all schemes at near-optimal parameters;
        mitigation should land closer to ideal than the noisy baseline."""
        params = tuned_params(workload)
        device = ibmq_mumbai_like(scale=2.0)
        ideal_est = Session(seed=0).estimator("ideal", workload)
        e_ideal = ideal_est.evaluate(params)
        base_err, var_err = [], []
        for seed in range(3):
            session = Session(device, seed=seed)
            base = session.estimator("baseline", workload, shots=4096)
            var = session.estimator(
                "varsaw_no_sparsity", workload, shots=4096
            )
            base_err.append(abs(base.evaluate(params) - e_ideal))
            var_err.append(abs(var.evaluate(params) - e_ideal))
        assert np.mean(var_err) < np.mean(base_err)


class TestTemporalSparsityDynamics:
    def test_max_sparsity_is_cheapest(self, workload):
        """Fig. 9's cost side: Max-Sparsity spends far fewer circuits for
        the same number of evaluations."""
        costs = {}
        for kind in ("varsaw_no_sparsity", "varsaw_max_sparsity"):
            session = Session(workload.device, seed=7)
            est = session.estimator(kind, workload, shots=32)
            params = np.zeros(workload.ansatz.num_parameters)
            for _ in range(6):
                est.evaluate(params)
            costs[kind] = session.backend.circuits_run
        # H2-4 is the least favorable case (few groups per subset pass);
        # larger molecules widen this gap dramatically (Fig. 8).
        assert costs["varsaw_max_sparsity"] < 0.75 * costs["varsaw_no_sparsity"]

    def test_adaptive_global_fraction_low_under_noise(self, workload):
        """Fig. 14 secondary axis: few Globals are needed in practice.

        When measurement error dominates shot noise, stale priors win the
        Fig. 11 comparison and the hill climber drives the Global period
        up (the optimum the paper reports is ~1 Global per 100 iters).
        """
        session = Session(ibmq_mumbai_like(scale=2.0), seed=8)
        est = session.estimator(
            "varsaw", workload, shots=512, initial_period=2
        )
        result = run_vqe(
            est,
            optimizer=SPSA(a=0.3, seed=8),
            max_iterations=40,
            seed=8,
        )
        assert result.iterations == 40
        assert est.global_fraction < 0.3
        assert est.scheduler.period > 2


class TestNoiseFreeSanity:
    def test_ideal_vqe_reaches_reference_region(self, workload):
        ideal = Session(seed=0).estimator("ideal", workload)
        result = run_vqe(ideal, max_iterations=400, seed=1)
        gap = result.energy - workload.ideal_energy
        assert gap >= -1e-9
        assert gap < 1.0
