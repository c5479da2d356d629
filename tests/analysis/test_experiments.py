"""fixed_budget_runs: a fixed-budget comparison is per-kind tuning."""

import numpy as np

from repro.analysis import fixed_budget_runs, run_tuning
from repro.noise import ibmq_mumbai_like
from repro.workloads import make_workload

KINDS = ("baseline", "jigsaw", "varsaw")


def test_fixed_budget_runs_match_separate_run_tuning_calls():
    workload = make_workload("H2-4")
    budget = {
        "circuit_budget": 400,
        "shots": 64,
        "seed": 5,
        "max_iterations": 60,
        "device": ibmq_mumbai_like(scale=2.0),
        "initial_params": np.full(workload.ansatz.num_parameters, 0.05),
    }
    runs = fixed_budget_runs(KINDS, workload, **budget)
    assert list(runs) == list(KINDS)
    for kind in KINDS:
        direct = run_tuning(kind, workload, **budget)
        run = runs[kind]
        assert run.kind == direct.kind == kind
        assert run.energy == direct.energy
        assert run.iterations == direct.iterations
        assert run.result.circuits_executed == direct.result.circuits_executed
        assert run.result.shots_executed == direct.result.shots_executed
        assert run.result.stop_reason == direct.result.stop_reason
    # The shared budget, not the iteration cap, ended every run.
    assert {run.result.stop_reason for run in runs.values()} == {
        "budget_exhausted"
    }
