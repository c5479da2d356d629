"""Unit tests for baseline and ideal estimators."""

import numpy as np
import pytest

from repro.ansatz import EfficientSU2
from repro.api import Session
from repro.hamiltonian import build_hamiltonian, ground_state_energy
from repro.noise import SimulatorBackend, ibmq_mumbai_like
from repro.qaoa import make_qaoa_workload
from repro.vqe import BaselineEstimator, IdealEstimator
from repro.workloads import make_workload


class TestIdealEstimator:
    def test_matches_exact_expectation(self, h2, h2_ansatz):
        est = IdealEstimator(h2, h2_ansatz)
        params = np.full(h2_ansatz.num_parameters, 0.3)
        from repro.sim import run_statevector

        state = run_statevector(h2_ansatz.bind(params))
        assert est.evaluate(params) == pytest.approx(
            h2.expectation_exact(state)
        )

    def test_charges_nothing(self, h2, h2_ansatz):
        est = IdealEstimator(h2, h2_ansatz)
        est.evaluate(np.zeros(h2_ansatz.num_parameters))
        assert est.backend.circuits_run == 0
        assert est.circuits_per_evaluation == 0

    def test_never_below_ground_energy(self, h2, h2_ansatz):
        est = IdealEstimator(h2, h2_ansatz)
        e0 = ground_state_energy(h2)
        rng = np.random.default_rng(0)
        for _ in range(5):
            params = rng.uniform(-2, 2, h2_ansatz.num_parameters)
            assert est.evaluate(params) >= e0 - 1e-9


class TestBaselineEstimator:
    def test_width_mismatch_rejected(self, h2):
        with pytest.raises(ValueError):
            BaselineEstimator(h2, EfficientSU2(6), SimulatorBackend())

    def test_shots_positive(self, h2, h2_ansatz):
        with pytest.raises(ValueError):
            BaselineEstimator(h2, h2_ansatz, SimulatorBackend(), shots=0)

    def test_charges_one_circuit_per_group(self, h2, h2_ansatz):
        backend = SimulatorBackend(seed=0)
        est = BaselineEstimator(h2, h2_ansatz, backend, shots=64)
        est.evaluate(np.zeros(h2_ansatz.num_parameters))
        assert backend.circuits_run == est.num_groups
        assert est.circuits_per_evaluation == est.num_groups

    def test_ideal_backend_converges_to_exact(self, h2, h2_ansatz):
        """With no device noise and many shots, baseline ~= exact."""
        backend = SimulatorBackend(seed=1)
        est = BaselineEstimator(h2, h2_ansatz, backend, shots=200_000)
        ideal = IdealEstimator(h2, h2_ansatz)
        params = np.full(h2_ansatz.num_parameters, 0.2)
        assert est.evaluate(params) == pytest.approx(
            ideal.evaluate(params), abs=0.02
        )

    def test_noise_biases_energy_upward_at_optimum(self, h2, h2_ansatz):
        """Near the ground state, noise can only raise the energy."""
        from repro.vqe import run_vqe

        ideal = IdealEstimator(h2, h2_ansatz)
        tuned = run_vqe(ideal, max_iterations=300, seed=4)
        noisy = BaselineEstimator(
            h2, h2_ansatz, SimulatorBackend(ibmq_mumbai_like(), seed=2),
            shots=8192,
        )
        e_ideal = ideal.evaluate(tuned.parameters)
        e_noisy = noisy.evaluate(tuned.parameters)
        assert e_noisy > e_ideal


#: Energies of three evaluations and the (circuits, shots) ledger at
#: seed 7 with 64 shots, recorded while estimators read the gate load on
#: every submission.
GATE_LOAD_CASES = {
    ("baseline", "H2-4"): (
        [11.526678428444868, 11.992650451882367, 11.677668873757366],
        (30, 1920),
    ),
    ("jigsaw", "H2-4"): (
        [11.590124612365459, 11.953675845660166, 11.544511512273829],
        (120, 7680),
    ),
    ("varsaw", "H2-4"): (
        [11.48552805285155, 11.908302814621715, 11.539597796773393],
        (65, 4160),
    ),
    ("gc", "H2-4"): (
        [11.575161553444865, 11.948700162819867, 11.576473959694864],
        (6, 384),
    ),
    ("varsaw", "qaoa-ring-4"): (
        [-1.7055713320679105, -1.5425224681921308, -1.216820473316978],
        (17, 1088),
    ),
}


@pytest.mark.parametrize(
    "kind, problem",
    sorted(GATE_LOAD_CASES),
    ids=[f"{kind}-{problem}" for kind, problem in sorted(GATE_LOAD_CASES)],
)
def test_gate_load_is_read_once_per_estimator(kind, problem, monkeypatch):
    """Every submission charges the ansatz's gate load; it is read once.

    ``EfficientSU2.gate_load`` walks the circuit and
    ``QAOAAnsatz.gate_load`` binds one, so the estimator keeps the pair
    it read at construction.
    """
    if problem == "H2-4":
        workload = make_workload("H2-4")
    else:
        workload = make_qaoa_workload("ring", 4, reps=1)
    reads = []
    gate_load = type(workload.ansatz).gate_load
    monkeypatch.setattr(
        type(workload.ansatz),
        "gate_load",
        property(lambda self: reads.append(1) or gate_load.fget(self)),
    )
    session = Session(ibmq_mumbai_like(), seed=7)
    estimator = session.estimator(kind, workload, shots=64)
    n = workload.ansatz.num_parameters
    energies = [
        estimator.evaluate(params)
        for params in (
            np.linspace(-1, 1, n), np.full(n, 0.3), np.linspace(-1, 1, n)
        )
    ]
    ledger = session.ledger()
    session.close()
    expected_energies, expected_ledger = GATE_LOAD_CASES[kind, problem]
    assert len(reads) == 1
    assert energies == pytest.approx(expected_energies, rel=1e-12)
    assert (ledger.circuits, ledger.shots) == expected_ledger
