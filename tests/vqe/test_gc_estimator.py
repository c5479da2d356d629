"""Unit tests for the general-commutation estimator."""

import numpy as np
import pytest

from repro.noise import SimulatorBackend, ibmq_mumbai_like, ideal_device
from repro.vqe import (
    BaselineEstimator,
    BaselineSpec,
    GeneralCommutationEstimator,
    GeneralCommutationSpec,
    IdealEstimator,
    IdealSpec,
)
from repro.workloads import make_workload

from ..noise.finisher_rows import without_readout_error


@pytest.fixture
def h2_setup():
    workload = make_workload("H2-4")
    params = np.full(workload.ansatz.num_parameters, 0.13)
    return workload, params


class TestCorrectness:
    def test_noise_free_matches_exact(self, h2_setup):
        workload, params = h2_setup
        exact = IdealEstimator(
            workload.hamiltonian,
            workload.ansatz,
            SimulatorBackend(),
            IdealSpec(),
        ).evaluate(params)
        gc = GeneralCommutationEstimator(
            workload.hamiltonian,
            workload.ansatz,
            SimulatorBackend(ideal_device(4), seed=5),
            GeneralCommutationSpec(shots=400_000),
        )
        assert gc.evaluate(params) == pytest.approx(exact, abs=0.05)

    def test_greedy_method_also_exact(self, h2_setup):
        workload, params = h2_setup
        exact = IdealEstimator(
            workload.hamiltonian,
            workload.ansatz,
            SimulatorBackend(),
            IdealSpec(),
        ).evaluate(params)
        gc = GeneralCommutationEstimator(
            workload.hamiltonian,
            workload.ansatz,
            SimulatorBackend(ideal_device(4), seed=7),
            GeneralCommutationSpec(shots=400_000, method="greedy"),
        )
        assert gc.evaluate(params) == pytest.approx(exact, abs=0.05)

    def test_lih_noise_free_matches_exact(self):
        workload = make_workload("LiH-6")
        params = np.full(workload.ansatz.num_parameters, 0.07)
        exact = IdealEstimator(
            workload.hamiltonian,
            workload.ansatz,
            SimulatorBackend(),
            IdealSpec(),
        ).evaluate(params)
        gc = GeneralCommutationEstimator(
            workload.hamiltonian,
            workload.ansatz,
            SimulatorBackend(ideal_device(6), seed=3),
            GeneralCommutationSpec(shots=400_000),
        )
        assert gc.evaluate(params) == pytest.approx(exact, abs=0.25)


class TestCostStructure:
    def test_fewer_circuits_than_baseline(self, h2_setup):
        workload, _ = h2_setup
        backend = SimulatorBackend(ideal_device(4), seed=1)
        gc = GeneralCommutationEstimator(
            workload.hamiltonian,
            workload.ansatz,
            backend,
            GeneralCommutationSpec(),
        )
        qwc = BaselineEstimator(
            workload.hamiltonian, workload.ansatz, backend, BaselineSpec()
        )
        assert gc.num_groups < qwc.num_groups
        assert gc.circuits_per_evaluation == gc.num_groups

    def test_rotations_carry_entangling_gates(self, h2_setup):
        workload, _ = h2_setup
        gc = GeneralCommutationEstimator(
            workload.hamiltonian,
            workload.ansatz,
            SimulatorBackend(ideal_device(4), seed=1),
            GeneralCommutationSpec(),
        )
        # H2's Hamiltonian has XXYY-type terms: merging them into one
        # family requires entangling rotations.
        assert sum(g.entangling_gates for g in gc.gc_groups) > 0

    def test_backend_ledger_charged_per_group(self, h2_setup):
        workload, params = h2_setup
        backend = SimulatorBackend(ideal_device(4), seed=1)
        gc = GeneralCommutationEstimator(
            workload.hamiltonian,
            workload.ansatz,
            backend,
            GeneralCommutationSpec(shots=128),
        )
        before = backend.circuits_run
        gc.evaluate(params)
        assert backend.circuits_run == before + gc.num_groups

    def test_unknown_method_rejected(self, h2_setup):
        workload, _ = h2_setup
        # The spec rejects the method before any grouping runs.
        with pytest.raises(ValueError, match="method must be one of"):
            GeneralCommutationEstimator(
                workload.hamiltonian,
                workload.ansatz,
                SimulatorBackend(ideal_device(4)),
                GeneralCommutationSpec(method="psychic"),
            )


class TestNoisyBehavior:
    def test_noisy_evaluation_is_finite_and_bounded(self, h2_setup):
        workload, params = h2_setup
        gc = GeneralCommutationEstimator(
            workload.hamiltonian,
            workload.ansatz,
            SimulatorBackend(ibmq_mumbai_like(), seed=11),
            GeneralCommutationSpec(shots=1024),
        )
        value = gc.evaluate(params)
        # Any sampled expectation is bounded by the Hamiltonian's 1-norm.
        bound = sum(
            abs(c) for c, _ in workload.hamiltonian.non_identity_terms()
        ) + abs(workload.hamiltonian.identity_coefficient)
        assert np.isfinite(value)
        assert abs(value) <= bound

    def test_gate_noise_hits_gc_harder_per_circuit(self, h2_setup):
        """GC suffixes add 2-qubit gates, so pure gate noise (a device
        without readout error) biases GC at least as much as the
        baseline."""
        workload, params = h2_setup
        exact = IdealEstimator(
            workload.hamiltonian,
            workload.ansatz,
            SimulatorBackend(),
            IdealSpec(),
        ).evaluate(params)
        device = without_readout_error(ibmq_mumbai_like(scale=5.0))

        def bias(estimator_cls, spec):
            backend = SimulatorBackend(device, seed=13)
            est = estimator_cls(
                workload.hamiltonian, workload.ansatz, backend, spec
            )
            return abs(est.evaluate(params) - exact)

        assert bias(
            GeneralCommutationEstimator,
            GeneralCommutationSpec(shots=200_000),
        ) >= bias(BaselineEstimator, BaselineSpec(shots=200_000)) - 0.02
