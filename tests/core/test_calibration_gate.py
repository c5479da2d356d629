"""Unit tests for calibration-gated VarSaw (Section 7.1 extension)."""

import numpy as np
import pytest

from repro.core import (
    CalibrationGate,
    CalibrationGatedSpec,
    CalibrationGatedVarSawEstimator,
    VarSawEstimator,
    VarSawSpec,
    varsaw_subset_plan,
)
from repro.hamiltonian import Hamiltonian
from repro.noise import (
    DepolarizingGateNoise,
    DeviceModel,
    QubitReadoutError,
    ReadoutErrorModel,
    SimulatorBackend,
)
from repro.workloads import make_workload


def lopsided_device(errors):
    """A device whose per-qubit readout errors are given exactly."""
    readout = ReadoutErrorModel(
        [QubitReadoutError(e, e) for e in errors],
        crosstalk_strength=0.0,
    )
    return DeviceModel(
        "lopsided", readout, DepolarizingGateNoise(0.0, 0.0)
    )


@pytest.fixture
def split_quality_device():
    """Qubits 0-1 nearly perfect, qubits 2-3 poor."""
    return lopsided_device([1e-5, 1e-5, 0.06, 0.08])


class TestCalibrationGate:
    def test_windows_on_good_qubits_skipped(self, split_quality_device):
        ham = Hamiltonian([(1.0, "ZZZZ"), (0.5, "XXXX")])
        plan = varsaw_subset_plan(ham, window=2)
        gate = CalibrationGate(error_threshold=0.01)
        kept = gate.keep_indices(plan, split_quality_device.readout)
        for index in kept:
            support = plan.support(index)
            assert any(q >= 2 for q in support)
        skipped = set(range(plan.num_subsets)) - set(kept)
        for index in skipped:
            assert all(q <= 1 for q in plan.support(index))

    def test_zero_threshold_keeps_everything(self, split_quality_device):
        ham = Hamiltonian([(1.0, "ZZZZ")])
        plan = varsaw_subset_plan(ham, window=2)
        gate = CalibrationGate(error_threshold=0.0)
        assert gate.keep_indices(
            plan, split_quality_device.readout
        ) == list(range(plan.num_subsets))

    def test_huge_threshold_skips_everything(self, split_quality_device):
        ham = Hamiltonian([(1.0, "ZZZZ")])
        plan = varsaw_subset_plan(ham, window=2)
        gate = CalibrationGate(error_threshold=0.5)
        assert gate.keep_indices(plan, split_quality_device.readout) == []

    def test_explicit_mapping_respected(self, split_quality_device):
        ham = Hamiltonian([(1.0, "ZZ")])
        plan = varsaw_subset_plan(ham, window=2)
        gate = CalibrationGate(error_threshold=0.01)
        # Map both logical qubits onto the good physical lines:
        mapping = {0: 0, 1: 1}
        assert gate.keep_indices(
            plan, split_quality_device.readout, mapping
        ) == []
        # ...or onto the bad ones:
        mapping = {0: 2, 1: 3}
        assert len(gate.keep_indices(
            plan, split_quality_device.readout, mapping
        )) == plan.num_subsets

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            CalibrationGate(error_threshold=-0.1)

    def test_nan_threshold_rejected(self):
        # e >= nan is never true, so a NaN gate would silently keep no
        # subset at all.
        with pytest.raises(ValueError, match="finite number"):
            CalibrationGate(error_threshold=float("nan"))


class TestGatedEstimator:
    def test_skips_recorded_and_plan_pruned(self, split_quality_device):
        workload = make_workload("H2-4", device=split_quality_device)
        backend = SimulatorBackend(split_quality_device, seed=5)
        plain = VarSawEstimator(
            workload.hamiltonian,
            workload.ansatz,
            backend,
            VarSawSpec(shots=128),
        )
        gated = CalibrationGatedVarSawEstimator(
            workload.hamiltonian,
            workload.ansatz,
            SimulatorBackend(split_quality_device, seed=5),
            CalibrationGatedSpec(shots=128, error_threshold=0.01),
        )
        assert gated.subsets_skipped > 0
        assert (
            gated.plan.num_subsets + gated.subsets_skipped
            == plain.plan.num_subsets
        )

    def test_evaluation_still_works_and_costs_less(
        self, split_quality_device
    ):
        workload = make_workload("H2-4", device=split_quality_device)
        params = np.full(workload.ansatz.num_parameters, 0.1)

        backend_plain = SimulatorBackend(split_quality_device, seed=7)
        plain = VarSawEstimator(
            workload.hamiltonian,
            workload.ansatz,
            backend_plain,
            VarSawSpec(shots=128),
        )
        plain.evaluate(params)

        backend_gated = SimulatorBackend(split_quality_device, seed=7)
        gated = CalibrationGatedVarSawEstimator(
            workload.hamiltonian,
            workload.ansatz,
            backend_gated,
            CalibrationGatedSpec(shots=128, error_threshold=0.01),
        )
        value = gated.evaluate(params)
        assert np.isfinite(value)
        assert backend_gated.circuits_run < backend_plain.circuits_run

    def test_default_gate_constructed(self, split_quality_device):
        workload = make_workload("H2-4", device=split_quality_device)
        gated = CalibrationGatedVarSawEstimator(
            workload.hamiltonian,
            workload.ansatz,
            SimulatorBackend(split_quality_device, seed=9),
            CalibrationGatedSpec(shots=128),
        )
        assert gated.gate.error_threshold == pytest.approx(0.01)

    def test_accuracy_preserved_when_skipping_clean_windows(
        self, split_quality_device
    ):
        """Skipping subsets on near-perfect qubits costs ~no accuracy."""
        workload = make_workload("H2-4", device=split_quality_device)
        params = np.full(workload.ansatz.num_parameters, 0.1)
        from repro.vqe import IdealEstimator, IdealSpec

        exact = IdealEstimator(
            workload.hamiltonian,
            workload.ansatz,
            SimulatorBackend(),
            IdealSpec(),
        ).evaluate(params)

        def mean_error(estimator_factory, trials=5):
            errors = []
            for seed in range(trials):
                estimator = estimator_factory(seed)
                errors.append(abs(estimator.evaluate(params) - exact))
            return float(np.mean(errors))

        plain_err = mean_error(
            lambda s: VarSawEstimator(
                workload.hamiltonian,
                workload.ansatz,
                SimulatorBackend(split_quality_device, seed=s),
                VarSawSpec(shots=2048),
            )
        )
        gated_err = mean_error(
            lambda s: CalibrationGatedVarSawEstimator(
                workload.hamiltonian,
                workload.ansatz,
                SimulatorBackend(split_quality_device, seed=s),
                CalibrationGatedSpec(shots=2048, error_threshold=0.01),
            )
        )
        assert gated_err < plain_err + 0.25
