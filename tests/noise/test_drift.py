"""Unit tests for drift schedules and the drifting device model."""

import numpy as np
import pytest

from repro.noise import (
    SCHEDULE_KINDS,
    ConstantDrift,
    DriftingDeviceModel,
    DriftSchedule,
    LinearDrift,
    RandomWalkDrift,
    SineDrift,
    StepDrift,
    ibm_lagos_like,
    make_schedule,
    schedule_from_dict,
)


class TestSchedules:
    def test_registry_covers_every_kind(self):
        assert sorted(SCHEDULE_KINDS) == [
            "constant", "linear", "random_walk", "sine", "step",
        ]
        for kind, cls in SCHEDULE_KINDS.items():
            assert cls.kind == kind
            assert issubclass(cls, DriftSchedule)

    def test_epoch_quantization(self):
        schedule = StepDrift(period=24, magnitude=1.0, at=2)
        assert schedule.epoch(0) == 0
        assert schedule.epoch(23) == 0
        assert schedule.epoch(24) == 1
        assert schedule.epoch(100) == 4
        with pytest.raises(ValueError):
            schedule.epoch(-1)

    def test_step_shape(self):
        schedule = StepDrift(period=8, magnitude=0.5, at=2)
        assert schedule.gate_factor(0) == 1.0
        assert schedule.gate_factor(1) == 1.0
        assert schedule.gate_factor(2) == 1.5
        assert schedule.gate_factor(99) == 1.5

    def test_linear_ramp_saturates(self):
        schedule = LinearDrift(period=8, magnitude=2.0, ramp=4)
        assert schedule.gate_factor(0) == 1.0
        assert schedule.gate_factor(2) == 2.0
        assert schedule.gate_factor(4) == 3.0
        assert schedule.gate_factor(40) == 3.0

    def test_sine_oscillates_and_clamps(self):
        schedule = SineDrift(period=8, magnitude=1.0, wavelength=4)
        assert schedule.gate_factor(0) == 1.0
        assert schedule.gate_factor(1) == pytest.approx(2.0)
        assert schedule.gate_factor(3) == pytest.approx(0.0, abs=1e-12)
        factors = schedule.readout_factors(1, 3)
        assert factors.shape == (3,)
        assert np.all(factors >= 0.0)

    def test_random_walk_is_deterministic_per_epoch(self):
        schedule = RandomWalkDrift(period=8, step_std=0.3, seed=9)
        a = schedule.readout_factors(5, 4)
        b = schedule.readout_factors(5, 4)
        np.testing.assert_array_equal(a, b)
        assert np.all(a >= 0.0)
        # Epoch 0 is always exactly calibrated.
        np.testing.assert_array_equal(
            schedule.readout_factors(0, 4), np.ones(4)
        )
        assert schedule.gate_factor(0) == 1.0
        # Different seeds give different walks.
        other = RandomWalkDrift(period=8, step_std=0.3, seed=10)
        assert not np.array_equal(a, other.readout_factors(5, 4))

    def test_random_walk_gate_walker_independent_of_qubits(self):
        schedule = RandomWalkDrift(period=8, step_std=0.3, seed=9)
        # The gate factor uses a dedicated walker, not qubit 0's.
        assert schedule.gate_factor(5) != schedule.readout_factors(5, 1)[0]

    def test_validation_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            ConstantDrift(period=0)
        with pytest.raises(ValueError):
            StepDrift(magnitude=-1.0)
        with pytest.raises(ValueError):
            StepDrift(at=-1)
        with pytest.raises(ValueError):
            LinearDrift(ramp=0)
        with pytest.raises(ValueError):
            SineDrift(wavelength=0)
        with pytest.raises(ValueError):
            RandomWalkDrift(step_std=-0.1)
        with pytest.raises(ValueError):
            RandomWalkDrift(step_std=float("nan"))
        with pytest.raises(ValueError):
            StepDrift(at=True)
        with pytest.raises(ValueError):
            LinearDrift(ramp=True)
        with pytest.raises(ValueError):
            SineDrift(wavelength=True)
        with pytest.raises(ValueError):
            RandomWalkDrift(step_std=True)
        with pytest.raises(ValueError):
            RandomWalkDrift(seed=-1)

    def test_dict_round_trip(self):
        for schedule in (
            ConstantDrift(period=4),
            StepDrift(period=8, magnitude=1.5, at=3),
            LinearDrift(period=8, magnitude=0.5, ramp=2),
            SineDrift(period=8, magnitude=0.4, wavelength=6),
            RandomWalkDrift(period=8, step_std=0.2, seed=17),
        ):
            data = schedule.to_dict()
            assert data["kind"] == schedule.kind
            assert schedule_from_dict(data) == schedule

    def test_from_dict_rejects_unknown_kind_and_fields(self):
        with pytest.raises(ValueError, match="unknown drift schedule"):
            schedule_from_dict({"kind": "quadratic"})
        with pytest.raises(ValueError, match="unknown parameter 'magnitdue'"):
            schedule_from_dict({"kind": "step", "magnitdue": 1.0})

    def test_make_schedule_maps_cli_knobs(self):
        assert make_schedule("constant", period=4) == ConstantDrift(period=4)
        assert make_schedule("step", magnitude=2.0, period=6) == StepDrift(
            period=6, magnitude=2.0
        )
        assert make_schedule(
            "random_walk", magnitude=0.3, seed=5
        ) == RandomWalkDrift(period=32, step_std=0.3, seed=5)
        with pytest.raises(ValueError):
            make_schedule("nope")


class TestDriftingDeviceModel:
    def test_clock_and_epoch(self):
        device = DriftingDeviceModel(
            ibm_lagos_like(), StepDrift(period=10, magnitude=1.0, at=1)
        )
        assert device.clock == 0 and device.epoch == 0
        device.advance_clock(9)
        assert device.epoch == 0
        device.advance_clock(1)
        assert device.epoch == 1
        device.advance_clock(25)
        assert device.epoch == 3
        with pytest.raises(ValueError):
            device.advance_clock(-1)

    def test_rates_scale_with_the_schedule(self):
        base = ibm_lagos_like(scale=2.0)
        device = DriftingDeviceModel(
            base, StepDrift(period=10, magnitude=1.0, at=1)
        )
        device.advance_clock(10)
        for before, after in zip(
            base.readout.qubit_errors, device.readout.qubit_errors
        ):
            assert after.p01 == pytest.approx(min(0.5, before.p01 * 2.0))
            assert after.p10 == pytest.approx(min(0.5, before.p10 * 2.0))
        assert device.gate_noise.error_1q == pytest.approx(
            base.gate_noise.error_1q * 2.0
        )

    def test_flip_rates_cap_at_one_half(self):
        device = DriftingDeviceModel(
            ibm_lagos_like(scale=2.0),
            StepDrift(period=1, magnitude=1000.0, at=0),
        )
        for err in device.readout.qubit_errors:
            assert err.p01 <= 0.5 and err.p10 <= 0.5
        assert device.gate_noise.error_1q <= 1.0
        assert device.gate_noise.error_2q <= 1.0

    def test_name_and_repr_tag_the_schedule(self):
        device = DriftingDeviceModel(
            ibm_lagos_like(), SineDrift(period=4)
        )
        assert device.name == "ibm_lagos_like+drift:sine"
        assert "sine" in repr(device)
        assert device.n_qubits == 7

    def test_with_noise_scale_preserves_schedule_and_clock(self):
        device = DriftingDeviceModel(
            ibm_lagos_like(), StepDrift(period=4, magnitude=1.0, at=1)
        )
        device.advance_clock(7)
        scaled = device.with_noise_scale(2.0)
        assert isinstance(scaled, DriftingDeviceModel)
        assert scaled.schedule == device.schedule
        assert scaled.clock == 7
        assert scaled.base.name == "ibm_lagos_like(x2)"

    def test_stacking_drift_raises(self):
        device = DriftingDeviceModel(ibm_lagos_like(), ConstantDrift())
        with pytest.raises(TypeError):
            DriftingDeviceModel(device, ConstantDrift())

    def test_state_fingerprint_tracks_epoch_not_rates(self):
        # Epochs 0 and 1 have identical rates (step at 2) but must
        # still be distinct calibration states in cache keys.
        device = DriftingDeviceModel(
            ibm_lagos_like(), StepDrift(period=4, magnitude=1.0, at=2)
        )
        fp0 = device.drift_state_fingerprint()
        device.advance_clock(4)
        fp1 = device.drift_state_fingerprint()
        assert fp0 != fp1
        fresh = DriftingDeviceModel(
            ibm_lagos_like(), StepDrift(period=4, magnitude=1.0, at=2)
        )
        assert fresh.drift_state_fingerprint() == fp0
