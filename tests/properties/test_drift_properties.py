"""Property-based tests for drift schedules: fingerprints and replay."""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noise import (
    SCHEDULE_KINDS,
    ConstantDrift,
    DriftingDeviceModel,
    LinearDrift,
    RandomWalkDrift,
    SineDrift,
    StepDrift,
    ibm_lagos_like,
    schedule_from_dict,
)

periods = st.integers(1, 64)
magnitudes = st.floats(0.0, 8.0, allow_nan=False, allow_infinity=False)


@st.composite
def schedules(draw):
    kind = draw(st.sampled_from(sorted(SCHEDULE_KINDS)))
    period = draw(periods)
    if kind == "constant":
        return ConstantDrift(period=period)
    if kind == "step":
        return StepDrift(
            period=period,
            magnitude=draw(magnitudes),
            at=draw(st.integers(0, 16)),
        )
    if kind == "linear":
        return LinearDrift(
            period=period,
            magnitude=draw(magnitudes),
            ramp=draw(st.integers(1, 16)),
        )
    if kind == "sine":
        return SineDrift(
            period=period,
            magnitude=draw(magnitudes),
            wavelength=draw(st.integers(1, 16)),
        )
    return RandomWalkDrift(
        period=period,
        step_std=draw(st.floats(0.0, 1.0)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


class TestScheduleProperties:
    @given(schedules())
    @settings(max_examples=120)
    def test_dict_round_trip(self, schedule):
        rebuilt = schedule_from_dict(schedule.to_dict())
        assert rebuilt == schedule
        assert rebuilt.fingerprint() == schedule.fingerprint()

    @given(schedules())
    @settings(max_examples=60)
    def test_fingerprint_insensitive_to_dict_key_order(self, schedule):
        data = schedule.to_dict()
        reordered = dict(reversed(list(data.items())))
        assert (
            schedule_from_dict(reordered).fingerprint()
            == schedule.fingerprint()
        )

    @given(schedules(), st.data())
    @settings(max_examples=60)
    def test_fingerprint_sensitive_to_every_field(self, schedule, data):
        fields = [f.name for f in dataclasses.fields(schedule)]
        name = data.draw(st.sampled_from(fields))
        value = getattr(schedule, name)
        if isinstance(value, int) and not isinstance(value, bool):
            changed = value + 1
        else:
            changed = value + 0.125
        try:
            other = dataclasses.replace(schedule, **{name: changed})
        except ValueError:
            return  # The bumped value is invalid; nothing to compare.
        assert other.fingerprint() != schedule.fingerprint()

    @given(schedules(), st.integers(0, 512), st.integers(1, 8))
    @settings(max_examples=100)
    def test_factors_replay_identically(self, schedule, clock, n_qubits):
        epoch = schedule.epoch(clock)
        assert schedule.gate_factor(epoch) == schedule.gate_factor(epoch)
        np.testing.assert_array_equal(
            schedule.readout_factors(epoch, n_qubits),
            schedule.readout_factors(epoch, n_qubits),
        )
        assert schedule.gate_factor(epoch) >= 0.0
        assert np.all(schedule.readout_factors(epoch, n_qubits) >= 0.0)

    @given(schedules(), st.integers(0, 512))
    @settings(max_examples=60)
    def test_epoch_matches_integer_division(self, schedule, clock):
        assert schedule.epoch(clock) == clock // schedule.period


class TestDeviceReplayProperties:
    @given(
        schedules(),
        st.lists(st.integers(0, 7), min_size=0, max_size=12),
    )
    @settings(max_examples=60)
    def test_advance_is_additive(self, schedule, steps):
        chunked = DriftingDeviceModel(ibm_lagos_like(), schedule)
        for step in steps:
            chunked.advance_clock(step)
        whole = DriftingDeviceModel(ibm_lagos_like(), schedule)
        whole.advance_clock(sum(steps))
        assert chunked.clock == whole.clock
        assert chunked.epoch == whole.epoch
        assert (
            chunked.drift_state_fingerprint()
            == whole.drift_state_fingerprint()
        )
        for a, b in zip(
            chunked.readout.qubit_errors, whole.readout.qubit_errors
        ):
            assert a.p01 == b.p01 and a.p10 == b.p10
        assert (
            chunked.gate_noise.error_1q == whole.gate_noise.error_1q
        )

    @given(schedules(), st.integers(0, 256), st.integers(0, 256))
    @settings(max_examples=60)
    def test_fingerprint_separates_epochs(self, schedule, c1, c2):
        device = DriftingDeviceModel(ibm_lagos_like(), schedule)
        device.advance_clock(c1)
        fp1 = device.drift_state_fingerprint()
        other = DriftingDeviceModel(ibm_lagos_like(), schedule)
        other.advance_clock(c2)
        fp2 = other.drift_state_fingerprint()
        same_epoch = schedule.epoch(c1) == schedule.epoch(c2)
        assert (fp1 == fp2) == same_epoch
