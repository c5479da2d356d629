"""Differential oracle: the batch noise finisher vs the frozen scalar one.

``SimulatorBackend.exact_pmfs_from_probs_batch`` is the only noise
pipeline: the engine, ``exact_pmf`` and ``pmf_from_state`` all
finish ideal probabilities through it.  Each of
its rows must equal :func:`tests.noise.scalar_reference.reference_pmf`
on that row alone, bit for bit, whatever else shares the batch: 1-6
qubits, random sorted measured subsets (single qubits included), the
best-line readout mapping on and off, gate loads including ``(0, 0)``,
both noise switches, several noise scales, and a device read at a
drifted epoch.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noise import (
    DeviceModel,
    DriftingDeviceModel,
    LinearDrift,
    QubitReadoutError,
    ReadoutErrorModel,
    SimulatorBackend,
    ibmq_mumbai_like,
    ideal_device,
)

from .scalar_reference import reference_pmf


def _drifted_device() -> DriftingDeviceModel:
    device = DriftingDeviceModel(
        ibmq_mumbai_like(), LinearDrift(period=4, magnitude=1.5)
    )
    device.advance_clock(37)
    assert device.epoch > 0
    return device


DEVICES = [
    ibmq_mumbai_like(),
    ibmq_mumbai_like(scale=0.05),
    ibmq_mumbai_like(scale=5.0),
    ideal_device(),
    _drifted_device(),
]


@st.composite
def row_shapes(draw):
    """``(n_qubits, sorted measured tuple, map_to_best)`` of one group."""
    n = draw(st.integers(1, 6))
    measured = draw(st.sets(st.integers(0, n - 1), min_size=1))
    return n, tuple(sorted(measured)), draw(st.booleans())


_GATE_LOADS = st.one_of(
    st.just((0, 0)),
    st.tuples(st.integers(0, 80), st.integers(0, 40)),
)


@st.composite
def batches(draw):
    """1-8 rows over 1-3 shapes, so groups of several rows occur."""
    shapes = draw(st.lists(row_shapes(), min_size=1, max_size=3))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        n, measured, map_to_best = draw(st.sampled_from(shapes))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        probs = rng.random(2**n)
        if draw(st.booleans()):
            # Statevector probabilities often hold exact zeros.
            probs[rng.random(2**n) < 0.5] = 0.0
            probs[rng.integers(2**n)] = rng.random() + 0.1
        rows.append((probs, n, measured, map_to_best, draw(_GATE_LOADS)))
    return rows


def assert_rows_match_reference(backend, rows):
    pmfs = backend.exact_pmfs_from_probs_batch(rows)
    assert len(pmfs) == len(rows)
    for row, pmf in zip(rows, pmfs):
        expected = reference_pmf(
            *row,
            device=backend.device,
            readout_enabled=backend.readout_enabled,
            gate_noise_enabled=backend.gate_noise_enabled,
        )
        assert pmf.qubits == row[2]
        assert np.array_equal(pmf.probs, expected)


@settings(max_examples=200, deadline=None)
@given(
    rows=batches(),
    device_index=st.integers(0, len(DEVICES) - 1),
    readout=st.booleans(),
    gate_noise=st.booleans(),
)
def test_batch_finisher_matches_frozen_scalar_bitwise(
    rows, device_index, readout, gate_noise
):
    backend = SimulatorBackend(
        DEVICES[device_index],
        seed=0,
        readout_enabled=readout,
        gate_noise_enabled=gate_noise,
    )
    assert_rows_match_reference(backend, rows)


@settings(max_examples=60, deadline=None)
@given(shape=row_shapes(), load=_GATE_LOADS, seed=st.integers(0, 2**16))
def test_a_batch_of_one_matches_frozen_scalar_bitwise(shape, load, seed):
    n, measured, map_to_best = shape
    probs = np.random.default_rng(seed).random(2**n)
    backend = SimulatorBackend(_drifted_device(), seed=0)
    assert_rows_match_reference(
        backend, [(probs, n, measured, map_to_best, load)]
    )


def test_a_readout_model_subclass_runs_the_batch_finisher():
    class Subclassed(ReadoutErrorModel):
        pass

    readout = Subclassed(
        [QubitReadoutError(0.01 * (q + 1), 0.02 * (q + 1)) for q in range(4)],
        crosstalk_strength=0.2,
        scale=1.5,
    )
    base = ibmq_mumbai_like()
    device = DeviceModel("subclassed", readout, base.gate_noise)
    backend = SimulatorBackend(device, seed=0)
    rng = np.random.default_rng(3)
    rows = [
        (rng.random(16), 4, (0, 2, 3), False, (5, 2)),
        (rng.random(16), 4, (1,), True, (0, 0)),
    ]
    assert_rows_match_reference(backend, rows)
