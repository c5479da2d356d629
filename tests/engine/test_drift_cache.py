"""Drift state must partition every PMF-cache and session key.

Regression suite for the calibration-drift cache audit: the engine's
memoized PMFs, the noise finisher's compiled stages, the serve
coalescer's shared sessions, and the device fingerprint itself must all
treat two drift clock states as two devices — even when their concrete
noise rates happen to coincide.
"""

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.engine import ExecutionEngine, MeasurementSpec
from repro.engine.spec import device_fingerprint
from repro.noise import (
    ConstantDrift,
    DriftingDeviceModel,
    LinearDrift,
    SimulatorBackend,
    StepDrift,
    ibm_lagos_like,
)
from repro.serve import JobSpec
from repro.sim import compile_plan

from .fixed_ansatz import prepare


def ghz(n_qubits=4):
    circuit = Circuit(n_qubits)
    circuit.h(0)
    for q in range(1, n_qubits):
        circuit.cx(0, q)
    circuit.measure_all()
    return circuit


def run_once(engine, circuit, shots=64):
    batch = engine.new_batch()
    batch.submit_circuit(circuit, shots)
    batch.run()


class TestDeviceFingerprint:
    def test_static_and_drifting_differ_even_at_identical_rates(self):
        static = SimulatorBackend(ibm_lagos_like(), seed=1)
        drifted = SimulatorBackend(
            DriftingDeviceModel(
                ibm_lagos_like(), StepDrift(period=8, magnitude=1.0, at=1)
            ),
            seed=1,
        )
        # Epoch 0: rates are byte-identical, fingerprints must not be.
        assert device_fingerprint(static) != device_fingerprint(drifted)

    def test_fingerprint_changes_across_epoch_boundary(self):
        device = DriftingDeviceModel(
            ibm_lagos_like(), StepDrift(period=4, magnitude=1.0, at=5)
        )
        backend = SimulatorBackend(device, seed=1)
        before = device_fingerprint(backend)
        device.advance_clock(3)
        assert device_fingerprint(backend) == before  # same epoch
        device.advance_clock(1)
        # Epoch 1: still pre-step, so the *rates* are unchanged — the
        # clock state alone must move the fingerprint.
        after = device_fingerprint(backend)
        assert after != before

    def test_constant_drift_fingerprint_still_advances(self):
        # Even a constant schedule is a distinct calibration regime per
        # epoch; replay correctness beats a warmer cache here.
        device = DriftingDeviceModel(
            ibm_lagos_like(), ConstantDrift(period=2)
        )
        backend = SimulatorBackend(device, seed=1)
        before = device_fingerprint(backend)
        device.advance_clock(2)
        assert device_fingerprint(backend) != before


class TestEnginePmfCache:
    def test_static_device_reuses_cached_pmfs(self):
        engine = ExecutionEngine(SimulatorBackend(ibm_lagos_like(), seed=2))
        circuit = ghz()
        run_once(engine, circuit)
        run_once(engine, circuit)
        assert engine.stats.pmf_cache.hits >= 1

    def test_drifting_device_misses_across_epoch_boundary(self):
        # period=1 -> every charged circuit opens a new epoch, so the
        # second submission may not reuse the first PMF even though the
        # step hasn't hit yet and the rates are identical.
        device = DriftingDeviceModel(
            ibm_lagos_like(), StepDrift(period=1, magnitude=1.0, at=100)
        )
        engine = ExecutionEngine(SimulatorBackend(device, seed=2))
        circuit = ghz()
        run_once(engine, circuit)
        run_once(engine, circuit)
        assert engine.stats.pmf_cache.hits == 0

    def test_drifting_device_hits_within_an_epoch(self):
        # Epoch quantization is the cache-warmth contract: submissions
        # inside one epoch still share PMFs.
        device = DriftingDeviceModel(
            ibm_lagos_like(), StepDrift(period=64, magnitude=1.0, at=1)
        )
        engine = ExecutionEngine(SimulatorBackend(device, seed=2))
        circuit = ghz()
        run_once(engine, circuit)
        run_once(engine, circuit)
        assert engine.stats.pmf_cache.hits >= 1


class TestFinisherStages:
    def test_batches_across_epoch_boundaries_match_unmemoized_pmfs(self):
        # Three specs per batch over period 4: epochs 0, 0, 1, 2, 3, 3,
        # so the finisher reuses its stages inside an epoch and must
        # drop them at every boundary.
        device = DriftingDeviceModel(
            ibm_lagos_like(), LinearDrift(period=4, magnitude=1.5)
        )
        backend = SimulatorBackend(device, seed=3)
        engine = ExecutionEngine(backend)
        rotation = Circuit(4)
        rotation.h(1)
        rotation.sdg(2)
        rotation.h(2)
        suffix = compile_plan(rotation)
        readouts = [
            (suffix, (0, 1, 2, 3), False),
            (suffix, (1, 3), True),
            (None, (2,), True),
        ]
        epochs = []
        for step in range(6):
            circuit = ghz()
            circuit.ry(0.3 * step, 3)
            state = prepare(engine, circuit)
            expected = [
                backend.pmf_from_state(state, plan, measured, best, (7, 3))
                for plan, measured, best in readouts
            ]
            epochs.append(device.epoch)
            batch = engine.new_batch()
            handles = [
                batch.submit_state(
                    state, MeasurementSpec(4, plan, measured, 64, best, (7, 3))
                )
                for plan, measured, best in readouts
            ]
            batch.run()
            for handle, pmf in zip(handles, expected):
                assert handle.pmf().qubits == pmf.qubits
                assert np.array_equal(handle.pmf().probs, pmf.probs)
        assert epochs == [0, 0, 1, 2, 3, 3]


class TestServeSessionKeys:
    def test_drift_payload_separates_coalescer_sessions(self):
        plain = JobSpec(
            workload={"key": "H2-4"},
            device={"preset": "ibm_lagos_like", "scale": 1.0},
        )
        drifted = JobSpec(
            workload={"key": "H2-4"},
            device={
                "preset": "ibm_lagos_like",
                "scale": 1.0,
                "drift": {"kind": "step", "period": 8, "magnitude": 1.0,
                          "at": 1},
            },
        )
        assert plain.session_key() != drifted.session_key()
        assert plain.fingerprint() != drifted.fingerprint()

    def test_distinct_schedules_get_distinct_sessions(self):
        def job(drift):
            return JobSpec(
                workload={"key": "H2-4"},
                device={"preset": "ibm_lagos_like", "drift": drift},
            )

        step = job({"kind": "step", "magnitude": 1.0})
        ramp = job({"kind": "linear", "magnitude": 1.0})
        assert step.session_key() != ramp.session_key()

    def test_admission_validates_drift_payloads(self):
        with pytest.raises(ValueError):
            JobSpec(
                workload={"key": "H2-4"},
                device={
                    "preset": "ibm_lagos_like",
                    "drift": {"kind": "quadratic"},
                },
            )
        with pytest.raises(ValueError):
            JobSpec(
                workload={"key": "H2-4"},
                device={
                    "preset": "ibm_lagos_like",
                    "drift": {"kind": "step", "magnitdue": 2.0},
                },
            )
