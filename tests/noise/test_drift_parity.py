"""The zero-drift invariant: constant drift is byte-identical to static.

A :class:`~repro.noise.DriftingDeviceModel` under
:class:`~repro.noise.ConstantDrift` (or any schedule still at factor
1.0) must change *nothing*: same noise objects, same sampled counts,
same tuning energies and ledgers as the plain static device.  Mirrors
``tests/obs/test_parity.py`` — the drift layer only observes time, it
never perturbs a calibrated device.
"""

import numpy as np

from repro.circuits import Circuit
from repro.engine import CircuitSpec, shared_engine
from repro.noise import (
    ConstantDrift,
    DriftingDeviceModel,
    LinearDrift,
    SimulatorBackend,
    StepDrift,
    ibmq_mumbai_like,
)
from repro.api import make_spec
from repro.sweeps.runner import execute_tuning
from repro.workloads import make_workload


def tuning_outcome(device):
    """One small deterministic tuning run's complete numeric output."""
    workload = make_workload("H2-4")
    backend = SimulatorBackend(device, seed=5)
    run = execute_tuning(
        make_spec("varsaw", shots=64), workload, max_iterations=3, seed=5,
        backend=backend,
    )
    return {
        "energy": run.energy,
        "history": list(run.result.energy_history),
        "circuits": run.result.circuits_executed,
        "shots": run.result.shots_executed,
        "ledger": (backend.circuits_run, backend.shots_run),
    }


def run(backend, circuit, shots):
    """One circuit as its own engine batch: one clock tick per call."""
    return shared_engine(backend).run_spec(CircuitSpec(circuit, shots))


def bell(n_qubits=4):
    circuit = Circuit(n_qubits)
    circuit.h(0)
    for q in range(1, n_qubits):
        circuit.cx(0, q)
    circuit.measure_all()
    return circuit


class TestZeroDriftParity:
    def test_constant_drift_reuses_base_noise_objects(self):
        base = ibmq_mumbai_like(scale=2.0)
        drifting = DriftingDeviceModel(base, ConstantDrift(period=4))
        drifting.advance_clock(1000)
        assert drifting.readout is base.readout
        assert drifting.gate_noise is base.gate_noise

    def test_pre_step_epochs_reuse_base_noise_objects(self):
        # Any schedule whose factors are still exactly 1.0 must also
        # leave the base objects untouched (vectorized-finisher path).
        base = ibmq_mumbai_like(scale=2.0)
        drifting = DriftingDeviceModel(
            base, StepDrift(period=64, magnitude=2.0, at=3)
        )
        drifting.advance_clock(2 * 64)
        assert drifting.readout is base.readout
        assert drifting.gate_noise is base.gate_noise
        drifting.advance_clock(64)
        assert drifting.readout is not base.readout

    def test_sampled_counts_bit_identical(self):
        static = SimulatorBackend(ibmq_mumbai_like(scale=2.0), seed=11)
        drifted = SimulatorBackend(
            DriftingDeviceModel(
                ibmq_mumbai_like(scale=2.0), ConstantDrift(period=2)
            ),
            seed=11,
        )
        circuit = bell()
        for _ in range(6):
            a = run(static, circuit, shots=256)
            b = run(drifted, circuit, shots=256)
            assert a.data == b.data

    def test_exact_pmfs_bit_identical(self):
        static = SimulatorBackend(ibmq_mumbai_like(scale=2.0), seed=3)
        drifted = SimulatorBackend(
            DriftingDeviceModel(
                ibmq_mumbai_like(scale=2.0), ConstantDrift(period=2)
            ),
            seed=3,
        )
        circuit = bell()
        for _ in range(4):
            a = static.exact_pmf(circuit)
            b = drifted.exact_pmf(circuit)
            np.testing.assert_array_equal(a.probs, b.probs)
            # Keep the clocks moving so parity holds across epochs.
            run(drifted, circuit, shots=16)
            run(static, circuit, shots=16)

    def test_tuning_outcome_identical(self):
        baseline = tuning_outcome(ibmq_mumbai_like(scale=2.0))
        drifted = tuning_outcome(
            DriftingDeviceModel(
                ibmq_mumbai_like(scale=2.0), ConstantDrift(period=8)
            )
        )
        assert drifted == baseline

    def test_drift_replay_is_deterministic(self):
        # Same schedule + same execution history -> identical outcome,
        # even when the noise actually moves (the non-trivial replay).
        def run():
            return tuning_outcome(
                DriftingDeviceModel(
                    ibmq_mumbai_like(scale=2.0),
                    LinearDrift(period=16, magnitude=1.5, ramp=4),
                )
            )

        first = run()
        second = run()
        assert first == second
        # And the drifting run genuinely differs from the static one.
        assert first != tuning_outcome(ibmq_mumbai_like(scale=2.0))
