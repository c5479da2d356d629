"""Unit tests for the noisy execution backend."""

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.engine import (
    CircuitSpec,
    ExecutionEngine,
    MeasurementSpec,
    shared_engine,
)
from repro.noise import SimulatorBackend, ideal_device
from repro.sim import compile_plan

from .finisher_rows import without_readout_error


def bell() -> Circuit:
    qc = Circuit(2)
    qc.h(0)
    qc.cx(0, 1)
    qc.measure_all()
    return qc


def run(backend, circuit, shots):
    """One circuit executed as its own engine batch."""
    return shared_engine(backend).run_spec(CircuitSpec(circuit, shots))


class TestIdealExecution:
    def test_bell_counts(self, ideal_backend):
        counts = run(ideal_backend, bell(), shots=4000)
        assert set(counts) <= {"00", "11"}
        assert counts.shots == 4000

    def test_exact_pmf_matches_theory(self, ideal_backend):
        pmf = ideal_backend.exact_pmf(bell())
        assert np.allclose(pmf.probs, [0.5, 0, 0, 0.5])

    def test_no_measured_qubits_rejected(self, ideal_backend):
        qc = Circuit(1)
        qc.h(0)
        with pytest.raises(ValueError):
            ideal_backend.exact_pmf(qc)

    def test_partial_measurement_marginalizes(self, ideal_backend):
        qc = Circuit(2)
        qc.h(0)
        qc.cx(0, 1)
        qc.measure(1)
        pmf = ideal_backend.exact_pmf(qc)
        assert pmf.qubits == (1,)
        assert np.allclose(pmf.probs, [0.5, 0.5])


class TestAccounting:
    def test_counters_accumulate(self, ideal_backend):
        run(ideal_backend, bell(), shots=10)
        run(ideal_backend, bell(), shots=20)
        assert ideal_backend.circuits_run == 2
        assert ideal_backend.shots_run == 30

    def test_prepare_state_not_charged(self, ideal_backend):
        qc = Circuit(2)
        qc.h(0)
        ideal_backend.prepare_states([qc], compile_plan)
        assert ideal_backend.circuits_run == 0

    def test_run_from_state_charged(self, ideal_backend):
        qc = Circuit(2)
        qc.h(0)
        (state,) = ideal_backend.prepare_states([qc], compile_plan)
        ideal_backend.pmf_from_state(state, None, [0])
        assert ideal_backend.circuits_run == 0
        batch = ExecutionEngine(ideal_backend).new_batch()
        batch.submit_state(state, MeasurementSpec(2, None, (0,), shots=5))
        batch.run()
        assert ideal_backend.circuits_run == 1
        assert ideal_backend.shots_run == 5


class TestNoiseApplication:
    def test_readout_error_biases_counts(self, tiny_device):
        backend = SimulatorBackend(tiny_device, seed=3)
        qc = Circuit(4)
        qc.measure(1)  # worst qubit, state |0>
        pmf = backend.exact_pmf(qc)
        assert pmf.probs[1] == pytest.approx(0.08)

    def test_map_to_best_uses_best_qubit(self, tiny_device):
        backend = SimulatorBackend(tiny_device, seed=3)
        qc = Circuit(4)
        qc.measure(1)
        pmf = backend.exact_pmf(qc, map_to_best=True)
        # Best physical qubit is 2 with p01 = 0.002.
        assert pmf.probs[1] == pytest.approx(0.002)

    def test_zero_readout_rates_read_exactly(self, tiny_device):
        backend = SimulatorBackend(without_readout_error(tiny_device), seed=3)
        qc = Circuit(4)
        qc.measure(1)
        assert backend.exact_pmf(qc).probs[0] == pytest.approx(1.0)

    def test_crosstalk_widens_error_with_more_measurements(self, tiny_device):
        backend = SimulatorBackend(tiny_device, seed=3)
        solo = Circuit(4)
        solo.measure(0)
        wide = Circuit(4)
        wide.measure([0, 1, 2, 3])
        p_solo = backend.exact_pmf(solo).probs[1]
        p_wide = backend.exact_pmf(wide).marginal([0]).probs[1]
        assert p_wide > p_solo

    def test_mapping_out_of_device_range(self, tiny_device):
        backend = SimulatorBackend(tiny_device, seed=3)
        with pytest.raises(ValueError):
            backend.physical_mapping([7], map_to_best=False)

    def test_run_from_state_matches_run(self, tiny_device):
        """The cached-state fast path is physically identical to run()."""
        backend = SimulatorBackend(tiny_device, seed=3)
        prep = Circuit(4)
        prep.h(0)
        prep.cx(0, 1)
        suffix = Circuit(4)
        suffix.h(1)
        full = prep.compose(suffix)
        full.measure([0, 1])
        pmf_full = backend.exact_pmf(full)
        (state,) = backend.prepare_states([prep], compile_plan)
        pmf_cached = backend.pmf_from_state(
            state, compile_plan(suffix), [0, 1], False, (3, 1)
        )
        assert np.allclose(pmf_full.probs, pmf_cached.probs)

    def test_gate_noise_contracts_distribution(self):
        from repro.noise import ibmq_mumbai_like

        backend = SimulatorBackend(
            without_readout_error(ibmq_mumbai_like()), seed=3
        )
        qc = Circuit(2)
        for _ in range(30):
            qc.cx(0, 1)
        qc.measure_all()
        pmf = backend.exact_pmf(qc)
        # Ideal outcome is |00> with certainty; depolarizing spreads mass.
        assert pmf.probs[0] < 1.0
        assert pmf.probs[3] > 0.0

    def test_default_device_is_ideal(self):
        backend = SimulatorBackend(seed=1)
        assert backend.device.name == ideal_device().name

    def test_seed_reproducibility(self, tiny_device):
        a = run(SimulatorBackend(tiny_device, seed=42), bell(), 100)
        b = run(SimulatorBackend(tiny_device, seed=42), bell(), 100)
        assert a.data == b.data
