"""Behavioral tests for ExecutionEngine: dedup, caching, charging, RNG."""

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.engine import (
    CircuitSpec,
    EngineConfig,
    ExecutionEngine,
    StateSpec,
    circuit_fingerprint,
    ensure_engine,
)
from repro.backends import CliffordBackend
from repro.noise import SimulatorBackend
from repro.obs import REGISTRY, snapshot_delta
from repro.pauli import PauliString
from repro.sim import compile_plan


def ghz(n=3):
    qc = Circuit(n)
    qc.h(0)
    for q in range(n - 1):
        qc.cx(q, q + 1)
    qc.measure_all()
    return qc


class TestDedupFanOut:
    def test_identical_specs_simulate_once_but_charge_per_spec(self, backend):
        engine = ExecutionEngine(backend)
        batch = engine.new_batch()
        handles = [batch.submit_circuit(ghz(), shots=100) for _ in range(4)]
        batch.run()
        stats = engine.stats
        assert stats.simulations == 1
        assert stats.dedup_coalesced == 3
        # Ledger: one circuit + 100 shots per *submitted* spec.
        assert backend.circuits_run == 4
        assert backend.shots_run == 400
        # Every handle got its own sampled result over the right qubits.
        for h in handles:
            assert h.result().shots == 100
            assert h.result().qubits == (0, 1, 2)

    def test_duplicates_sample_independently(self, backend):
        engine = ExecutionEngine(backend)
        batch = engine.new_batch()
        h1 = batch.submit_circuit(ghz(), shots=4096)
        h2 = batch.submit_circuit(ghz(), shots=4096)
        batch.run()
        # Same exact PMF underneath, but independent shot noise on top.
        assert h1.pmf() is h2.pmf()
        assert h1.result().data != h2.result().data

    def test_different_shots_share_one_simulation(self, backend):
        engine = ExecutionEngine(backend)
        batch = engine.new_batch()
        batch.submit_circuit(ghz(), shots=10)
        batch.submit_circuit(ghz(), shots=20)
        batch.run()
        assert engine.stats.simulations == 1
        assert backend.circuits_run == 2
        assert backend.shots_run == 30


class TestPMFCache:
    def test_hits_across_batches(self, backend):
        engine = ExecutionEngine(backend)
        engine.run_spec(CircuitSpec(ghz(), shots=10))
        engine.run_spec(CircuitSpec(ghz(), shots=10))
        stats = engine.stats.pmf_cache
        assert stats.misses == 1
        assert stats.hits == 1
        assert engine.stats.simulations == 1
        assert backend.circuits_run == 2

    def test_eviction_respects_configured_bound(self, backend):
        engine = ExecutionEngine(backend, EngineConfig(cache_size=2))
        circuits = []
        for theta in (0.1, 0.2, 0.3, 0.4):
            qc = Circuit(2)
            qc.ry(theta, 0)
            qc.cx(0, 1)
            qc.measure_all()
            circuits.append(qc)
        for qc in circuits:
            engine.run_spec(CircuitSpec(qc, shots=5))
        stats = engine.stats.pmf_cache
        assert stats.size <= 2
        assert stats.evictions == 2

    def test_cache_disabled_resimulates(self, backend):
        engine = ExecutionEngine(backend, EngineConfig(cache_size=0))
        engine.run_spec(CircuitSpec(ghz(), shots=10))
        engine.run_spec(CircuitSpec(ghz(), shots=10))
        assert engine.stats.simulations == 2

    def test_caching_does_not_change_results(self, noisy_device):
        outcomes = []
        for size in (0, 64):
            backend = SimulatorBackend(noisy_device, seed=11)
            engine = ExecutionEngine(backend, EngineConfig(cache_size=size))
            counts = [
                engine.run_spec(CircuitSpec(ghz(), shots=50)).data
                for _ in range(3)
            ]
            outcomes.append(counts)
        assert outcomes[0] == outcomes[1]


class TestStatePreparation:
    def test_prepare_state_cached_and_uncharged(self, backend, h2_workload):
        engine = ExecutionEngine(backend)
        circ = h2_workload.ansatz.bind(
            np.zeros(h2_workload.ansatz.num_parameters)
        )
        s1 = engine.prepare_state(circ)
        s2 = engine.prepare_state(circ)
        assert s1 is s2
        assert engine.stats.state_cache.hits == 1
        assert backend.circuits_run == 0


class TestRNGModes:
    """Sampling draws from the backend's one RNG in submission order."""

    def test_shared_mode_matches_direct_backend_path(self, noisy_device):
        # The reference: exact PMF, charge, then sample from the
        # backend's RNG, one circuit at a time.
        direct = SimulatorBackend(noisy_device, seed=3)
        c_direct = []
        for _ in range(3):
            pmf = direct.exact_pmf(ghz())
            direct.charge(64)
            c_direct.append(direct.sample(pmf, 64, direct.rng))

        engined = SimulatorBackend(noisy_device, seed=3)
        engine = ExecutionEngine(engined)
        batch = engine.new_batch()
        handles = [batch.submit_circuit(ghz(), shots=64) for _ in range(3)]
        batch.run()
        for direct_counts, handle in zip(c_direct, handles):
            assert handle.result().data == direct_counts.data
        assert (direct.circuits_run, direct.shots_run) == (
            engined.circuits_run,
            engined.shots_run,
        )


class TestBatchLifecycle:
    def test_result_before_run_raises(self, backend):
        engine = ExecutionEngine(backend)
        handle = engine.new_batch().submit_circuit(ghz(), shots=5)
        assert not handle.done()
        with pytest.raises(RuntimeError):
            handle.result()

    def test_batch_runs_only_once(self, backend):
        engine = ExecutionEngine(backend)
        batch = engine.new_batch()
        batch.submit_circuit(ghz(), shots=5)
        batch.run()
        with pytest.raises(RuntimeError):
            batch.run()
        with pytest.raises(RuntimeError):
            batch.submit_circuit(ghz(), shots=5)

    def test_empty_batch_is_a_no_op(self, backend):
        engine = ExecutionEngine(backend)
        assert engine.new_batch().run() == []
        assert backend.circuits_run == 0

    def test_failed_batch_leaves_no_trace(self, noisy_device):
        backend = CliffordBackend(noisy_device, seed=7, fallback="error")
        engine = ExecutionEngine(backend)
        rotated = ghz()
        rotated.ry(0.3, 0)
        before, metrics = engine.stats, REGISTRY.snapshot()
        batch = engine.new_batch()
        handle = batch.submit_circuit(rotated, shots=5)
        with pytest.raises(ValueError, match="non-Clifford"):
            batch.run()
        delta = engine.stats - before
        assert delta.batches_run == 0 and delta.simulations == 0
        moved = snapshot_delta(REGISTRY.snapshot(), metrics)
        assert moved.get("repro_engine_batches_total", 0) == 0
        assert moved.get("repro_engine_simulations_total", 0) == 0
        assert handle.source is None and not handle.done()
        assert backend.circuits_run == 0
        # The engine stays usable and counts the next batch normally.
        engine.run_spec(CircuitSpec(ghz(), shots=5))
        delta = engine.stats - before
        assert delta.batches_run == 1 and delta.simulations == 1


class TestSpecs:
    def test_unmeasured_circuit_rejected(self):
        qc = Circuit(2)
        qc.h(0)
        with pytest.raises(ValueError):
            CircuitSpec(qc, shots=10)

    def test_nonpositive_shots_rejected(self):
        with pytest.raises(ValueError):
            CircuitSpec(ghz(), shots=0)
        with pytest.raises(ValueError):
            StateSpec(
                state=np.array([1.0 + 0j, 0.0]),
                suffix=None,
                measured_qubits=(0,),
                shots=0,
            )

    @pytest.mark.parametrize("qubit", [2, -1])
    def test_state_spec_qubit_outside_register_rejected(self, qubit):
        with pytest.raises(ValueError, match=f"measured qubit {qubit} "):
            StateSpec(
                state=np.array([1.0 + 0j, 0.0, 0.0, 0.0]),
                suffix=None,
                measured_qubits=(0, qubit),
                shots=10,
            )

    def test_state_spec_duplicate_qubit_rejected(self):
        with pytest.raises(ValueError, match="measured qubit 1 is listed"):
            StateSpec(
                state=np.array([1.0 + 0j, 0.0, 0.0, 0.0]),
                suffix=None,
                measured_qubits=(1, 0, 1),
                shots=10,
            )

    def test_bad_state_spec_fails_at_submit_and_the_batch_still_runs(
        self, backend
    ):
        engine = ExecutionEngine(backend)
        state = engine.prepare_state(ghz())
        batch = engine.new_batch()
        good = batch.submit_state(state, None, (0, 2), shots=10)
        with pytest.raises(ValueError, match="measured qubit 3 "):
            batch.submit_state(state, None, (0, 3), shots=10)
        batch.run()
        assert good.done() and good.pmf().qubits == (0, 2)
        assert backend.circuits_run == 1

    def test_state_spec_length_not_a_power_of_two_rejected(self):
        with pytest.raises(ValueError, match="6 amplitudes"):
            StateSpec(
                state=np.ones(6, dtype=complex) / np.sqrt(6),
                suffix=None,
                measured_qubits=(0,),
                shots=10,
            )

    def test_state_spec_suffix_width_mismatch_rejected(self):
        suffix = compile_plan(PauliString("XX").basis_rotation())
        with pytest.raises(
            ValueError, match="suffix acts on 2 qubits .* 3-qubit"
        ):
            StateSpec(
                state=np.eye(8, dtype=complex)[0],
                suffix=suffix,
                measured_qubits=(0, 1),
                shots=10,
            )

    def test_state_spec_raw_circuit_suffix_rejected(self):
        with pytest.raises(TypeError, match="compile_plan"):
            StateSpec(
                state=np.eye(8, dtype=complex)[0],
                suffix=PauliString("XYZ").basis_rotation(),
                measured_qubits=(0, 1),
                shots=10,
            )

    def test_state_spec_slotted_suffix_rejected(self):
        rotated = Circuit(3)
        rotated.h(0)
        rotated.ry(0.25, 1)
        with pytest.raises(ValueError, match="1 rotation slots.*compile_plan"):
            StateSpec(
                state=np.eye(8, dtype=complex)[0],
                suffix=compile_plan(rotated),
                measured_qubits=(0, 1),
                shots=10,
            )

    def test_misshapen_state_specs_fail_at_submit_and_the_batch_runs(
        self, backend
    ):
        engine = ExecutionEngine(backend)
        state = engine.prepare_state(ghz())
        batch = engine.new_batch()
        good = batch.submit_state(
            state,
            compile_plan(PauliString("XYZ").basis_rotation()),
            (0, 1, 2),
            10,
        )
        with pytest.raises(ValueError, match="not a power of two"):
            batch.submit_state(state[:6], None, (0,), shots=10)
        with pytest.raises(ValueError, match="suffix acts on 2 qubits"):
            batch.submit_state(
                state,
                compile_plan(PauliString("XX").basis_rotation()),
                (0, 1),
                10,
            )
        batch.run()
        assert good.done() and good.pmf().qubits == (0, 1, 2)
        assert backend.circuits_run == 1

    def test_unbound_circuit_fingerprint_rejected(self):
        from repro.circuits.parameter import Parameter

        qc = Circuit(1)
        qc.ry(Parameter("theta"), 0)
        qc.measure_all()
        with pytest.raises(ValueError):
            circuit_fingerprint(qc)

    def test_fingerprint_sensitivity(self):
        base = ghz()
        assert circuit_fingerprint(base) == circuit_fingerprint(ghz())
        other = ghz()
        other.z(2)
        assert circuit_fingerprint(base) != circuit_fingerprint(other)

    def test_device_config_partitions_the_cache(self, noisy_device):
        # Same circuit, different noise flags -> distinct cache entries.
        b1 = SimulatorBackend(noisy_device, seed=1)
        b2 = SimulatorBackend(noisy_device, seed=1, readout_enabled=False)
        from repro.engine import device_fingerprint

        assert device_fingerprint(b1) != device_fingerprint(b2)


class TestEnsureEngine:
    def test_none_builds_default(self, backend):
        engine = ensure_engine(None, backend)
        assert isinstance(engine, ExecutionEngine)
        assert engine.backend is backend

    def test_none_resolves_to_shared_engine_per_backend(self, backend):
        # Estimators that don't ask for a specific engine pool one
        # engine (and its caches) per backend.
        assert ensure_engine(None, backend) is ensure_engine(None, backend)

    def test_estimators_on_one_backend_share_the_engine(
        self, h2_workload, backend
    ):
        from repro.mitigation import JigSawEstimator
        from repro.vqe import BaselineEstimator

        args = (h2_workload.hamiltonian, h2_workload.ansatz, backend)
        baseline = BaselineEstimator(*args, shots=32)
        jigsaw = JigSawEstimator(*args, shots=32)
        assert baseline.engine is jigsaw.engine

    def test_config_still_builds_private_engines(self, backend):
        config = EngineConfig(cache_size=8)
        first = ensure_engine(config, backend)
        second = ensure_engine(config, backend)
        assert first is not second
        assert first is not ensure_engine(None, backend)

    def test_config_builds_engine(self, backend):
        config = EngineConfig(cache_size=4)
        engine = ensure_engine(config, backend)
        assert engine.config is config
        assert engine.backend is backend

    def test_existing_engine_passes_through(self, backend):
        engine = ExecutionEngine(backend)
        assert ensure_engine(engine, backend) is engine

    def test_mismatched_backend_rejected(self, backend, noisy_device):
        other = SimulatorBackend(noisy_device, seed=0)
        with pytest.raises(ValueError):
            ensure_engine(ExecutionEngine(other), backend)

    def test_bad_type_rejected(self, backend):
        with pytest.raises(TypeError):
            ensure_engine("turbo", backend)


class TestConfigValidation:
    def test_invalid_values_rejected(self):
        for name in ("cache_size", "cache_bytes"):
            with pytest.raises(ValueError, match=name):
                EngineConfig(**{name: -1})

    def test_config_holds_only_cache_bounds(self):
        from dataclasses import fields

        assert [f.name for f in fields(EngineConfig)] == [
            "cache_size",
            "cache_bytes",
        ]
