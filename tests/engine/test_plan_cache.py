"""Compiled-plan cache behavior and plan-path bit-identity."""

import numpy as np
import pytest

from repro.backends.clifford import CliffordBackend
from repro.backends.density import DensityBackend
from repro.engine import EngineConfig
from repro.engine.engine import ExecutionEngine
from repro.engine.spec import CircuitSpec, StateSpec, device_fingerprint
from repro.circuits import Circuit
from repro.noise import SimulatorBackend
from repro.sim.plan import CircuitPlan, compile_plan

from ..noise.scalar_reference import reference_pmf


def ansatz(theta, phi=0.25):
    qc = Circuit(3)
    qc.h(0)
    qc.cx(0, 1)
    qc.ry(theta, 2)
    qc.cx(1, 2)
    qc.rz(phi, 0)
    qc.measure((0, 1, 2))
    return qc


def run_specs(engine, specs):
    batch = engine.new_batch()
    handles = [batch.submit(spec) for spec in specs]
    batch.run()
    return handles


def run_trace(engine, thetas, shots=128):
    return run_specs(
        engine, [CircuitSpec(ansatz(t), shots, False) for t in thetas]
    )


class TestPlanCache:
    def test_one_plan_serves_every_binding(self, backend):
        engine = ExecutionEngine(backend, EngineConfig())
        run_trace(engine, [0.1, 0.2, 0.3])
        stats = engine.stats.plan_cache
        # One structure: a single compile, reused for the whole batch
        # (hit counts depend on grouping, misses must stay at one).
        assert stats.misses == 1
        run_trace(engine, [0.4, 0.5])
        after = engine.stats.plan_cache
        assert after.misses == 1
        assert after.hits > stats.hits

    def test_distinct_structures_compile_separately(self, backend):
        engine = ExecutionEngine(backend, EngineConfig())
        other = ansatz(0.1)
        other.x(2)
        batch = engine.new_batch()
        batch.submit(CircuitSpec(ansatz(0.1), 64, False))
        batch.submit(CircuitSpec(other, 64, False))
        batch.run()
        assert engine.stats.plan_cache.misses == 2

    def test_cache_size_zero_retains_no_plan(self, backend):
        engine = ExecutionEngine(backend, EngineConfig(cache_size=0))
        run_trace(engine, [0.1, 0.2])
        run_trace(engine, [0.3])
        stats = engine.stats.plan_cache
        # Every lookup compiles afresh; nothing is kept or reused.
        assert stats.size == 0 and stats.hits == 0
        assert stats.misses >= 2


class TestPlanPathBitIdentity:
    def test_plan_path_matches_scalar_path_bitwise(self, noisy_device):
        thetas = [0.1, 0.7, -1.3, 0.7]

        def run(cache_size):
            backend = SimulatorBackend(noisy_device, seed=7)
            engine = ExecutionEngine(backend, EngineConfig(cache_size))
            return run_trace(engine, thetas)

        # Plans kept and reused against every lookup compiling afresh.
        planned = run(256)
        scalar = run(0)
        for a, b in zip(planned, scalar):
            assert np.array_equal(a.pmf().probs, b.pmf().probs)
            assert a.result().data == b.result().data

    def test_prepare_states_matches_prepare_state_bitwise(
        self, noisy_device
    ):
        circuits = [ansatz(t) for t in (0.3, 0.9, 0.3, -2.0)]
        batched_engine = ExecutionEngine(
            SimulatorBackend(noisy_device, seed=7), EngineConfig()
        )
        single_engine = ExecutionEngine(
            SimulatorBackend(noisy_device, seed=7), EngineConfig()
        )
        batched = batched_engine.prepare_states(circuits)
        singles = [single_engine.prepare_state(c) for c in circuits]
        for a, b in zip(batched, singles):
            assert np.array_equal(a, b)


class TestCapabilityGating:
    """Each backend's hooks decide how it simulates; the engine has one
    path and never inspects the backend's class."""

    def test_dense_backend_supports_plan_batching(self, backend, monkeypatch):
        batches = []
        original = CircuitPlan.run_batch

        def counting(plan, bindings, *args, **kwargs):
            batches.append(len(bindings))
            return original(plan, bindings, *args, **kwargs)

        monkeypatch.setattr(CircuitPlan, "run_batch", counting)
        circuits = [ansatz(t) for t in (0.1, 0.2, 0.3)]
        rows = backend.circuit_probabilities_batch(circuits, compile_plan)
        assert batches == [3]
        for circuit, row in zip(circuits, rows):
            (alone,) = backend.circuit_probabilities_batch(
                [circuit], compile_plan
            )
            assert np.array_equal(row, alone)

    @pytest.mark.parametrize("cls", [CliffordBackend, DensityBackend])
    def test_overriding_backends_are_excluded(self, cls, noisy_device):
        """Stabilizer and density evolution never touch the plan cache."""
        backend = cls(noisy_device, seed=7)
        ghz = Circuit(3)
        ghz.h(0)
        ghz.cx(0, 1)
        ghz.cx(1, 2)
        ghz.measure((0, 1, 2))
        engine = ExecutionEngine(backend, EngineConfig())
        handle = run_specs(engine, [CircuitSpec(ghz, 64, False)])[0]
        assert engine.stats.plan_cache.misses == 0
        assert engine.stats.plan_cache.hits == 0
        expected = backend.exact_pmf(ghz)
        assert np.array_equal(handle.pmf().probs, expected.probs)

    def test_finisher_override_serves_every_path(self, noisy_device):
        class CountingFinisher(SimulatorBackend):
            def exact_pmfs_from_probs_batch(self, rows, noise_key=None):
                calls.append((len(rows), noise_key))
                return super().exact_pmfs_from_probs_batch(
                    rows, noise_key=noise_key
                )

        calls: list[tuple] = []
        backend = CountingFinisher(noisy_device, seed=7)
        backend.exact_pmf(ansatz(0.1))
        engine = ExecutionEngine(backend, EngineConfig())
        state = engine.prepare_state(ansatz(0.2))
        run_specs(engine, [
            CircuitSpec(ansatz(0.3), 64, False),
            CircuitSpec(ansatz(0.4), 64, True),
            StateSpec(state, None, (0, 1), 64),
        ])
        backend.pmf_from_state(state, None, (2,))
        # exact_pmf, then the whole batch in one call under the engine's
        # noise key, then one state; the one-off calls pass no key.
        assert calls == [
            (1, None), (3, device_fingerprint(backend)), (1, None)
        ]


class TestVectorizedFinisher:
    def test_batch_rows_match_scalar_pipeline_bitwise(self, backend):
        rng = np.random.default_rng(11)
        rows = []
        for _ in range(6):
            probs = rng.random(8)
            rows.append((probs, 3, (0, 2), False, (4, 2)))
        rows.append((rng.random(8), 3, (0, 1, 2), True, (0, 0)))
        batch = backend.exact_pmfs_from_probs_batch(rows)
        for row, pmf in zip(rows, batch):
            expected = reference_pmf(*row, device=backend.device)
            assert pmf.qubits == row[2]
            assert np.array_equal(pmf.probs, expected)
