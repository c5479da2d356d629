"""Cross-backend differential: one mixed engine batch on every backend.

The batch is what VarSaw and JigSaw submit, in miniature: a fully
measured Global plus its window-2 best-mapped subsets (one circuit
body), a second body measured twice, and prepared-state specs with and
without a basis suffix.  Every backend must agree with ``dense``:

* ``remote`` (dense workers) bit for bit, in one ``probs`` request;
* ``clifford`` bit for bit on the non-Clifford body (dense fallback)
  and within 1e-12 on the Clifford one (stabilizer tableaus);
* ``density`` within 1e-12 on a device without gate noise;

and every PMF the engine hands out must equal that backend's own
``exact_pmf``/``pmf_from_state`` on the spec alone, bit for bit, with
the expected side's suffix plans compiled apart from the submitted
ones.
"""

import numpy as np
import pytest

from repro.ansatz import EfficientSU2
from repro.backends import make_backend
from repro.circuits import Circuit
from repro.dist.transport import WorkerPool
from repro.engine import EngineConfig, MeasurementSpec
from repro.engine.engine import ExecutionEngine
from repro.mitigation import sliding_windows
from repro.noise import ibmq_mumbai_like
from repro.sim import CircuitPlan, compile_plan

from ..engine.fixed_ansatz import prepare
from ..noise.finisher_rows import without_gate_noise

N_QUBITS = 5
SHOTS = 256
TOLERANCE = 1e-12


def ansatz_body() -> Circuit:
    """A non-Clifford circuit body (no measured qubits)."""
    ansatz = EfficientSU2(N_QUBITS, reps=1, entanglement="linear")
    rng = np.random.default_rng(17)
    return ansatz.bind(rng.uniform(-np.pi, np.pi, ansatz.num_parameters))


def clifford_body() -> Circuit:
    """A stabilizer circuit body (no measured qubits)."""
    qc = Circuit(N_QUBITS)
    qc.h(0)
    for q in range(N_QUBITS - 1):
        qc.cx(q, q + 1)
    qc.s(2)
    qc.h(3)
    qc.cz(1, 4)
    return qc


def measured(body: Circuit, qubits) -> Circuit:
    circuit = body.copy()
    circuit.measure(qubits)
    return circuit


def basis_suffix() -> CircuitPlan:
    """A freshly compiled basis-change suffix plan."""
    suffix = Circuit(N_QUBITS)
    suffix.h(0)
    suffix.sdg(2)
    suffix.h(2)
    return compile_plan(suffix)


def circuit_specs() -> list[tuple[Circuit, bool, bool]]:
    """``(circuit, map_to_best, clifford)`` for every circuit spec."""
    anz, cliff = ansatz_body(), clifford_body()
    specs = [(measured(anz, range(N_QUBITS)), False, False)]
    specs += [
        (measured(anz, window), True, False)
        for window in sliding_windows(N_QUBITS, 2)
    ]
    specs += [
        (measured(cliff, range(N_QUBITS)), False, True),
        (measured(cliff, (1, 3)), True, True),
    ]
    return specs


def run_mixed_batch(backend):
    """Run the mixed batch; return ``(pmfs, expected, clifford flags)``.

    ``expected`` holds the backend's own one-spec answer for each job.
    """
    engine = ExecutionEngine(backend, EngineConfig())
    state = prepare(engine, ansatz_body())
    load = backend.noise_gate_load(ansatz_body())
    submitted = basis_suffix()
    state_specs = [
        (None, (0, 1, 2, 3, 4), False),
        (submitted, (0, 2), True),
        (submitted, (1,), False),
    ]
    batch = engine.new_batch()
    handles = [
        batch.submit_circuit(circuit, SHOTS, map_to_best)
        for circuit, map_to_best, _ in circuit_specs()
    ]
    handles += [
        batch.submit_state(
            state,
            MeasurementSpec(N_QUBITS, suffix, qubits, SHOTS, best, load),
        )
        for suffix, qubits, best in state_specs
    ]
    batch.run()
    expected = [
        backend.exact_pmf(circuit, map_to_best)
        for circuit, map_to_best, _ in circuit_specs()
    ]
    alone = basis_suffix()
    expected += [
        backend.pmf_from_state(
            state, None if suffix is None else alone, qubits, best, load
        )
        for suffix, qubits, best in state_specs
    ]
    flags = [clifford for _, _, clifford in circuit_specs()]
    flags += [False] * len(state_specs)
    return [h.pmf() for h in handles], expected, flags


def assert_matches_own_exact_pmf(pmfs, expected):
    for pmf, alone in zip(pmfs, expected):
        assert pmf.qubits == alone.qubits
        assert np.array_equal(pmf.probs, alone.probs)


@pytest.fixture
def wire_ops(monkeypatch):
    """The op of every request the remote worker pool sends."""
    ops = []
    original = WorkerPool.submit

    def counting(self, message):
        ops.append(message["op"])
        return original(self, message)

    monkeypatch.setattr(WorkerPool, "submit", counting)
    return ops


def dense_run(device=None):
    backend = make_backend("dense", device or ibmq_mumbai_like(), seed=7)
    return run_mixed_batch(backend)


def test_dense_engine_pmfs_equal_exact_pmf_alone():
    pmfs, expected, _ = dense_run()
    assert_matches_own_exact_pmf(pmfs, expected)


def test_remote_dense_is_bitwise_dense_in_one_probs_request(wire_ops):
    backend = make_backend(
        {"kind": "remote", "workers": 1}, ibmq_mumbai_like(), seed=7
    )
    try:
        engine = ExecutionEngine(backend, EngineConfig())
        batch = engine.new_batch()
        for circuit, map_to_best, _ in circuit_specs():
            batch.submit_circuit(circuit, SHOTS, map_to_best)
        batch.run()
        assert wire_ops.count("probs") == 1
        pmfs, expected, _ = run_mixed_batch(backend)
    finally:
        backend.close()
    assert_matches_own_exact_pmf(pmfs, expected)
    dense, _, _ = dense_run()
    for pmf, reference in zip(pmfs, dense):
        assert pmf.qubits == reference.qubits
        assert np.array_equal(pmf.probs, reference.probs)


def test_clifford_matches_dense():
    backend = make_backend("clifford", ibmq_mumbai_like(), seed=7)
    pmfs, expected, flags = run_mixed_batch(backend)
    assert_matches_own_exact_pmf(pmfs, expected)
    assert backend.stabilizer_runs > 0 and backend.dense_fallbacks > 0
    dense, _, _ = dense_run()
    for pmf, reference, clifford in zip(pmfs, dense, flags):
        assert pmf.qubits == reference.qubits
        if clifford:
            assert np.max(np.abs(pmf.probs - reference.probs)) <= TOLERANCE
        else:
            assert np.array_equal(pmf.probs, reference.probs)


def test_density_without_gate_noise_matches_dense():
    device = without_gate_noise(ibmq_mumbai_like())
    backend = make_backend("density", device, seed=7)
    pmfs, expected, _ = run_mixed_batch(backend)
    assert_matches_own_exact_pmf(pmfs, expected)
    dense, _, _ = dense_run(device)
    for pmf, reference in zip(pmfs, dense):
        assert pmf.qubits == reference.qubits
        assert np.max(np.abs(pmf.probs - reference.probs)) <= TOLERANCE
