"""The ``clifford`` backend: stabilizer dispatch + dense fallback."""

import numpy as np
import pytest

from repro.backends import CliffordBackend, make_backend
from repro.circuits import Circuit
from repro.clifford import is_clifford_circuit, stabilizer_probabilities
from repro.engine import CircuitSpec, shared_engine
from repro.noise import SimulatorBackend, ibmq_mumbai_like
from repro.sim import probabilities, run_statevector


def ghz(n):
    circuit = Circuit(n)
    circuit.h(0)
    for q in range(n - 1):
        circuit.cx(q, q + 1)
    circuit.measure_all()
    return circuit


def run(backend, circuit, shots):
    """One circuit executed as its own engine batch."""
    return shared_engine(backend).run_spec(CircuitSpec(circuit, shots))


def random_clifford(n, gates, seed):
    rng = np.random.default_rng(seed)
    circuit = Circuit(n)
    one_q = ("h", "s", "sdg", "x", "y", "z", "sx")
    two_q = ("cx", "cz", "swap")
    for _ in range(gates):
        if n > 1 and rng.random() < 0.4:
            a, b = rng.choice(n, size=2, replace=False)
            circuit.append(str(rng.choice(two_q)), (int(a), int(b)))
        else:
            circuit.append(str(rng.choice(one_q)), int(rng.integers(n)))
    circuit.measure_all()
    return circuit


class TestStabilizerProbabilities:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_ghz_distribution_is_exact(self, n):
        probs = stabilizer_probabilities(ghz(n))
        expect = np.zeros(2**n)
        expect[0] = expect[-1] = 0.5
        assert np.array_equal(probs, expect)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_statevector_on_random_cliffords(self, seed):
        circuit = random_clifford(4, 25, seed)
        got = stabilizer_probabilities(circuit)
        expect = probabilities(run_statevector(circuit))
        assert np.allclose(got, expect, atol=1e-12)

    def test_rejects_non_clifford_gates(self):
        circuit = Circuit(2)
        circuit.rx(0.3, 0)
        assert not is_clifford_circuit(circuit)
        with pytest.raises(ValueError):
            stabilizer_probabilities(circuit)


class TestDispatch:
    def test_ghz_counts_match_dense_backend_bitwise(self):
        device = ibmq_mumbai_like()
        dense = SimulatorBackend(device, seed=3)
        clifford = make_backend("clifford", device, seed=3)
        circuit = ghz(5)
        c_dense = run(dense, circuit, shots=512)
        c_clifford = run(clifford, circuit, shots=512)
        assert c_clifford.data == c_dense.data
        assert clifford.stabilizer_runs == 1
        assert clifford.dense_fallbacks == 0
        assert (dense.circuits_run, dense.shots_run) == (
            clifford.circuits_run, clifford.shots_run
        )

    def test_noisy_pmf_pipeline_is_shared(self):
        device = ibmq_mumbai_like(scale=2.0)
        dense = SimulatorBackend(device, seed=0)
        clifford = CliffordBackend(device, seed=0)
        circuit = ghz(4)
        assert np.allclose(
            clifford.exact_pmf(circuit).probs,
            dense.exact_pmf(circuit).probs,
            atol=1e-12,
        )

    def test_non_clifford_circuit_falls_back_to_dense(self):
        clifford = make_backend("clifford", seed=1)
        circuit = Circuit(2)
        circuit.h(0)
        circuit.rz(0.7, 1)
        circuit.measure_all()
        dense = SimulatorBackend(seed=1)
        assert run(clifford, circuit, 64).data == run(dense, circuit, 64).data
        assert clifford.dense_fallbacks == 1
        assert clifford.stabilizer_runs == 0

    def test_dispatch_is_per_circuit(self):
        clifford = make_backend("clifford", seed=1)
        non_clifford = Circuit(2)
        non_clifford.ry(0.2, 0)
        non_clifford.measure_all()
        run(clifford, ghz(2), 16)
        run(clifford, non_clifford, 16)
        run(clifford, ghz(3), 16)
        assert clifford.stabilizer_runs == 2
        assert clifford.dense_fallbacks == 1

    def test_error_fallback_mode_raises(self):
        strict = make_backend({"kind": "clifford", "fallback": "error"})
        circuit = Circuit(1)
        circuit.rx(0.5, 0)
        circuit.measure_all()
        with pytest.raises(ValueError, match="non-Clifford"):
            run(strict, circuit, 16)
        run(strict, ghz(2), 16)  # Clifford circuits still execute

    def test_invalid_fallback_rejected(self):
        with pytest.raises(ValueError, match="fallback"):
            CliffordBackend(fallback="maybe")


class TestEngineIntegration:
    def test_engine_caches_are_keyed_by_backend_kind(self):
        from repro.engine import device_fingerprint

        device = ibmq_mumbai_like()
        dense = SimulatorBackend(device, seed=0)
        clifford = CliffordBackend(device, seed=0)
        assert device_fingerprint(dense) != device_fingerprint(clifford)

    def test_batched_execution_uses_the_fast_path(self):
        from repro.engine import ensure_engine

        clifford = make_backend("clifford", ibmq_mumbai_like(), seed=5)
        engine = ensure_engine(None, clifford)
        batch = engine.new_batch()
        handles = [batch.submit_circuit(ghz(4), 32) for _ in range(3)]
        batch.run()
        # three submissions dedup to one stabilizer simulation ...
        assert clifford.stabilizer_runs == 1
        # ... while the ledger still charges every submission.
        assert clifford.circuits_run == 3
        assert all(h.result().shots == 32 for h in handles)
