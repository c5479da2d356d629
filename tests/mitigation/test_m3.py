"""Unit tests for M3-style subspace mitigation."""

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.engine import CircuitSpec, shared_engine
from repro.mitigation import M3Mitigator, MatrixMitigator
from repro.noise import SimulatorBackend, ibmq_mumbai_like, ideal_device
from repro.sim import PMF, Counts


def ghz_circuit(n):
    qc = Circuit(n)
    qc.h(0)
    for q in range(n - 1):
        qc.cx(q, q + 1)
    qc.measure_all()
    return qc


def run(backend, circuit, shots):
    """One circuit executed as its own engine batch."""
    return shared_engine(backend).run_spec(CircuitSpec(circuit, shots))


def ghz_pmf(n):
    probs = np.zeros(2**n)
    probs[0] = probs[-1] = 0.5
    return PMF(probs)


class TestConstruction:
    def test_bad_matrix_shape_rejected(self):
        with pytest.raises(ValueError, match="2x2"):
            M3Mitigator({0: np.eye(3)})

    def test_non_stochastic_matrix_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            M3Mitigator({0: np.array([[0.9, 0.2], [0.2, 0.9]])})

    def test_from_device_reads_confusion_matrices(self):
        backend = SimulatorBackend(ibmq_mumbai_like(), seed=1)
        mitigator = M3Mitigator.from_device(backend, [0, 1], 2)
        assert set(mitigator.matrices) == {0, 1}


class TestMitigation:
    def test_recovers_ghz_under_heavy_noise(self):
        backend = SimulatorBackend(ibmq_mumbai_like(scale=3.0), seed=5)
        counts = run(backend, ghz_circuit(3), 8192)
        mitigator = M3Mitigator.from_device(backend, [0, 1, 2], 3)
        raw_tvd = counts.to_pmf().tvd(ghz_pmf(3))
        mitigated_tvd = mitigator.mitigate_counts(counts).tvd(ghz_pmf(3))
        assert mitigated_tvd < 0.25 * raw_tvd

    def test_matches_full_mbm_on_small_system(self):
        backend = SimulatorBackend(ibmq_mumbai_like(scale=2.0), seed=7)
        counts = run(backend, ghz_circuit(3), 8192)
        m3 = M3Mitigator.from_device(backend, [0, 1, 2], 3)
        mbm = MatrixMitigator.from_device(backend, [0, 1, 2], 3)
        pmf_m3 = m3.mitigate_counts(counts)
        pmf_mbm = mbm.mitigate_pmf(counts.to_pmf())
        assert pmf_m3.tvd(pmf_mbm) < 0.05

    def test_noiseless_counts_unchanged(self):
        backend = SimulatorBackend(ideal_device(2), seed=3)
        qc = Circuit(2)
        qc.x(0)
        qc.measure_all()
        counts = run(backend, qc, 1024)
        mitigator = M3Mitigator.from_device(backend, [0, 1], 2)
        pmf = mitigator.mitigate_counts(counts)
        assert pmf.probs[0b10] == pytest.approx(1.0)

    def test_subspace_never_leaks_probability(self):
        backend = SimulatorBackend(ibmq_mumbai_like(scale=2.0), seed=9)
        counts = run(backend, ghz_circuit(4), 2048)
        mitigator = M3Mitigator.from_device(backend, [0, 1, 2, 3], 4)
        pmf = mitigator.mitigate_counts(counts)
        observed = set(counts.data)
        for index, prob in enumerate(pmf.probs):
            key = format(index, "04b")
            if key not in observed:
                assert prob == 0.0
        assert pmf.probs.sum() == pytest.approx(1.0)

    def test_empty_counts_rejected(self):
        mitigator = M3Mitigator({0: np.eye(2)})
        with pytest.raises(ValueError, match="empty"):
            mitigator.mitigate_counts(Counts({}, (0,)))

    def test_missing_calibration_rejected(self):
        mitigator = M3Mitigator({0: np.eye(2)})
        counts = Counts({"01": 10}, (0, 1))
        with pytest.raises(ValueError, match="no calibration"):
            mitigator.mitigate_counts(counts)

    def test_qubit_width_mismatch_rejected(self):
        mitigator = M3Mitigator({0: np.eye(2), 1: np.eye(2)})
        counts = Counts({"01": 10}, (0, 1))
        with pytest.raises(ValueError, match="width"):
            mitigator.mitigate_counts(counts, qubits=(0,))

    def test_mitigate_pmf_roundtrip(self):
        backend = SimulatorBackend(ibmq_mumbai_like(scale=2.0), seed=11)
        raw = run(backend, ghz_circuit(3), 8192).to_pmf()
        mitigator = M3Mitigator.from_device(backend, [0, 1, 2], 3)
        pmf = mitigator.mitigate_pmf(raw)
        assert pmf.tvd(ghz_pmf(3)) < raw.tvd(ghz_pmf(3))


class TestScaling:
    def test_wide_sparse_counts_stay_cheap(self):
        """12-qubit counts with a handful of outcomes: no 2^12 matrix."""
        rng = np.random.default_rng(13)
        keys = {
            "".join(rng.choice(["0", "1"], size=12)): int(rng.integers(1, 50))
            for _ in range(20)
        }
        qubits = tuple(range(12))
        counts = Counts(keys, qubits)
        mitigator = M3Mitigator(
            {
                q: np.array([[0.98, 0.05], [0.02, 0.95]])
                for q in range(12)
            }
        )
        pmf = mitigator.mitigate_counts(counts, qubits)
        assert pmf.probs.sum() == pytest.approx(1.0)


class TestDegenerateSystems:
    def test_singular_confusion_matrix_falls_back_to_lstsq(self):
        """p01 = p10 = 0.5 makes the per-qubit matrix singular; the
        mitigator must still return a physical distribution."""
        mitigator = M3Mitigator(
            {0: np.array([[0.5, 0.5], [0.5, 0.5]]), 1: np.eye(2)}
        )
        counts = Counts({"00": 500, "10": 500}, (0, 1))
        pmf = mitigator.mitigate_counts(counts)
        assert np.all(pmf.probs >= 0)
        assert pmf.probs.sum() == pytest.approx(1.0)

    def test_extreme_error_rates_stay_physical(self):
        mitigator = M3Mitigator(
            {
                0: np.array([[0.6, 0.45], [0.4, 0.55]]),
                1: np.array([[0.55, 0.5], [0.45, 0.5]]),
            }
        )
        counts = Counts({"00": 300, "01": 200, "11": 500}, (0, 1))
        pmf = mitigator.mitigate_counts(counts)
        assert np.all(pmf.probs >= 0)
        assert pmf.probs.sum() == pytest.approx(1.0)

    def test_single_outcome_counts(self):
        mitigator = M3Mitigator(
            {0: np.array([[0.95, 0.1], [0.05, 0.9]])}
        )
        counts = Counts({"1": 1000}, (0,))
        pmf = mitigator.mitigate_counts(counts)
        # With only '1' observed, all mass stays on '1'.
        assert pmf.probs[1] == pytest.approx(1.0)
