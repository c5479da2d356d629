"""The ``density`` backend: local noise channels + analytic counts."""

import numpy as np
import pytest

from repro.api import Session
from repro.backends import DensityBackend, make_backend
from repro.circuits import Circuit
from repro.engine import CircuitSpec, shared_engine
from repro.noise import SimulatorBackend, ibmq_mumbai_like
from repro.sim import run_density_matrix
from repro.workloads import make_workload

from ..noise.finisher_rows import without_gate_noise, without_readout_error


def bell():
    circuit = Circuit(2)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.measure_all()
    return circuit


def run(backend, circuit, shots):
    """One circuit executed as its own engine batch."""
    return shared_engine(backend).run_spec(CircuitSpec(circuit, shots))


class TestAnalyticCounts:
    def test_counts_are_expected_values_not_samples(self):
        backend = make_backend("density", seed=0)
        counts = run(backend, bell(), shots=100)
        assert counts["00"] == pytest.approx(50.0)
        assert counts["11"] == pytest.approx(50.0)
        assert counts.shots == pytest.approx(100.0)

    def test_repeat_executions_are_identical(self):
        backend = make_backend("density", ibmq_mumbai_like(), seed=0)
        first = run(backend, bell(), shots=64)
        second = run(backend, bell(), shots=64)
        assert first.data == second.data

    def test_analytic_false_restores_sampling(self):
        device = ibmq_mumbai_like()
        sampled = make_backend(
            {"kind": "density", "analytic": False}, device, seed=4
        )
        counts = run(sampled, bell(), shots=64)
        assert all(float(v).is_integer() for v in counts.data.values())
        assert counts.shots == 64

    def test_ledger_is_charged_like_any_backend(self):
        backend = make_backend("density", seed=0)
        run(backend, bell(), shots=100)
        run(backend, bell(), shots=50)
        assert (backend.circuits_run, backend.shots_run) == (2, 150)


class TestExpectationParity:
    def test_ideal_device_estimator_matches_exact_expectation(self):
        """Zero noise + analytic counts = the exact expectation value."""
        workload = make_workload("H2-4", reps=1, entanglement="linear")
        params = np.full(workload.ansatz.num_parameters, 0.1)
        exact = Session().estimator("ideal", workload).evaluate(params)
        session = Session(seed=0, backend="density")
        noisy_free = session.estimator(
            "baseline", workload, shots=16
        ).evaluate(params)
        assert noisy_free == pytest.approx(exact, abs=1e-9)

    def test_zero_variance_across_seeds(self):
        """Analytic expectations do not depend on the sampling seed."""
        workload = make_workload("H2-4", reps=1, entanglement="linear")
        params = np.full(workload.ansatz.num_parameters, 0.1)
        device = ibmq_mumbai_like(scale=2.0)
        values = {
            Session(device, seed=seed, backend="density").estimator(
                "baseline", workload, shots=8
            ).evaluate(params)
            for seed in (0, 1, 2)
        }
        assert len(values) == 1

    def test_dense_sampling_converges_to_density_analytic(self):
        """Under readout-only noise the two backends share one model:
        dense sampling must converge on the density backend's analytic
        expectation as shots grow."""
        workload = make_workload("H2-4", reps=1, entanglement="linear")
        params = np.full(workload.ansatz.num_parameters, 0.1)
        device = without_gate_noise(ibmq_mumbai_like())
        analytic = Session(
            device, backend="density"
        ).estimator("baseline", workload, shots=8).evaluate(params)
        sampled = np.mean([
            Session(device, seed=s, backend="dense").estimator(
                "baseline", workload, shots=8192
            ).evaluate(params)
            for s in range(4)
        ])
        assert sampled == pytest.approx(analytic, abs=0.05)


class TestLocalNoiseModel:
    def test_full_circuit_probs_match_reference_density_matrix(self):
        device = without_readout_error(ibmq_mumbai_like(scale=2.0))
        backend = DensityBackend(device, seed=0)
        circuit = bell()
        gn = device.gate_noise
        reference = run_density_matrix(
            circuit,
            gate_error_1q=gn.error_1q * gn.scale,
            gate_error_2q=gn.error_2q * gn.scale,
        )
        assert np.allclose(
            backend.exact_pmf(circuit).probs,
            reference.probabilities(),
        )

    def test_zero_gate_noise_gives_pure_evolution(self):
        device = without_gate_noise(ibmq_mumbai_like(scale=2.0))
        backend = DensityBackend(without_readout_error(device))
        probs = backend.exact_pmf(bell()).probs
        assert probs[0] == pytest.approx(0.5)
        assert probs[3] == pytest.approx(0.5)

    def test_amplitude_damping_is_in_the_engine_cache_key(self):
        """Changing damping must never reuse a memoized PMF."""
        from repro.engine import (
            CircuitSpec,
            device_fingerprint,
            ensure_engine,
        )

        backend = make_backend("density", seed=0)
        plain_fp = device_fingerprint(backend)
        engine = ensure_engine(None, backend)
        before = engine.run_spec(CircuitSpec(bell(), 100))
        backend.amplitude_damping = 0.3
        assert device_fingerprint(backend) != plain_fp
        after = engine.run_spec(CircuitSpec(bell(), 100))
        assert before.data != after.data

    def test_amplitude_damping_biases_toward_zero(self):
        damped = make_backend({"kind": "density", "amplitude_damping": 0.2})
        plain = make_backend("density")
        assert (
            damped.exact_pmf(bell()).probs[0]
            > plain.exact_pmf(bell()).probs[0]
        )

    def test_no_double_counting_of_gate_noise(self):
        """exact_pmf applies local channels only — mixing the global
        depolarizing weight on top again would push the distribution
        measurably closer to uniform than the reference evolution."""
        device = without_readout_error(ibmq_mumbai_like(scale=2.0))
        backend = DensityBackend(device)
        dense = SimulatorBackend(device)
        circuit = bell()
        gn = device.gate_noise
        reference = run_density_matrix(
            circuit,
            gate_error_1q=gn.error_1q * gn.scale,
            gate_error_2q=gn.error_2q * gn.scale,
        ).probabilities()
        assert np.allclose(backend.exact_pmf(circuit).probs, reference)
        # and the models genuinely differ from the dense approximation
        assert not np.allclose(
            dense.exact_pmf(circuit).probs, reference
        )
