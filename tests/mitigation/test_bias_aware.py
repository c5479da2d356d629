"""Unit tests for invert-and-measure bias-aware mitigation."""

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.engine import CircuitSpec, shared_engine
from repro.mitigation import (
    flip_pmf_bits,
    invert_and_measure,
    polarity_circuits,
)
from repro.noise import (
    DepolarizingGateNoise,
    DeviceModel,
    QubitReadoutError,
    ReadoutErrorModel,
    SimulatorBackend,
    ideal_device,
)
from repro.sim import PMF


def biased_device(n, p01=0.005, p10=0.08):
    """A device with the strong 1->0 relaxation asymmetry."""
    readout = ReadoutErrorModel(
        [QubitReadoutError(p01=p01, p10=p10) for _ in range(n)],
        crosstalk_strength=0.0,
    )
    return DeviceModel(
        "biased", readout, DepolarizingGateNoise(0.0, 0.0)
    )


class TestPolarityCircuits:
    def test_inverted_copy_appends_x_on_measured(self):
        qc = Circuit(3)
        qc.h(0)
        qc.measure([0, 2])
        normal, inverted = polarity_circuits(qc)
        assert normal.num_gates == 1
        x_gates = [
            inst for inst in inverted.instructions if inst.name == "x"
        ]
        assert sorted(q for inst in x_gates for q in inst.qubits) == [0, 2]

    def test_original_untouched(self):
        qc = Circuit(2)
        qc.measure_all()
        polarity_circuits(qc)
        assert qc.num_gates == 0

    def test_unmeasured_circuit_rejected(self):
        with pytest.raises(ValueError, match="measures no qubits"):
            polarity_circuits(Circuit(2))


class TestFlipPmfBits:
    def test_flip_moves_mass_to_complement(self):
        pmf = PMF(np.array([0.7, 0.1, 0.2, 0.0]))
        flipped = flip_pmf_bits(pmf)
        assert flipped.probs[0b11] == pytest.approx(0.7)
        assert flipped.probs[0b01] == pytest.approx(0.2)

    def test_double_flip_is_identity(self):
        rng = np.random.default_rng(3)
        probs = rng.dirichlet(np.ones(8))
        pmf = PMF(probs)
        assert flip_pmf_bits(flip_pmf_bits(pmf)) == pmf


class TestInvertAndMeasure:
    def test_reduces_expectation_bias_on_all_ones(self):
        """<Z..Z> bias on |11..1> shrinks toward the mean error rate."""
        n = 3
        device = biased_device(n)
        qc = Circuit(n)
        for q in range(n):
            qc.x(q)
        qc.measure_all()

        plain = shared_engine(SimulatorBackend(device, seed=21)).run_spec(
            CircuitSpec(qc, 40_000)
        ).to_pmf()
        averaged = invert_and_measure(
            SimulatorBackend(device, seed=21), qc, 40_000
        )
        target = PMF.point(n, 2**n - 1)
        # The plain run suffers p10 = 8% per qubit; the averaged run sees
        # the mean of p10 and p01 instead.
        assert averaged.tvd(target) < 0.65 * plain.tvd(target)

    def test_noiseless_distribution_unaffected(self):
        device = ideal_device(2)
        qc = Circuit(2)
        qc.x(0)
        qc.measure_all()
        pmf = invert_and_measure(SimulatorBackend(device, seed=2), qc, 4096)
        assert pmf.probs[0b10] == pytest.approx(1.0)

    def test_charges_two_circuits(self):
        backend = SimulatorBackend(biased_device(2), seed=4)
        qc = Circuit(2)
        qc.measure_all()
        before = backend.circuits_run
        invert_and_measure(backend, qc, 2048)
        assert backend.circuits_run == before + 2

    def test_too_few_shots_rejected(self):
        backend = SimulatorBackend(biased_device(2), seed=4)
        qc = Circuit(2)
        qc.measure_all()
        with pytest.raises(ValueError, match="shots"):
            invert_and_measure(backend, qc, 1)

    def test_partial_measurement_polarity(self):
        """Only measured qubits are inverted and flipped back."""
        device = biased_device(3)
        qc = Circuit(3)
        qc.x(0)
        qc.x(2)
        qc.measure([0, 2])
        pmf = invert_and_measure(SimulatorBackend(device, seed=6), qc, 20_000)
        assert pmf.n_qubits == 2
        assert pmf.probs[0b11] > 0.85
