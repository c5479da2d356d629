"""Unit tests for single-circuit JigSaw mitigation."""

import numpy as np
import pytest

from repro.circuits import Circuit, Parameter
from repro.mitigation import jigsaw_mitigate
from repro.noise import SimulatorBackend
from repro.sim import PMF


def ghz(n: int) -> Circuit:
    qc = Circuit(n)
    qc.h(0)
    for i in range(n - 1):
        qc.cx(i, i + 1)
    return qc


def ghz_truth(n: int) -> PMF:
    probs = np.zeros(2**n)
    probs[0] = probs[-1] = 0.5
    return PMF(probs)


class TestJigsawMitigate:
    def test_recovers_ghz_under_readout_noise(self, tiny_device):
        """The MICRO'21 headline: mitigated GHZ beats the raw global."""
        backend = SimulatorBackend(tiny_device, seed=0)
        result = jigsaw_mitigate(backend, ghz(4), shots=30_000)
        truth = ghz_truth(4)
        assert result.output.tvd(truth) < result.global_pmf.tvd(truth)

    def test_circuit_accounting(self, tiny_device):
        backend = SimulatorBackend(tiny_device, seed=1)
        result = jigsaw_mitigate(backend, ghz(4), shots=128, window=2)
        # 1 global + 3 windows.
        assert result.circuits_executed == 4
        assert backend.circuits_run == 4
        assert len(result.local_pmfs) == 3

    def test_window_size_changes_subset_count(self):
        from repro.noise import ibmq_mumbai_like

        backend = SimulatorBackend(ibmq_mumbai_like(), seed=2)
        result = jigsaw_mitigate(backend, ghz(5), shots=64, window=3)
        assert len(result.local_pmfs) == 3  # 5 - 3 + 1

    def test_noise_free_is_consistent(self):
        backend = SimulatorBackend(seed=3)
        result = jigsaw_mitigate(backend, ghz(3), shots=100_000)
        assert result.output.tvd(ghz_truth(3)) < 0.02

    def test_unbound_rejected(self, tiny_device):
        qc = Circuit(2)
        qc.rx(Parameter("a"), 0)
        backend = SimulatorBackend(tiny_device, seed=4)
        with pytest.raises(ValueError):
            jigsaw_mitigate(backend, qc, shots=16)

    def test_bad_window(self, tiny_device):
        backend = SimulatorBackend(tiny_device, seed=5)
        with pytest.raises(ValueError):
            jigsaw_mitigate(backend, ghz(3), shots=16, window=0)

    @pytest.mark.parametrize(
        "kwargs",
        [{"shots": 0}, {"subset_shots": -5}, {"subset_shots": 0}],
        ids=["shots=0", "subset_shots=-5", "subset_shots=0"],
    )
    def test_rejected_shots_leave_the_ledger_untouched(
        self, tiny_device, kwargs
    ):
        backend = SimulatorBackend(tiny_device, seed=7)
        with pytest.raises(ValueError, match="shots"):
            jigsaw_mitigate(backend, ghz(3), **{"shots": 16, **kwargs})
        assert (backend.circuits_run, backend.shots_run) == (0, 0)

    def test_subset_shots_set_the_local_shots(self, tiny_device):
        backend = SimulatorBackend(tiny_device, seed=8)
        jigsaw_mitigate(backend, ghz(3), shots=16)
        assert backend.shots_run == 16 + 2 * 16
        jigsaw_mitigate(backend, ghz(3), shots=16, subset_shots=4)
        assert backend.shots_run == 48 + 16 + 2 * 4

    def test_does_not_mutate_input_circuit(self, tiny_device):
        backend = SimulatorBackend(tiny_device, seed=6)
        qc = ghz(3)
        jigsaw_mitigate(backend, qc, shots=16)
        assert qc.measured_qubits == set()
