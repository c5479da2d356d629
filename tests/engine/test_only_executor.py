"""The engine is the only code that executes, samples and charges.

``SimulatorBackend`` has no ``run`` method.  Readout characterization,
matrix calibration, bias-aware and single-circuit mitigation, the
sparse quench sweep and the sweep tasks all submit their circuits to
an engine batch, so the engine's job counter moves by exactly the
circuits each one charges to the ledger, which is its documented
charge.
"""

import pytest

from repro.circuits import Circuit
from repro.hamiltonian.tfim import tfim_hamiltonian
from repro.mitigation import (
    MatrixMitigator,
    invert_and_measure,
    jigsaw_mitigate,
)
from repro.noise import SimulatorBackend, characterize_readout
from repro.obs import REGISTRY
from repro.sweeps import Point
from repro.sweeps.runner import execute_point
from repro.trotter import sparse_quench_sweep


def ghz(n: int) -> Circuit:
    circuit = Circuit(n)
    circuit.h(0)
    for q in range(n - 1):
        circuit.cx(q, q + 1)
    circuit.measure_all()
    return circuit


def engine_jobs() -> float:
    return REGISTRY.snapshot().get("repro_engine_jobs_total", 0)


def test_backend_has_no_run_method():
    assert not hasattr(SimulatorBackend, "run")


def _quench_sweep(backend):
    # Three time points, window 2 on four qubits (three Locals each),
    # a Global on points 0 and 2.
    result = sparse_quench_sweep(
        backend, tfim_hamiltonian(4), times=[0.25, 0.5, 0.75],
        shots=64, window=2, global_period=2,
    )
    assert result.circuits_executed == 3 * 3 + 2
    assert result.globals_executed == 2


HELPERS = {
    # name: (call on a backend, documented charge)
    "characterize_readout": (
        lambda b: characterize_readout(b, [0, 1, 2], shots=64),
        2 * 3 + 2,
    ),
    "MatrixMitigator.calibrate": (
        lambda b: MatrixMitigator.calibrate(b, [0, 2], shots=64), 2
    ),
    "invert_and_measure": (
        lambda b: invert_and_measure(b, ghz(3), 64), 2
    ),
    "jigsaw_mitigate": (
        lambda b: jigsaw_mitigate(b, ghz(4), shots=64, window=2), 1 + 3
    ),
    "sparse_quench_sweep": (_quench_sweep, 3 * 3 + 2),
}


@pytest.mark.parametrize("name", list(HELPERS))
def test_helper_charges_through_the_engine(name, tiny_device):
    call, charge = HELPERS[name]
    backend = SimulatorBackend(tiny_device, seed=3)
    before = engine_jobs()
    call(backend)
    assert engine_jobs() - before == backend.circuits_run == charge


def test_mitigation_shootout_task_charges_through_the_engine():
    point = Point(
        task="mitigation_shootout",
        options={"n_qubits": 3, "shots": 256},
    )
    before = engine_jobs()
    result, _ = execute_point(point)
    # raw 1, bias-aware 2, MBM 1, M3 1, JigSaw 1 + 2 windows.
    charged = sum(cost for _, cost in result.values())
    assert engine_jobs() - before == charged == 8


def test_quench_task_charges_through_the_engine():
    point = Point(
        task="quench", options={"n_qubits": 3, "shots": 256, "t": 0.25}
    )
    before = engine_jobs()
    execute_point(point)
    # The noisy run, then JigSaw's Global + 2 windows.
    assert engine_jobs() - before == 1 + 3


@pytest.mark.parametrize("kind", ["dense", "clifford", "density"])
def test_backend_matrix_task_charges_through_the_engine(kind):
    point = Point(
        task="backend_matrix", backend=kind, seed=11, shots=64,
        options={"n_qubits": 4, "layers": 3, "runs": 3},
    )
    before = engine_jobs()
    result, _ = execute_point(point)
    assert engine_jobs() - before == result["circuits"] == 3
