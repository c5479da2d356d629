"""Bitwise pin: density evolution vs the frozen per-gate loop.

:mod:`tests.sim.density_loop_reference` freezes the evolution loop that
rebuilt every gate's superoperator, folded it with its noise channel
one product at a time, and copied rho twice per op.
:func:`repro.sim.run_density_matrix` builds each distinct superoperator
once per call (every rotation's in one stacked product) and copies rho
once per op.  Its full matrix must equal the loop's bit for bit,
compared as ``uint64`` words so that even the signs of zeros match: on
random circuits over every gate in ``GATE_ARITY`` (``i`` included),
1-6 qubits, with rates and damping drawn from 0, (0, 1) and 1.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ansatz import EfficientSU2
from repro.circuits import Circuit, gate_matrix
from repro.sim import DensityMatrix, run_density_matrix

from . import density_loop_reference
from .test_density_oracle import gate_set_circuits

_RATES = st.one_of(
    st.just(0.0),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.just(1.0),
)


def assert_bitwise(qc, error_1q, error_2q, damping):
    new = run_density_matrix(qc, error_1q, error_2q, damping).matrix
    old = density_loop_reference.loop_run_density_matrix(
        qc, error_1q, error_2q, damping
    ).matrix
    assert new.shape == old.shape
    assert np.array_equal(new.view(np.uint64), old.view(np.uint64))


@given(gate_set_circuits(), _RATES, _RATES, _RATES)
@settings(max_examples=200, deadline=None)
def test_random_circuits_match_the_frozen_loop(
    qc, error_1q, error_2q, damping
):
    assert_bitwise(qc, error_1q, error_2q, damping)


@pytest.mark.parametrize("entanglement", ["full", "linear"])
def test_benchmark_ansatz_matches_the_frozen_loop(entanglement):
    """The density benchmark's circuit: 6 qubits, 66 ops when full."""
    ansatz = EfficientSU2(6, reps=2, entanglement=entanglement)
    rng = np.random.default_rng(11)
    bound = ansatz.bind(rng.uniform(-np.pi, np.pi, ansatz.num_parameters))
    assert_bitwise(bound, 1e-3, 1e-2, 0.0)
    assert_bitwise(bound, 1e-3, 1e-2, 0.05)


def test_alternating_qubits_on_two_qubits():
    """On two qubits, consecutive ops on different qubits leave a tensor
    whose next GEMM operand is a strided view, not a fresh copy."""
    qc = Circuit(2)
    for q in (0, 1, 0, 1):
        qc.h(q)
        qc.rx(0.3 + q, q)
    qc.cx(1, 0)
    qc.append("i", 0)
    qc.ry(-1.1, 1)
    assert_bitwise(qc, 0.02, 0.1, 0.3)


def test_matrix_reads_do_not_change_evolution():
    """Reading ``matrix`` mid-evolution keeps it as a contiguous copy;
    later ops and reads see the same numbers."""
    qc = Circuit(3)
    qc.h(0)
    qc.cx(0, 2)
    qc.rz(0.7, 1)
    rho = run_density_matrix(qc, 0.01, 0.05, 0.1)
    first = rho.matrix.copy()
    assert rho.matrix.flags.c_contiguous
    assert np.array_equal(rho.matrix, first)
    superop = density_loop_reference._superop([gate_matrix("ry", 0.4)])
    rho._evolve(superop, (1,))
    frozen = density_loop_reference.LoopDensityMatrix(first)
    frozen._evolve(superop, (1,))
    assert np.array_equal(
        rho.matrix.view(np.uint64), frozen.matrix.view(np.uint64)
    )


def test_constructor_matrix_reads_back_unchanged():
    rng = np.random.default_rng(3)
    start = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = DensityMatrix(start)
    assert rho.n_qubits == 3
    assert np.array_equal(rho.matrix, start)
