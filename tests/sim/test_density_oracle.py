"""Differential oracle: superoperator density evolution vs kron embedding.

:mod:`tests.sim.kron_reference` freezes the original evolution, which
kron-embeds every gate and Kraus operator into a full-register matrix.
The axis-contraction rewrite in :mod:`repro.sim.density` must reproduce
its *full* density matrix, coherences included, within 1e-12: on random
circuits over every gate in ``GATE_ARITY`` (identity instructions too),
1-6 qubits, with 1q/2q depolarizing and amplitude damping.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import GATE_ARITY, ROTATION_GATES, Circuit
from repro.sim import DensityMatrix, depolarizing_kraus, run_density_matrix
from repro.sim.density import _depolarizing

from . import kron_reference

TOLERANCE = 1e-12

_ANGLES = st.floats(-6.3, 6.3, allow_nan=False, allow_infinity=False)
_RATES = st.one_of(st.just(0.0), st.floats(0.0, 1.0))


@st.composite
def gate_set_circuits(draw, max_qubits=6, max_gates=12):
    """A random circuit over every gate in :data:`GATE_ARITY`."""
    n_qubits = draw(st.integers(1, max_qubits))
    names = sorted(n for n, arity in GATE_ARITY.items() if arity <= n_qubits)
    qc = Circuit(n_qubits)
    for _ in range(draw(st.integers(0, max_gates))):
        name = draw(st.sampled_from(names))
        qubits = draw(
            st.permutations(range(n_qubits)).map(
                lambda p, k=GATE_ARITY[name]: tuple(p[:k])
            )
        )
        param = draw(_ANGLES) if name in ROTATION_GATES else None
        qc.append(name, qubits, param)
    return qc


def assert_matches_oracle(qc, error_1q, error_2q, damping):
    new = run_density_matrix(qc, error_1q, error_2q, damping).matrix
    old = kron_reference.kron_run_density_matrix(
        qc, error_1q, error_2q, damping
    ).matrix
    assert np.max(np.abs(new - old)) <= TOLERANCE


def random_mixed_state(n_qubits: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    dim = 2**n_qubits
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


class TestKronOracle:
    @pytest.mark.parametrize("n_qubits", range(1, 7))
    def test_every_gate_at_every_width(self, n_qubits):
        """Each gate (``i`` included) twice on seeded random qubits."""
        rng = np.random.default_rng(n_qubits)
        qc = Circuit(n_qubits)
        for name in sorted(GATE_ARITY) * 2:
            arity = GATE_ARITY[name]
            if arity > n_qubits:
                continue
            qubits = tuple(int(q) for q in rng.permutation(n_qubits)[:arity])
            param = rng.uniform(-np.pi, np.pi)
            qc.append(name, qubits, param if name in ROTATION_GATES else None)
        assert_matches_oracle(qc, 0.01, 0.05, 0.1)

    @given(gate_set_circuits(), _RATES, _RATES, _RATES)
    @settings(max_examples=100, deadline=None)
    def test_random_circuits_and_rates(self, qc, error_1q, error_2q, damping):
        assert_matches_oracle(qc, error_1q, error_2q, damping)

    def test_identity_instructions_still_get_noise(self):
        qc = Circuit(2)
        qc.h(0)
        qc.append("i", 1)
        noisy = run_density_matrix(qc, gate_error_1q=0.2)
        plain = run_density_matrix(qc)
        assert not np.allclose(noisy.matrix, plain.matrix)
        assert_matches_oracle(qc, 0.2, 0.0, 0.3)


class TestClosedFormDepolarizing:
    @pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 1.0])
    @pytest.mark.parametrize("qubit", [0, 1, 2])
    def test_equals_the_kraus_channel(self, p, qubit):
        start = random_mixed_state(3, seed=qubit)
        closed = DensityMatrix(start)
        closed._evolve(_depolarizing(p), (qubit,))
        kraus = DensityMatrix(start)
        kraus.apply_channel(depolarizing_kraus(p), qubit)
        frozen = kron_reference.KronDensityMatrix(start)
        frozen.apply_channel(kron_reference.depolarizing_kraus(p), qubit)
        assert np.max(np.abs(closed.matrix - kraus.matrix)) <= TOLERANCE
        assert np.max(np.abs(closed.matrix - frozen.matrix)) <= TOLERANCE

    def test_full_depolarizing_leaves_a_maximally_mixed_qubit(self):
        start = random_mixed_state(2, seed=5)
        rho = DensityMatrix(start)
        rho._evolve(_depolarizing(1.0), (0,))
        # Qubit 1's reduced state: trace qubit 0 out of rho[a b, c d].
        rest = np.einsum("abad->bd", start.reshape(2, 2, 2, 2))
        assert np.allclose(rho.matrix, np.kron(np.eye(2) / 2, rest))
