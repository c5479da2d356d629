"""Unit tests for exact diagonalization."""

import numpy as np
import pytest

from repro.hamiltonian import (
    Hamiltonian,
    build_hamiltonian,
    ground_state,
    ground_state_energy,
    tfim_hamiltonian,
)


class TestGroundState:
    def test_single_z(self):
        energy, state = ground_state(Hamiltonian([(1.0, "Z")]))
        assert energy == pytest.approx(-1.0)
        assert abs(state[1]) == pytest.approx(1.0)

    def test_x_ground_state_is_minus(self):
        energy, state = ground_state(Hamiltonian([(1.0, "X")]))
        assert energy == pytest.approx(-1.0)
        # |-> has equal magnitude, opposite sign amplitudes.
        assert abs(abs(state[0]) - abs(state[1])) < 1e-9

    def test_eigsh_path_for_larger_systems(self):
        """> 6 qubits goes through sparse Lanczos; compare to dense."""
        ham = tfim_hamiltonian(7, coupling=1.0, field=0.5)
        sparse_energy = ground_state_energy(ham)
        dense = np.linalg.eigvalsh(ham.to_sparse_matrix().toarray())
        assert sparse_energy == pytest.approx(float(dense[0]), abs=1e-8)

    def test_eigsh_path_is_reproducible(self):
        """The Lanczos start vector is seeded, so repeated calls agree.

        Left to ARPACK, it comes from fresh OS entropy and the
        eigenvalue's last bits change from call to call.
        """
        ham = build_hamiltonian("H6-10")
        energies = [ground_state_energy(ham) for _ in range(3)]
        assert len({e.hex() for e in energies}) == 1
        dense = np.linalg.eigvalsh(ham.to_sparse_matrix().toarray())
        assert abs(energies[0] - float(dense[0])) < 1e-10

    def test_tfim_exact_limits(self):
        # Zero field: classical Ising chain, ground energy -(n-1)*J.
        ham = tfim_hamiltonian(4, coupling=1.0, field=0.0)
        assert ground_state_energy(ham) == pytest.approx(-3.0)
        # Zero coupling: n independent spins in X field, energy -n*h.
        ham = tfim_hamiltonian(4, coupling=0.0, field=1.0)
        assert ground_state_energy(ham) == pytest.approx(-4.0)

    def test_energy_is_variational_lower_bound(self, h2):
        """No statevector can beat the exact ground energy."""
        rng = np.random.default_rng(0)
        e0 = ground_state_energy(h2)
        for _ in range(5):
            psi = rng.normal(size=16) + 1j * rng.normal(size=16)
            psi /= np.linalg.norm(psi)
            assert h2.expectation_exact(psi) >= e0 - 1e-9
