"""Unit tests for the Hamiltonian container."""

import copy
import pickle

import numpy as np
import pytest

from repro.hamiltonian import (
    Hamiltonian,
    build_hamiltonian,
    ground_state_energy,
)
from repro.pauli import PauliString


class TestConstruction:
    def test_merges_duplicate_terms(self):
        ham = Hamiltonian([(1.0, "ZZ"), (0.5, "ZZ")])
        assert ham.num_terms == 1
        assert ham.terms[0][0] == 1.5

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Hamiltonian([(1.0, "ZZ"), (1.0, "Z")])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Hamiltonian([])

    def test_identity_coefficient(self):
        ham = Hamiltonian([(2.5, "II"), (1.0, "ZZ")])
        assert ham.identity_coefficient == 2.5

    def test_non_identity_terms(self):
        ham = Hamiltonian([(2.5, "II"), (1.0, "ZZ")])
        assert ham.non_identity_terms() == [(1.0, PauliString("ZZ"))]

    @pytest.mark.parametrize(
        "clone",
        [copy.deepcopy, lambda h: pickle.loads(pickle.dumps(h))],
        ids=["deepcopy", "pickle"],
    )
    def test_copies_keep_terms_and_masks(self, clone):
        ham = build_hamiltonian("LiH-6")
        twin = clone(ham)
        assert twin.terms == ham.terms
        assert [(p.x_mask, p.z_mask) for _, p in twin.terms] == [
            (p.x_mask, p.z_mask) for _, p in ham.terms
        ]
        assert twin.identity_coefficient == ham.identity_coefficient

    def test_shifted_moves_spectrum(self):
        ham = Hamiltonian([(1.0, "Z")])
        shifted = ham.shifted(10.0)
        assert ground_state_energy(shifted) == pytest.approx(
            ground_state_energy(ham) + 10.0
        )


class TestMatrix:
    def test_z_matrix(self):
        ham = Hamiltonian([(2.0, "Z")])
        assert np.allclose(
            ham.to_sparse_matrix().toarray(), np.diag([2.0, -2.0])
        )

    def test_sum_of_terms(self):
        ham = Hamiltonian([(1.0, "X"), (1.0, "Z")])
        expected = np.array([[1, 1], [1, -1]], dtype=complex)
        assert np.allclose(ham.to_sparse_matrix().toarray(), expected)

    def test_refuses_huge_matrices(self):
        ham = Hamiltonian([(1.0, "Z" * 20)])
        with pytest.raises(ValueError):
            ham.to_sparse_matrix()

    def test_expectation_exact(self):
        ham = Hamiltonian([(1.0, "Z")])
        plus = np.array([1, 1]) / np.sqrt(2)
        assert ham.expectation_exact(plus) == pytest.approx(0.0)
        zero = np.array([1, 0], dtype=complex)
        assert ham.expectation_exact(zero) == pytest.approx(1.0)


class TestGrouping:
    def test_groups_cover_all_terms(self, fig6_hamiltonian):
        groups = fig6_hamiltonian.measurement_groups()
        members = [m for g in groups for m in g.members]
        assert len(members) == fig6_hamiltonian.num_terms  # no identity here

    def test_groups_cached(self, fig6_hamiltonian):
        assert (
            fig6_hamiltonian.measurement_groups()
            is fig6_hamiltonian.measurement_groups()
        )

    def test_fig6_count(self, fig6_hamiltonian):
        assert len(fig6_hamiltonian.measurement_groups()) == 7
