"""Property-based tests for Pauli algebra invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pauli import PauliString

from ..pauli.algebra_reference import phase_product

pauli_labels = st.text(alphabet="IXYZ", min_size=1, max_size=6)


def pauli_pairs(max_size=6):
    return st.integers(min_value=1, max_value=max_size).flatmap(
        lambda n: st.tuples(
            st.text(alphabet="IXYZ", min_size=n, max_size=n),
            st.text(alphabet="IXYZ", min_size=n, max_size=n),
        )
    )


class TestCommutationProperties:
    @given(pauli_pairs())
    def test_commutation_symmetric(self, pair):
        a, b = PauliString(pair[0]), PauliString(pair[1])
        assert a.commutes_with(b) == b.commutes_with(a)

    @given(pauli_pairs())
    def test_qwc_symmetric(self, pair):
        a, b = PauliString(pair[0]), PauliString(pair[1])
        assert a.qubit_wise_commutes(b) == b.qubit_wise_commutes(a)

    @given(pauli_pairs())
    def test_qwc_implies_full_commutation(self, pair):
        a, b = PauliString(pair[0]), PauliString(pair[1])
        if a.qubit_wise_commutes(b):
            assert a.commutes_with(b)

    @given(pauli_labels)
    def test_self_commutation(self, label):
        p = PauliString(label)
        assert p.commutes_with(p)
        assert p.qubit_wise_commutes(p)
        assert p.can_be_measured_by(p)

    @given(pauli_pairs())
    def test_measured_by_implies_qwc(self, pair):
        a, b = PauliString(pair[0]), PauliString(pair[1])
        if a.can_be_measured_by(b):
            assert a.qubit_wise_commutes(b)

    @given(pauli_pairs(max_size=4))
    @settings(max_examples=60)
    def test_commutation_matches_matrices(self, pair):
        a, b = PauliString(pair[0]), PauliString(pair[1])
        ma, mb = a.to_matrix(), b.to_matrix()
        assert a.commutes_with(b) == np.allclose(ma @ mb, mb @ ma)


class TestProductProperties:
    @given(pauli_pairs(max_size=4))
    @settings(max_examples=60)
    def test_product_matches_matrices(self, pair):
        a, b = PauliString(pair[0]), PauliString(pair[1])
        phase, c = phase_product(a, b)
        assert np.allclose(
            a.to_matrix() @ b.to_matrix(), phase * c.to_matrix()
        )

    @given(pauli_labels)
    def test_identity_is_neutral(self, label):
        p = PauliString(label)
        identity = PauliString.identity(p.n_qubits)
        assert phase_product(identity, p) == (1, p)
        assert phase_product(p, identity) == (1, p)

    @given(pauli_labels)
    def test_involution(self, label):
        p = PauliString(label)
        phase, c = phase_product(p, p)
        assert phase == 1 and c.is_identity()


class TestStructureProperties:
    @given(pauli_labels)
    def test_sparse_roundtrip(self, label):
        p = PauliString(label)
        assert PauliString.from_sparse(p.n_qubits, p.sparse()) == p

    @given(pauli_labels)
    def test_weight_equals_support_size(self, label):
        p = PauliString(label)
        assert p.weight == len(p.support) <= p.n_qubits

    @given(pauli_labels, st.data())
    def test_restriction_is_measured_by_original(self, label, data):
        p = PauliString(label)
        positions = data.draw(
            st.sets(
                st.integers(0, p.n_qubits - 1), max_size=p.n_qubits
            )
        )
        restricted = p.restricted_to(positions)
        assert restricted.can_be_measured_by(
            PauliString(
                "".join(c if c != "I" else "Z" for c in p.label)
            )
        )
        assert set(restricted.support) <= set(p.support)
