"""Property-based tests for the Clifford substrate.

The tableau is the sign-critical piece of general-commutation
measurement, so its algebraic laws get hypothesis coverage: conjugation
must be a group homomorphism, preserve commutation structure, compose,
and invert.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import Circuit
from repro.clifford import CliffordTableau, diagonalize_commuting
from repro.pauli import PauliString

from ..pauli.algebra_reference import phase_product

GATES_1Q = ("h", "s", "sdg", "x", "y", "z", "sx")
GATES_2Q = ("cx", "cz", "swap")


@st.composite
def clifford_circuits(draw, max_qubits=4, max_gates=15):
    n = draw(st.integers(min_value=1, max_value=max_qubits))
    qc = Circuit(n)
    n_gates = draw(st.integers(min_value=0, max_value=max_gates))
    for _ in range(n_gates):
        if n >= 2 and draw(st.booleans()):
            name = draw(st.sampled_from(GATES_2Q))
            a = draw(st.integers(min_value=0, max_value=n - 1))
            b = draw(
                st.integers(min_value=0, max_value=n - 2).map(
                    lambda v, a=a: v if v < a else v + 1
                )
            )
            getattr(qc, name)(a, b)
        else:
            name = draw(st.sampled_from(GATES_1Q))
            getattr(qc, name)(draw(st.integers(min_value=0, max_value=n - 1)))
    return qc


def pauli_for(draw, n):
    label = draw(st.text(alphabet="IXYZ", min_size=n, max_size=n))
    return PauliString(label)


@st.composite
def circuit_and_paulis(draw, k=2):
    qc = draw(clifford_circuits())
    paulis = [pauli_for(draw, qc.n_qubits) for _ in range(k)]
    return qc, paulis


class TestConjugationLaws:
    @given(circuit_and_paulis(k=1))
    @settings(max_examples=60)
    def test_weight_of_sign_is_plus_minus_one(self, case):
        qc, (pauli,) = case
        sign, image = CliffordTableau.from_circuit(qc).conjugate(pauli)
        assert sign in (1, -1)
        assert image.n_qubits == qc.n_qubits

    @given(circuit_and_paulis(k=2))
    @settings(max_examples=60)
    def test_conjugation_is_homomorphism(self, case):
        """U (PQ) U† == (U P U†)(U Q U†), phases included."""
        qc, (p, q) = case
        tab = CliffordTableau.from_circuit(qc)
        phase_pq, pq = phase_product(p, q)
        sp, ip = tab.conjugate(p)
        sq, iq = tab.conjugate(q)
        phase_img, img = phase_product(ip, iq)
        s_pq, i_pq = tab.conjugate(pq)
        assert i_pq.label == img.label
        # total phase of LHS: phase_pq * s_pq; of RHS: sp * sq * phase_img
        assert phase_pq * s_pq == sp * sq * phase_img

    @given(circuit_and_paulis(k=2))
    @settings(max_examples=60)
    def test_conjugation_preserves_commutation(self, case):
        qc, (p, q) = case
        tab = CliffordTableau.from_circuit(qc)
        _, ip = tab.conjugate(p)
        _, iq = tab.conjugate(q)
        assert p.commutes_with(q) == ip.commutes_with(iq)

    @given(circuit_and_paulis(k=1))
    @settings(max_examples=60)
    def test_conjugation_preserves_weight_of_identity(self, case):
        qc, (pauli,) = case
        tab = CliffordTableau.from_circuit(qc)
        identity = PauliString.identity(qc.n_qubits)
        sign, image = tab.conjugate(identity)
        assert sign == 1
        assert image == identity
        # and non-identities never map to identity (Cliffords are injective)
        if pauli != identity:
            _, img = tab.conjugate(pauli)
            assert img != identity


class TestGroupStructure:
    @given(clifford_circuits())
    @settings(max_examples=40)
    def test_inverse_roundtrip(self, qc):
        tab = CliffordTableau.from_circuit(qc)
        assert tab.then(tab.inverse()).is_identity()
        assert tab.inverse().then(tab).is_identity()

    @given(clifford_circuits())
    @settings(max_examples=40)
    def test_double_inverse_is_self(self, qc):
        tab = CliffordTableau.from_circuit(qc)
        assert tab.inverse().inverse() == tab


class TestDiagonalizationProperties:
    @given(clifford_circuits(max_qubits=4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_scrambled_z_families_diagonalize(self, qc, data):
        """Conjugated Z-families always commute and always diagonalize."""
        n = qc.n_qubits
        tab = CliffordTableau.from_circuit(qc)
        k = data.draw(st.integers(min_value=1, max_value=3))
        family = []
        for _ in range(k):
            mask = data.draw(
                st.lists(
                    st.booleans(), min_size=n, max_size=n
                ).filter(any)
            )
            label = "".join("Z" if b else "I" for b in mask)
            _, image = tab.conjugate(PauliString(label))
            family.append(image)
        group = diagonalize_commuting(family, n)
        for sign, image in group.diagonals:
            assert sign in (1, -1)
            assert set(image.label) <= {"I", "Z"}

    @given(clifford_circuits(max_qubits=4), st.data())
    @settings(max_examples=30, deadline=None)
    def test_diagonal_images_preserve_products(self, qc, data):
        """Products of members map to products of diagonal images."""
        n = qc.n_qubits
        tab = CliffordTableau.from_circuit(qc)
        masks = [
            data.draw(
                st.lists(st.booleans(), min_size=n, max_size=n).filter(any)
            )
            for _ in range(2)
        ]
        family = []
        for mask in masks:
            label = "".join("Z" if b else "I" for b in mask)
            _, image = tab.conjugate(PauliString(label))
            family.append(image)
        group = diagonalize_commuting(family, n)
        (s0, d0), (s1, d1) = group.diagonals
        phase_in, prod_in = phase_product(family[0], family[1])
        phase_out, prod_out = phase_product(d0, d1)
        meas = CliffordTableau.from_circuit(group.circuit)
        s_prod, img_prod = meas.conjugate(prod_in)
        assert img_prod.label == prod_out.label
        assert phase_in * s_prod == s0 * s1 * phase_out
