"""Unit tests for PauliString."""

import copy
import pickle

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.pauli import PauliString
from repro.sim import probabilities, run_statevector


class TestConstruction:
    def test_uppercases(self):
        assert PauliString("xyz").label == "XYZ"

    def test_invalid_chars(self):
        with pytest.raises(ValueError):
            PauliString("XQ")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PauliString("")

    def test_immutable(self):
        p = PauliString("XZ")
        with pytest.raises(AttributeError):
            p.label = "ZZ"

    def test_identity_constructor(self):
        assert PauliString.identity(3).label == "III"

    def test_from_sparse(self):
        p = PauliString.from_sparse(4, {0: "Z", 2: "X"})
        assert p.label == "ZIXI"

    def test_from_sparse_out_of_range(self):
        with pytest.raises(ValueError):
            PauliString.from_sparse(2, {5: "Z"})

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_keep_label_and_masks(self, clone):
        p = PauliString("XIYZ")
        q = clone(p)
        assert q == p and hash(q) == hash(p)
        assert (q.x_mask, q.z_mask, q.support) == (0b1010, 0b0011, (0, 2, 3))


class TestStructure:
    def test_support_and_weight(self):
        p = PauliString("IZXI")
        assert p.support == (1, 2)
        assert p.weight == 2

    def test_is_identity(self):
        assert PauliString("II").is_identity()
        assert not PauliString("IZ").is_identity()

    def test_sparse(self):
        assert PauliString("ZIX").sparse() == {0: "Z", 2: "X"}

    def test_restricted_to(self):
        assert PauliString("ZXYZ").restricted_to([1, 2]).label == "IXYI"

    def test_indexing(self):
        assert PauliString("ZX")[1] == "X"


class TestCommutation:
    def test_full_commutation_xx_zz(self):
        # XX and ZZ anticommute at both sites -> commute overall.
        assert PauliString("XX").commutes_with(PauliString("ZZ"))

    def test_full_anticommutation_xz(self):
        assert not PauliString("XI").commutes_with(PauliString("ZI"))

    def test_qwc_requires_sitewise_agreement(self):
        assert PauliString("ZI").qubit_wise_commutes(PauliString("ZZ"))
        assert not PauliString("XX").qubit_wise_commutes(PauliString("ZZ"))

    def test_qwc_implies_commutation(self):
        a, b = PauliString("ZIX"), PauliString("ZZX")
        assert a.qubit_wise_commutes(b)
        assert a.commutes_with(b)

    def test_measured_by_direction(self):
        # 'IZZ' can be measured by 'ZZZ' but not vice versa (Fig. 7).
        assert PauliString("IZZ").can_be_measured_by(PauliString("ZZZ"))
        assert not PauliString("ZZZ").can_be_measured_by(PauliString("IZZ"))

    def test_identity_measured_by_anything(self):
        assert PauliString("II").can_be_measured_by(PauliString("XZ"))

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            PauliString("X").commutes_with(PauliString("XX"))


class TestMatrixAndExpectation:
    def test_matrix_of_z(self):
        assert np.allclose(PauliString("Z").to_matrix(), np.diag([1, -1]))

    def test_matrix_kron_order(self):
        # 'ZX' = Z (qubit 0, MSB) kron X (qubit 1, LSB).
        zx = PauliString("ZX").to_matrix()
        expected = np.kron(np.diag([1, -1]), np.array([[0, 1], [1, 0]]))
        assert np.allclose(zx, expected)

    def test_expectation_identity_is_one(self):
        probs = np.array([0.25] * 4)
        assert PauliString("II").expectation_from_probs(probs) == 1.0

    def test_expectation_z_on_zero_state(self):
        probs = np.array([1.0, 0.0])
        assert PauliString("Z").expectation_from_probs(probs) == 1.0

    def test_expectation_z_on_one_state(self):
        probs = np.array([0.0, 1.0])
        assert PauliString("Z").expectation_from_probs(probs) == -1.0

    def test_expectation_zz_correlated(self):
        probs = np.array([0.5, 0.0, 0.0, 0.5])  # p(00)=p(11)=1/2
        assert PauliString("ZZ").expectation_from_probs(probs) == 1.0

    def test_expectation_wrong_length(self):
        with pytest.raises(ValueError):
            PauliString("ZZ").expectation_from_probs(np.array([1.0, 0.0]))

    def test_expectation_matches_matrix_element(self):
        """Sampling in the rotated basis reproduces <psi|P|psi> exactly."""
        circuits = Circuit(2)
        circuits.ry(0.73, 0)
        circuits.cx(0, 1)
        circuits.rz(0.31, 1)
        state = run_statevector(circuits)
        for label in ["ZZ", "XX", "YY", "XZ", "ZX", "XI", "IY"]:
            pauli = PauliString(label)
            exact = np.vdot(state, pauli.to_matrix() @ state).real
            rotated = run_statevector(
                pauli.basis_rotation(), initial_state=state
            )
            sampled = pauli.expectation_from_probs(probabilities(rotated))
            assert sampled == pytest.approx(exact, abs=1e-10)


class TestBasisRotation:
    def test_z_positions_get_no_gates(self):
        qc = PauliString("ZIZ").basis_rotation()
        assert len(qc) == 0

    def test_x_gets_hadamard(self):
        qc = PauliString("XI").basis_rotation()
        assert [ins.name for ins in qc.instructions] == ["h"]
        assert qc.instructions[0].qubits == (0,)

    def test_y_gets_sdg_h(self):
        qc = PauliString("IY").basis_rotation()
        assert [ins.name for ins in qc.instructions] == ["sdg", "h"]

    def test_width_override_mismatch(self):
        with pytest.raises(ValueError):
            PauliString("X").basis_rotation(3)


class TestPlumbing:
    def test_equality_with_string(self):
        assert PauliString("XZ") == "xz"

    def test_hash_dedupe(self):
        assert len({PauliString("XZ"), PauliString("XZ")}) == 1

    def test_ordering(self):
        assert PauliString("IX") < PauliString("XZ")

    def test_str(self):
        assert str(PauliString("ZZ")) == "ZZ"
