"""Unit tests for Pauli products: checked against dense matrices."""

import itertools

import numpy as np
import pytest

from repro.pauli import PauliString

from .algebra_reference import phase_product


class TestPhaseProduct:
    @pytest.mark.parametrize(
        "a,b", list(itertools.product("IXYZ", repeat=2))
    )
    def test_single_qubit_table_matches_matrices(self, a, b):
        pa, pb = PauliString(a), PauliString(b)
        phase, c = phase_product(pa, pb)
        assert np.allclose(
            pa.to_matrix() @ pb.to_matrix(), phase * c.to_matrix()
        )

    def test_multi_qubit_product(self):
        a = PauliString("XYZI")
        b = PauliString("ZZXY")
        phase, c = phase_product(a, b)
        assert np.allclose(
            a.to_matrix() @ b.to_matrix(), phase * c.to_matrix()
        )

    def test_self_product_is_identity(self):
        p = PauliString("XYZ")
        phase, c = phase_product(p, p)
        assert phase == 1 and c.is_identity()

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            phase_product(PauliString("X"), PauliString("XX"))

    def test_commutator_consistency(self):
        """commutes_with agrees with the matrix commutator for samples."""
        samples = ["XXZ", "ZIY", "YYX", "IZZ", "XYZ", "ZZZ"]
        for la, lb in itertools.product(samples, repeat=2):
            a, b = PauliString(la), PauliString(lb)
            ma, mb = a.to_matrix(), b.to_matrix()
            commutes = np.allclose(ma @ mb, mb @ ma)
            assert a.commutes_with(b) == commutes
