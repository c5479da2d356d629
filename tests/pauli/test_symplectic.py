"""Unit tests for the symplectic Pauli representation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pauli import PauliString, PauliTable, decode, encode


class TestEncodeDecode:
    @pytest.mark.parametrize("label", ["I", "X", "Y", "Z", "XYZI", "ZZXY"])
    def test_roundtrip(self, label):
        x, z = encode(PauliString(label))
        assert decode(x, z) == PauliString(label)

    def test_encoding_convention(self):
        x, z = encode(PauliString("XYZI"))
        assert list(x) == [True, True, False, False]
        assert list(z) == [False, True, True, False]

    def test_decode_shape_mismatch(self):
        with pytest.raises(ValueError):
            decode(np.zeros(2, dtype=bool), np.zeros(3, dtype=bool))


class TestPauliTable:
    LABELS = ["ZZIZ", "ZIZX", "ZXXZ", "XZIZ", "IXZZ", "XIZZ", "XXIX", "IIII"]

    def make(self):
        return PauliTable.from_strings(self.LABELS)

    def test_roundtrip(self):
        table = self.make()
        assert [str(p) for p in table.to_strings()] == self.LABELS

    def test_shape(self):
        table = self.make()
        assert len(table) == 8
        assert table.n_qubits == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PauliTable.from_strings([])

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PauliTable.from_strings(["XX", "X"])

    def test_commutes_with_matches_strings(self):
        table = self.make()
        for other in ["ZZZZ", "XXXX", "XYZI", "IIZX"]:
            other_p = PauliString(other)
            expected = [
                PauliString(l).commutes_with(other_p) for l in self.LABELS
            ]
            assert list(table.commutes_with(other_p)) == expected

    def test_large_batch_performance_shape(self):
        """34-qubit, 1000-row batch processes without issue."""
        rng = np.random.default_rng(0)
        x = rng.random((1000, 34)) < 0.2
        z = rng.random((1000, 34)) < 0.2
        table = PauliTable(x, z)
        flags = table.commutes_with(PauliString("Z" * 34))
        assert flags.shape == (1000,)


@st.composite
def label_pairs(draw):
    """Two equal-width labels of 1-70 qubits (past the 64-bit boundary)."""
    n = draw(st.integers(1, 70))
    alphabet = draw(st.sampled_from(["IXYZ", "IZ", "XY", "IIIY"]))
    label = st.text(alphabet=alphabet, min_size=n, max_size=n)
    return draw(label), draw(label)


class TestMasksAgainstTable:
    """``PauliString``'s mask predicates vs bool ones over ``encode``."""

    @settings(max_examples=300, deadline=None)
    @given(label_pairs())
    def test_structure_follows_the_label(self, pair):
        label = pair[0]
        p = PauliString(label)
        n = len(label)
        assert p.x_mask == sum(
            1 << (n - 1 - q) for q, c in enumerate(label) if c in "XY"
        )
        assert p.z_mask == sum(
            1 << (n - 1 - q) for q, c in enumerate(label) if c in "ZY"
        )
        support = tuple(q for q, c in enumerate(label) if c != "I")
        assert p.support == support
        assert p.weight == len(support)
        assert p.is_identity() == (not support)
        x, z = encode(p)
        assert list(x) == [c in "XY" for c in label]
        assert list(z) == [c in "ZY" for c in label]

    @settings(max_examples=300, deadline=None)
    @given(label_pairs())
    def test_predicates_match_the_table(self, pair):
        a, b = (PauliString(label) for label in pair)
        table = PauliTable.from_strings([a])
        assert a.commutes_with(b) == bool(table.commutes_with(b)[0])
        (ax, az), (bx, bz) = encode(a), encode(b)
        support = ax | az
        # Qubit-wise: no site where both act and differ in (x, z).
        conflicts = support & (bx | bz) & ((ax ^ bx) | (az ^ bz))
        assert a.qubit_wise_commutes(b) == (not conflicts.any())
        # Measurable: b matches a exactly on a's support.
        mismatch = support & ~((ax == bx) & (az == bz))
        assert a.can_be_measured_by(b) == (not mismatch.any())
        assert a.weight == int(support.sum())


def _per_qubit_signs(n: int, support: tuple[int, ...]) -> np.ndarray:
    """The original sign vector: one ``1 - 2 * bit`` factor per qubit."""
    signs = np.ones(2**n)
    indices = np.arange(2**n)
    for q in support:
        bit = (indices >> (n - 1 - q)) & 1
        signs = signs * (1 - 2 * bit)
    return signs


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 10).flatmap(
        lambda n: st.text(alphabet="IXYZ", min_size=n, max_size=n)
    ),
    st.integers(0, 2**32 - 1),
)
def test_expectation_is_the_per_qubit_sign_dot_product(label, seed):
    p = PauliString(label)
    probs = np.random.default_rng(seed).random(2 ** len(label))
    probs /= probs.sum()
    expected = (
        1.0 if p.is_identity()
        else float(np.dot(_per_qubit_signs(len(label), p.support), probs))
    )
    assert p.expectation_from_probs(probs).hex() == expected.hex()
