"""Unit tests for sliding-window subset generation."""

import pytest

from repro.mitigation import sliding_windows
from repro.mitigation.subsets import count_term_subsets
from repro.pauli import PauliString

from .subsets_reference import term_subsets


class TestSlidingWindows:
    def test_window_2_of_4(self):
        assert sliding_windows(4, 2) == [(0, 1), (1, 2), (2, 3)]

    def test_window_covering_everything(self):
        assert sliding_windows(3, 3) == [(0, 1, 2)]
        assert sliding_windows(3, 5) == [(0, 1, 2)]

    def test_window_1(self):
        assert sliding_windows(3, 1) == [(0,), (1,), (2,)]

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            sliding_windows(3, 0)


class TestTermSubsets:
    def test_fig6_zziz(self):
        """'ZZIZ' -> ZZ--, -ZI-, --IZ (Fig. 6 Eq. 3, first row)."""
        subsets = term_subsets(PauliString("ZZIZ"), 2)
        assert [s.label for s in subsets] == ["ZZII", "IZII", "IIIZ"]

    def test_all_i_windows_weeded(self):
        """'ZZII' keeps 2 windows: (2,3) is all-I and is dropped."""
        subsets = term_subsets(PauliString("ZZII"), 2)
        assert len(subsets) == 2

    def test_identity_term_has_no_subsets(self):
        assert term_subsets(PauliString("IIII"), 2) == []

    def test_count_matches_list(self):
        for label in ["ZZIZ", "ZZII", "IIII", "XIXI", "ZXXZ", "IIIX"]:
            term = PauliString(label)
            assert count_term_subsets(term, 2) == len(term_subsets(term, 2))

    def test_count_wide_window(self):
        assert count_term_subsets(PauliString("ZZ"), 5) == 1
        assert count_term_subsets(PauliString("II"), 5) == 0
