"""Unit tests for the commutation graph's arrows (Fig. 7)."""

from repro.pauli import PauliString, all_strings, measuring_parents


class TestAllStrings:
    def test_count_27_for_3q_ixz(self):
        assert len(all_strings(3, "IXZ")) == 27

    def test_count_full_alphabet(self):
        assert len(all_strings(2, "IXYZ")) == 16

    def test_unique(self):
        strings = all_strings(3, "IXZ")
        assert len(set(strings)) == len(strings)


class TestFig7ArrowCounts:
    """The arrow counts the paper quotes in Fig. 7's caption."""

    def setup_method(self):
        self.universe = all_strings(3, "IXZ")

    def test_iii_has_26_parents(self):
        assert len(measuring_parents(PauliString("III"), self.universe)) == 26

    def test_iiz_has_8_parents(self):
        assert len(measuring_parents(PauliString("IIZ"), self.universe)) == 8

    def test_izz_has_2_parents(self):
        parents = measuring_parents(PauliString("IZZ"), self.universe)
        assert sorted(str(p) for p in parents) == ["XZZ", "ZZZ"]

    def test_zzz_has_no_parents(self):
        assert measuring_parents(PauliString("ZZZ"), self.universe) == []


class TestDigraph:
    def test_more_identities_more_parents(self):
        """I-heavy strings have larger commuting families (Section 3.2)."""
        universe = all_strings(3, "IXZ")
        parents_of = {
            str(p): len(measuring_parents(p, universe)) for p in universe
        }
        assert parents_of["IIX"] > parents_of["IXX"] > parents_of["XXX"]
