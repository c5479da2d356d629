"""Unit tests for QWC grouping and the paper's trivial cover reduction."""

import pytest

from repro.pauli import (
    MeasurementGroup,
    PauliString,
    cover_reduce,
    group_qwc,
)


class TestMeasurementGroup:
    def test_accepts_compatible(self):
        group = MeasurementGroup(3)
        group.add(PauliString("ZIZ"))
        assert group.accepts(PauliString("ZZI"))
        assert not group.accepts(PauliString("XII"))

    def test_add_conflict_raises(self):
        group = MeasurementGroup(2)
        group.add(PauliString("ZI"))
        with pytest.raises(ValueError):
            group.add(PauliString("XI"))

    def test_basis_string_z_fill(self):
        group = MeasurementGroup(3)
        group.add(PauliString("XII"))
        assert group.basis_string().label == "XZZ"

    def test_len_counts_members(self):
        group = MeasurementGroup(2)
        group.add(PauliString("ZI"))
        group.add(PauliString("IZ"))
        assert len(group) == 2


class TestGroupQwc:
    def test_singleton(self):
        groups = group_qwc(["ZZ"], 2)
        assert len(groups) == 1

    def test_merges_compatible(self):
        groups = group_qwc(["ZI", "IZ", "ZZ"], 2)
        assert len(groups) == 1
        assert len(groups[0].members) == 3

    def test_conflicting_terms_split(self):
        groups = group_qwc(["ZZ", "XX"], 2)
        assert len(groups) == 2

    def test_identity_skipped(self):
        groups = group_qwc(["II", "ZZ"], 2)
        assert len(groups) == 1
        assert groups[0].members == [PauliString("ZZ")]

    def test_every_member_measured_by_its_basis(self, fig6_paulis):
        for group in group_qwc(fig6_paulis, 4):
            basis = group.basis_string()
            for member in group.members:
                assert member.can_be_measured_by(basis)

    def test_all_terms_accounted(self, fig6_paulis):
        groups = group_qwc(fig6_paulis, 4)
        members = [m for g in groups for m in g.members]
        assert sorted(members) == sorted(fig6_paulis)

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            group_qwc(["ZZ", "Z"], 2)


class TestCoverReduce:
    def test_fig6_reduces_10_to_7(self, fig6_paulis):
        """The paper's Eq.1 -> Eq.2: exactly 7 circuits survive."""
        groups = cover_reduce(fig6_paulis, 4)
        assert len(groups) == 7
        representatives = {str(g.members[0]) for g in groups}
        assert representatives == {
            "ZZIZ", "ZIZX", "ZXXZ", "XZIZ", "IXZZ", "XIZZ", "XXIX",
        }

    def test_fig6_absorbed_terms(self, fig6_paulis):
        """ZZII, IIZX, ZXIZ (the red terms of Eq.1) are absorbed."""
        groups = cover_reduce(fig6_paulis, 4)
        absorbed = {
            str(m)
            for g in groups
            for m in g.members[1:]
        }
        assert absorbed == {"ZZII", "IIZX", "ZXIZ"}

    def test_members_measured_by_representative(self, fig6_paulis):
        for group in cover_reduce(fig6_paulis, 4):
            rep = group.members[0]
            for member in group.members:
                assert member.can_be_measured_by(group.basis_string())
                assert member.can_be_measured_by(
                    PauliString(
                        "".join(
                            rep[i] if rep[i] != "I" else "Z"
                            for i in range(4)
                        )
                    )
                )

    def test_duplicates_collapse(self):
        groups = cover_reduce(["ZZ", "ZZ", "ZZ"], 2)
        assert len(groups) == 1

    def test_identity_dropped(self):
        groups = cover_reduce(["II", "ZI"], 2)
        assert len(groups) == 1

    def test_no_merging_of_maximal_terms(self):
        # IX and XI are QWC-compatible but neither covers the other:
        # the paper's trivial commutation keeps both (unlike group_qwc).
        assert len(cover_reduce(["IX", "XI"], 2)) == 2
        assert len(group_qwc(["IX", "XI"], 2)) == 1

    def test_all_input_terms_preserved(self, fig6_paulis):
        groups = cover_reduce(fig6_paulis, 4)
        members = sorted(m for g in groups for m in g.members)
        assert members == sorted(set(fig6_paulis))
