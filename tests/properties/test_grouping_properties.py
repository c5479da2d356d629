"""Property-based tests for grouping and spatial-reduction invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import reduce_assignments, varsaw_subset_plan
from repro.pauli import PauliString, cover_reduce, group_qwc

from ..mitigation.subsets_reference import term_subsets


def pauli_sets(n_qubits=4, max_terms=12):
    label = st.text(alphabet="IXYZ", min_size=n_qubits, max_size=n_qubits)
    return st.lists(label, min_size=1, max_size=max_terms).map(
        lambda labels: [PauliString(l) for l in labels]
    )


class TestGroupQwcInvariants:
    @given(pauli_sets())
    @settings(max_examples=60)
    def test_partition_and_validity(self, paulis):
        groups = group_qwc(paulis, 4)
        non_identity = [p for p in set(paulis) if not p.is_identity()]
        members = [m for g in groups for m in g.members]
        # Duplicates in the input each land in some group exactly once
        # per unique occurrence processed; check coverage of uniques.
        assert set(members) >= set(non_identity)
        for g in groups:
            basis = g.basis_string()
            for m in g.members:
                assert m.can_be_measured_by(basis)

    @given(pauli_sets())
    @settings(max_examples=60)
    def test_groups_pairwise_qwc(self, paulis):
        for g in group_qwc(paulis, 4):
            for a in g.members:
                for b in g.members:
                    assert a.qubit_wise_commutes(b)


class TestCoverReduceInvariants:
    @given(pauli_sets())
    @settings(max_examples=60)
    def test_every_unique_term_covered(self, paulis):
        groups = cover_reduce(paulis, 4)
        unique = {p for p in paulis if not p.is_identity()}
        members = {m for g in groups for m in g.members}
        assert members == unique
        for g in groups:
            basis = g.basis_string()
            for m in g.members:
                assert m.can_be_measured_by(basis)

    @given(pauli_sets())
    @settings(max_examples=60)
    def test_never_more_groups_than_unique_terms(self, paulis):
        unique = {p for p in paulis if not p.is_identity()}
        assert len(cover_reduce(paulis, 4)) <= max(1, len(unique))

    @given(pauli_sets())
    @settings(max_examples=60)
    def test_representatives_mutually_uncovered(self, paulis):
        """No kept representative can measure another (greedy maximality)."""
        groups = cover_reduce(paulis, 4)
        reps = [g.members[0] for g in groups]
        for i, a in enumerate(reps):
            for j, b in enumerate(reps):
                if i != j:
                    assert not a.can_be_measured_by(b)


class TestSpatialReductionInvariants:
    @given(pauli_sets())
    @settings(max_examples=60)
    def test_plan_covers_every_raw_subset(self, paulis):
        """Soundness: every JigSaw subset is measured by some kept subset."""
        non_identity = [p for p in paulis if not p.is_identity()]
        if not non_identity:
            return
        plan = varsaw_subset_plan(non_identity, window=2)
        kept = plan.assignments
        for term in non_identity:
            for subset in term_subsets(term, 2):
                required = subset.sparse()
                assert any(
                    all(k.get(q) == c for q, c in required.items())
                    for k in kept
                ), (term, subset)

    @given(pauli_sets())
    @settings(max_examples=60)
    def test_reduced_never_larger_than_unique_raw(self, paulis):
        non_identity = [p for p in paulis if not p.is_identity()]
        if not non_identity:
            return
        raw = {
            frozenset(s.sparse().items())
            for t in non_identity
            for s in term_subsets(t, 2)
        }
        plan = varsaw_subset_plan(non_identity, window=2)
        assert plan.num_subsets <= max(1, len(raw))

    @given(
        st.lists(
            st.dictionaries(
                st.integers(0, 3),
                st.sampled_from("XYZ"),
                min_size=0,
                max_size=2,
            ),
            max_size=15,
        )
    )
    @settings(max_examples=60)
    def test_reduce_assignments_supports_capped(self, assignments):
        for kept in reduce_assignments(assignments, max_support=2):
            assert 1 <= len(kept) <= 2
