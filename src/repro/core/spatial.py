"""VarSaw's spatial optimization: *Commuting of Pauli String Subsets*.

JigSaw generates measurement subsets per circuit, after commutation, and
never looks across circuits — so subsets repeat and commute wastefully
(Section 3.2).  VarSaw instead

1. generates width-``m`` window subsets for **every** Hamiltonian Pauli
   string (before commutativity reduction — the right-hand path of
   Fig. 10), then
2. deduplicates and commutes the aggregate: a subset is dropped when a
   kept subset already measures it, and otherwise may *extend* a kept
   subset whose merged support still fits in ``m`` measured qubits.

On the paper's 4-qubit worked example this turns 21 JigSaw subsets into
exactly the 9 of Fig. 6 Eq. 4 (tested).  The reduction operates on sparse
``{position: char}`` assignments with a (position, char) -> group index,
so the 34-qubit Cr2 workload (~1M raw subsets) reduces in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..circuits import Circuit
from ..hamiltonian import Hamiltonian
from ..mitigation.subsets import count_term_subsets, sliding_windows
from ..pauli import PauliString

__all__ = [
    "SubsetPlan",
    "reduce_assignments",
    "varsaw_subset_plan",
    "count_jigsaw_subsets",
    "count_varsaw_subsets",
]

Assignment = dict[int, str]


def _window_assignments(term: PauliString, size: int) -> list[Assignment]:
    """Sparse window restrictions of one term, all-'I' windows dropped."""
    out = []
    for window in sliding_windows(term.n_qubits, size):
        assignment = {
            q: term[q] for q in window if term[q] != "I"
        }
        if assignment:
            out.append(assignment)
    return out


def reduce_assignments(
    assignments, max_support: int, allow_extension: bool = True
) -> list[Assignment]:
    """Deduplicate + commute sparse basis assignments (the Fig. 6 step 3->4).

    Processing order is largest-support-first so maximal subsets seed the
    kept set and small, I-heavy subsets get absorbed.  With
    ``allow_extension`` a non-covered subset may merge into a kept one if
    the union stays within ``max_support`` measured qubits (subsets need
    not be contiguous after commuting).
    """
    unique = {frozenset(a.items()) for a in assignments if a}
    ordered = sorted(unique, key=lambda s: (-len(s), sorted(s)))
    kept: list[Assignment] = []
    index: dict[tuple[int, str], set[int]] = {}
    open_ids: list[int] = []
    for frozen in ordered:
        items = sorted(frozen)
        member_sets = [index.get(item) for item in items]
        if all(member_sets) and set.intersection(*member_sets):
            continue  # covered by a kept subset
        if allow_extension:
            merged = False
            for gid in open_ids:
                group = kept[gid]
                compatible = all(
                    group.get(pos, char) == char for pos, char in items
                )
                if not compatible:
                    continue
                new_support = set(group) | {pos for pos, _ in items}
                if len(new_support) > max_support:
                    continue
                for pos, char in items:
                    if pos not in group:
                        group[pos] = char
                        index.setdefault((pos, char), set()).add(gid)
                if len(group) >= max_support:
                    open_ids.remove(gid)
                merged = True
                break
            if merged:
                continue
        gid = len(kept)
        kept.append(dict(frozen))
        for item in frozen:
            index.setdefault(item, set()).add(gid)
        if len(frozen) < max_support:
            open_ids.append(gid)
    return kept


@dataclass
class SubsetPlan:
    """The reduced subset circuits VarSaw executes every iteration.

    Each entry is a sparse ``{position: char}`` basis assignment: measure
    exactly those positions, each rotated into the assigned Pauli basis.
    """

    n_qubits: int
    window: int
    assignments: list[Assignment]

    @property
    def num_subsets(self) -> int:
        return len(self.assignments)

    def support(self, index: int) -> tuple[int, ...]:
        return tuple(sorted(self.assignments[index]))

    def rotation_circuit(self, index: int) -> Circuit:
        """Basis-change suffix for subset ``index`` (X -> H, Y -> S†H)."""
        qc = PauliString.from_sparse(
            self.n_qubits, self.assignments[index]
        ).basis_rotation()
        qc.name = f"subset_{index}"
        return qc

    def compatible_with(self, basis: PauliString) -> list[int]:
        """Subset indices usable for a group measured in ``basis``.

        A subset serves the group when the group's basis fixes the same
        Pauli at every measured position — then the subset's Local-PMF is
        a valid marginal for that group's reconstruction.
        """
        return [
            i
            for i, assignment in enumerate(self.assignments)
            if all(basis[q] == c for q, c in assignment.items())
        ]

    def as_strings(self) -> list[PauliString]:
        """Full-width Pauli strings of the assignments (for inspection)."""
        return [
            PauliString.from_sparse(self.n_qubits, a)
            for a in self.assignments
        ]


def varsaw_subset_plan(
    hamiltonian: Hamiltonian | list[PauliString],
    window: int = 2,
    allow_extension: bool = True,
) -> SubsetPlan:
    """Aggregate-then-commute subset generation (Fig. 10, right path)."""
    if isinstance(hamiltonian, Hamiltonian):
        terms = [p for _, p in hamiltonian.non_identity_terms()]
        n_qubits = hamiltonian.n_qubits
    else:
        terms = [
            p if isinstance(p, PauliString) else PauliString(p)
            for p in hamiltonian
        ]
        terms = [p for p in terms if not p.is_identity()]
        if not terms:
            raise ValueError("no non-identity terms")
        n_qubits = terms[0].n_qubits
    raw: list[Assignment] = []
    for term in terms:
        raw.extend(_window_assignments(term, window))
    reduced = reduce_assignments(raw, window, allow_extension)
    return SubsetPlan(n_qubits=n_qubits, window=window, assignments=reduced)


def count_jigsaw_subsets(hamiltonian: Hamiltonian, window: int = 2) -> int:
    """JigSaw's subset count: per post-commutation term, no sharing (Fig. 12).

    JigSaw subsets are generated from the C_Comm representative strings
    (Fig. 6 Eq. 3) — one family of windows per surviving circuit.
    """
    return sum(
        count_term_subsets(group.members[0], window)
        for group in hamiltonian.measurement_groups()
    )


def count_varsaw_subsets(hamiltonian: Hamiltonian, window: int = 2) -> int:
    """VarSaw's reduced subset count (Fig. 12's orange 'VarSaw' columns)."""
    return varsaw_subset_plan(hamiltonian, window).num_subsets
