"""Qubit-wise-commutativity (QWC) grouping of Pauli strings.

This is the "Commutativity-based Reduction" box in Fig. 10: strings that
pairwise qubit-wise commute can be measured by a single circuit whose basis
is the pointwise union of their assignments.  The paper restricts itself to
this trivial commutation (more aggressive general-commutation schemes add
circuit depth and classical cost — Section 3.1), and so do we.

:class:`MeasurementGroup` records both the member strings and the merged
measurement basis, which downstream code turns into a basis-rotation
circuit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .pauli import PauliString

__all__ = ["MeasurementGroup", "group_qwc", "cover_reduce"]


@dataclass
class MeasurementGroup:
    """A set of QWC-compatible Pauli strings and their merged basis.

    ``basis`` maps qubit -> Pauli char; positions absent from the map are
    unconstrained (no member needs them).
    """

    n_qubits: int
    basis: dict[int, str] = field(default_factory=dict)
    members: list[PauliString] = field(default_factory=list)

    def accepts(self, pauli: PauliString) -> bool:
        """Can ``pauli`` join without conflicting with the current basis?"""
        return all(
            self.basis.get(q, c) == c for q, c in pauli.sparse().items()
        )

    def add(self, pauli: PauliString) -> None:
        if not self.accepts(pauli):
            raise ValueError(
                f"{pauli} conflicts with group basis {self.basis}"
            )
        self.basis.update(pauli.sparse())
        self.members.append(pauli)

    def basis_string(self, default: str = "Z") -> PauliString:
        """The group basis as a full-width Pauli string.

        Unconstrained positions default to ``default`` ('Z' — measuring in
        Z costs nothing and keeps every circuit's basis total).
        """
        chars = [
            self.basis.get(q, default) for q in range(self.n_qubits)
        ]
        return PauliString("".join(chars))

    def __len__(self) -> int:
        return len(self.members)


def group_qwc(
    paulis, n_qubits: int, presorted: bool = False
) -> list[MeasurementGroup]:
    """Greedy first-fit QWC grouping.

    Strings are processed heaviest-first (unless ``presorted``): wide
    strings seed groups and light, I-heavy strings — which have large
    commuting families (Fig. 7) — fill them.  Identity strings need no
    measurement and are skipped.

    Returns the list of groups; ``len(result)`` is the number of distinct
    measurement circuits per VQA iteration.
    """
    items = [p if isinstance(p, PauliString) else PauliString(p) for p in paulis]
    for p in items:
        if p.n_qubits != n_qubits:
            raise ValueError(
                f"{p} has width {p.n_qubits}, expected {n_qubits}"
            )
    if not presorted:
        items = sorted(items, key=lambda p: (-p.weight, p.label))
    groups: list[MeasurementGroup] = []
    for pauli in items:
        if pauli.is_identity():
            continue
        for group in groups:
            if group.accepts(pauli):
                group.add(pauli)
                break
        else:
            group = MeasurementGroup(n_qubits)
            group.add(pauli)
            groups.append(group)
    return groups


def cover_reduce(paulis, n_qubits: int) -> list[MeasurementGroup]:
    """The paper's *trivial qubit commutation* (Fig. 6, Eq. 1 -> Eq. 2).

    A term is eliminated when another Hamiltonian term can measure it
    (``can_be_measured_by`` — the parent relation of Fig. 7); surviving
    maximal terms each become a group whose basis is the term itself.
    Unlike :func:`group_qwc` this never *merges* two maximal terms into a
    joint basis, matching the paper's C_Comm counts exactly (the 10-term
    example reduces to 7 circuits, not 6).

    Implemented with a (position, char) -> group-id index so the 34-qubit,
    ~33k-term Cr2 workload reduces in seconds.
    """
    items = [
        p if isinstance(p, PauliString) else PauliString(p) for p in paulis
    ]
    seen: set[PauliString] = set()
    unique: list[PauliString] = []
    for p in items:
        if p.n_qubits != n_qubits:
            raise ValueError(
                f"{p} has width {p.n_qubits}, expected {n_qubits}"
            )
        if p.is_identity() or p in seen:
            continue
        seen.add(p)
        unique.append(p)
    unique.sort(key=lambda p: (-p.weight, p.label))
    groups: list[MeasurementGroup] = []
    # (position, char) -> bitmask of group ids whose basis has that char
    # there.  Coverage of a term is then one AND per support item — this
    # keeps the ~33k-term Cr2 workload at interactive speed.
    index: dict[tuple[int, str], int] = {}
    for pauli in unique:
        items = list(pauli.sparse().items())
        covering = index.get(items[0], 0)
        for item in items[1:]:
            if not covering:
                break
            covering &= index.get(item, 0)
        if covering:
            gid = (covering & -covering).bit_length() - 1
            groups[gid].members.append(pauli)
            continue
        gid = len(groups)
        group = MeasurementGroup(n_qubits)
        group.add(pauli)
        groups.append(group)
        bit = 1 << gid
        for item in items:
            index[item] = index.get(item, 0) | bit
    return groups
