"""Measurement-subset generation (JigSaw step 1).

JigSaw's default subsetting slides a width-``m`` window across the qubits:
an ``n``-qubit circuit yields ``n - m + 1`` subset circuits, each measuring
only its window (Section 2.3; the paper and Appendix A find ``m = 2``
optimal).  For VQA, subsets are generated per Pauli string: the window is
labeled with the string's characters, and windows that are all-'I' need no
measurement and are weeded out (Section 6.1).
"""

from __future__ import annotations

from ..pauli import PauliString

__all__ = [
    "sliding_windows",
    "term_subsets",
    "jigsaw_subsets_per_term",
    "count_term_subsets",
]


def checked_subset_shots(subset_shots: int | None, shots: int) -> int:
    """Shots per subset circuit: ``subset_shots``, or ``shots`` if None.

    Rejects ``subset_shots < 1`` up front (as the estimator specs do),
    so a bad value fails at construction, not at the first execution.
    """
    if subset_shots is None:
        return shots
    if subset_shots < 1:
        raise ValueError(
            f"subset_shots must be at least 1; got {subset_shots!r}"
        )
    return subset_shots


def sliding_windows(n_qubits: int, size: int) -> list[tuple[int, ...]]:
    """Adjacent position windows: (0..size-1), (1..size), ...

    For ``size >= n_qubits`` there is a single window covering everything.
    """
    if size < 1:
        raise ValueError("window size must be >= 1")
    if size >= n_qubits:
        return [tuple(range(n_qubits))]
    return [
        tuple(range(start, start + size))
        for start in range(n_qubits - size + 1)
    ]


def term_subsets(term: PauliString, size: int = 2) -> list[PauliString]:
    """The subset Paulis of one term: its restriction to each window.

    All-'I' restrictions are dropped (no measurement required).  The
    returned strings are full-width with 'I' outside the window, e.g.
    'ZZIZ' with window size 2 -> ['ZZII', 'IZII'·→ dropped dupes handled
    upstream, 'IIIZ'] per Fig. 6 Eq. 3.
    """
    subsets = []
    for window in sliding_windows(term.n_qubits, size):
        restricted = term.restricted_to(window)
        if not restricted.is_identity():
            subsets.append(restricted)
    return subsets


def count_term_subsets(term: PauliString, size: int = 2) -> int:
    """``len(term_subsets(term, size))`` without building the strings.

    Counting-only fast path for the Fig. 12 sweep: the 34-qubit Cr2
    workload generates ~600k subsets, which never need materializing just
    to be counted.
    """
    label = term.label
    n = term.n_qubits
    if size >= n:
        return 0 if term.is_identity() else 1
    count = 0
    for start in range(n - size + 1):
        if any(c != "I" for c in label[start : start + size]):
            count += 1
    return count


def jigsaw_subsets_per_term(terms, size: int = 2) -> list[PauliString]:
    """JigSaw's raw subset list: per-term windows with no cross-term sharing.

    This is the quantity counted as 'JigSaw subsets' in Fig. 12 — the
    application-agnostic approach generates (up to) ``Q - 1`` subsets for
    *each* post-commutation Pauli string independently.
    """
    out: list[PauliString] = []
    for term in terms:
        term = term if isinstance(term, PauliString) else PauliString(term)
        out.extend(term_subsets(term, size))
    return out
