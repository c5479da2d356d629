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


def count_term_subsets(term: PauliString, size: int = 2) -> int:
    """How many of ``term``'s window restrictions are not all-'I'.

    Those are the JigSaw subsets one term needs (Fig. 6 Eq. 3), counted
    without building the strings: the 34-qubit Cr2 workload of the
    Fig. 12 sweep generates ~600k subsets, which never need
    materializing just to be counted.
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
