"""JigSaw's per-term subset strings, built one window at a time: the oracle.

The library only counts a term's subsets
(:func:`repro.mitigation.subsets.count_term_subsets`) and plans VarSaw's
reduced set (:func:`repro.core.varsaw_subset_plan`); neither builds the
raw per-term list.  This function is kept test-only, as the reference
the count and the plan's coverage are checked against.
"""

from __future__ import annotations

from repro.mitigation import sliding_windows
from repro.pauli import PauliString


def term_subsets(term: PauliString, size: int = 2) -> list[PauliString]:
    """The subset Paulis of one term: its restriction to each window.

    All-'I' restrictions are dropped (no measurement required).  The
    returned strings are full-width with 'I' outside the window, e.g.
    'ZZIZ' with window size 2 -> ['ZZII', 'IZII', 'IIIZ'] per Fig. 6
    Eq. 3.
    """
    subsets = []
    for window in sliding_windows(term.n_qubits, size):
        restricted = term.restricted_to(window)
        if not restricted.is_identity():
            subsets.append(restricted)
    return subsets
