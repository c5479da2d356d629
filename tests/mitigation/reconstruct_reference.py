"""Frozen one-group Bayesian reconstruction: the test oracle.

A self-contained NumPy copy of the original single-group JigSaw
reconstruction, which refined one Global-PMF with its Local-PMFs one
local at a time:

1. ``current = probs / probs.sum()``;
2. the current estimate's marginal on the local's qubits, by
   ``bincount`` over each outcome's restricted index;
3. ``ratio = local / marginal`` where the marginal is positive, else 0;
4. ``updated = probs * ratio[index]``, adopted unless it sums to <= 0
   (a degenerate local is skipped);

then one final ``probs / probs.sum()`` (or the prior itself, returned
unchanged, if nothing is left).  It works on raw vectors and qubit
tuples only, so a change to the library's reconstruction arithmetic
shows up as a difference.  Slow and deliberately never optimized: do
not edit it to track the library.
"""

from __future__ import annotations

import numpy as np


def subset_index_map(n_qubits: int, qubits: tuple[int, ...]) -> np.ndarray:
    """Each full-register outcome's index restricted to ``qubits``.

    Qubit 0 is the most significant bit; the restricted index reads
    ``qubits`` in the given order.
    """
    indices = np.arange(2**n_qubits)
    m = len(qubits)
    local = np.zeros(2**n_qubits, dtype=np.int64)
    for j, q in enumerate(qubits):
        bit = (indices >> (n_qubits - 1 - q)) & 1
        local |= bit << (m - 1 - j)
    return local


def reference_reconstruct(
    prior: np.ndarray, locals_: list[tuple[np.ndarray, tuple[int, ...]]]
) -> np.ndarray:
    """Refined probabilities of ``prior`` given ``(probs, qubits)`` locals.

    ``prior`` is a normalized vector over the full register in qubit
    order; each local is a normalized vector over its qubits.  Returns
    the prior's own array when the update leaves no mass.
    """
    n = int(np.log2(prior.size))
    probs = prior.copy()
    for local_probs, qubits in locals_:
        current = probs / probs.sum()
        index = subset_index_map(n, tuple(qubits))
        marginal = np.bincount(
            index, weights=current, minlength=local_probs.size
        )
        ratio = np.divide(
            local_probs,
            marginal,
            out=np.zeros_like(local_probs),
            where=marginal > 0,
        )
        updated = probs * ratio[index]
        total = updated.sum()
        if total <= 0:
            continue
        probs = updated
    total = probs.sum()
    if total <= 0:
        return prior
    return probs / total
