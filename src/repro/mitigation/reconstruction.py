"""Bayesian reconstruction (JigSaw step 3).

Given a low-fidelity *Global-PMF* over all qubits and several high-fidelity
*Local-PMFs* over measured subsets, rescale each global outcome's
probability by how much the locals disagree with the global's marginals:

    P'(x)  ∝  P_global(x) * Π_S  [ P_local_S(x|_S) / P_global_S(x|_S) ]

applied one local at a time (each update uses the current estimate's
marginal, mirroring Bayesian updating with each local as new evidence).
This preserves the global correlation structure while pulling the subset
marginals toward their high-fidelity measurements.

Estimators reconstruct every measurement group of an evaluation in one
:func:`bayesian_reconstruct_batch` call: the priors are stacked into
row blocks, and round ``k`` applies every group's ``k``-th local at
once.  Each row's arithmetic is exactly the one-group update, so a
group's result does not depend on what else shares its batch
(``tests/mitigation/reconstruct_reference.py`` freezes the one-group
update it must equal bit for bit).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..sim import PMF

__all__ = [
    "subset_index_map",
    "bayesian_reconstruct",
    "bayesian_reconstruct_batch",
]

#: Elements (rows x outcomes) per stacked block of priors.  Every round
#: streams a few block-sized temporaries; blocks this small stay in
#: cache, where stacking hundreds of 12-qubit groups at once does not.
_BLOCK_ELEMENTS = 2**14


def subset_index_map(n_qubits: int, qubits: tuple[int, ...]) -> np.ndarray:
    """For each full-register outcome, its index restricted to ``qubits``.

    Returns an int vector of length ``2**n_qubits``; entry ``x`` is the
    outcome of reading only ``qubits`` (in the given order) from ``x``.
    Uses the library-wide convention that qubit 0 is the most significant
    bit.  A qubit outside the register or listed twice is rejected.
    """
    qubits = tuple(qubits)
    for j, q in enumerate(qubits):
        if not 0 <= q < n_qubits:
            raise ValueError(
                f"qubit {q} is outside the {n_qubits}-qubit register"
            )
        if q in qubits[:j]:
            raise ValueError(f"qubit {q} is listed twice")
    indices = np.arange(2**n_qubits)
    m = len(qubits)
    local = np.zeros(2**n_qubits, dtype=np.int64)
    for j, q in enumerate(qubits):
        bit = (indices >> (n_qubits - 1 - q)) & 1
        local |= bit << (m - 1 - j)
    return local


@lru_cache(maxsize=256)
def _index_map(n_qubits: int, qubits: tuple[int, ...]) -> np.ndarray:
    """Memoized, read-only :func:`subset_index_map`.

    Reconstruction recomputes the same handful of maps every evaluation;
    the public function stays uncached (it hands out writable arrays).
    """
    local = subset_index_map(n_qubits, qubits)
    local.setflags(write=False)
    return local


def bayesian_reconstruct(global_pmf: PMF, local_pmfs) -> PMF:
    """Refine ``global_pmf`` with the evidence in ``local_pmfs``.

    ``global_pmf`` must cover the full register ``(0, ..., n-1)``; each
    local PMF covers a subset of those labels.  Outcomes whose current
    marginal probability is zero keep their (zero) probability.  If the
    update annihilates the whole distribution (pathological all-zero
    overlap), the global is returned unchanged.  A batch of one of
    :func:`bayesian_reconstruct_batch`.
    """
    return bayesian_reconstruct_batch([global_pmf], [list(local_pmfs)])[0]


def bayesian_reconstruct_batch(priors, group_locals) -> list[PMF]:
    """:func:`bayesian_reconstruct` of many groups: one PMF per prior.

    ``priors[g]`` is group ``g``'s Global-PMF (or stale prior) and
    ``group_locals[g]`` its Local-PMFs, applied in order; groups may
    hold different numbers of locals.  Every prior must cover the same
    full register.  Each result is bit-identical to reconstructing its
    group alone.
    """
    priors = list(priors)
    group_locals = [list(locals_) for locals_ in group_locals]
    if len(group_locals) != len(priors):
        raise ValueError(
            f"{len(priors)} priors but {len(group_locals)} local lists"
        )
    if not priors:
        return []
    n = priors[0].n_qubits
    register = tuple(range(n))
    for prior, locals_ in zip(priors, group_locals):
        if prior.qubits != register:
            raise ValueError(
                "every prior must cover the same full register in order"
            )
        for local in locals_:
            for q in local.qubits:
                if not 0 <= q < n:
                    raise ValueError(f"local qubit {q} outside register")
    # Rows go in order of local count, most first, so a block's rows
    # need similar numbers of rounds and each round's rows are a prefix.
    order = sorted(range(len(priors)), key=lambda g: -len(group_locals[g]))
    rows = max(1, _BLOCK_ELEMENTS >> n)
    out: list = [None] * len(priors)
    for start in range(0, len(order), rows):
        block = order[start:start + rows]
        pmfs = _reconstruct_block(
            [priors[g] for g in block], [group_locals[g] for g in block], n
        )
        for g, pmf in zip(block, pmfs):
            out[g] = pmf
    return out


def _reconstruct_block(priors, group_locals, n: int) -> list[PMF]:
    """One row block of :func:`bayesian_reconstruct_batch`.

    Rows arrive sorted by local count, most first, so round ``k``
    updates a prefix of the block: the rows that have a ``k``-th
    local.  Row ``r`` of a round owns bins ``[r * stride, r * stride +
    2**width)`` of one concatenated marginal, so a single ``bincount``
    over the row-major flattened rows sums every row's marginal in
    that row's own order, and a single gather reads every row's
    ratios back.  Row sums reduce along the contiguous axis, one
    pairwise sum per row, as a lone row's ``sum`` does.
    """
    size = 2**n
    probs = np.stack([prior.probs for prior in priors])
    counts = [len(locals_) for locals_ in group_locals]
    for k in range(counts[0]):
        active = sum(count > k for count in counts)
        locals_k = [group_locals[r][k] for r in range(active)]
        stride = max(local.probs.size for local in locals_k)
        index = np.empty((active, size), dtype=np.int64)
        observed = np.zeros(active * stride)
        for r, local in enumerate(locals_k):
            np.add(_index_map(n, local.qubits), r * stride, out=index[r])
            observed[r * stride:r * stride + local.probs.size] = local.probs
        index = index.ravel()
        block = probs[:active]
        current = block / block.sum(axis=1)[:, None]
        marginal = np.bincount(
            index, weights=current.ravel(), minlength=observed.size
        )
        ratio = np.divide(
            observed,
            marginal,
            out=np.zeros_like(observed),
            where=marginal > 0,
        )
        updated = block * ratio[index].reshape(block.shape)
        # A local that annihilates its row is degenerate evidence:
        # that row skips it.
        skip = updated.sum(axis=1) <= 0
        if skip.any():
            updated[skip] = block[skip]
        probs[:active] = updated
    totals = probs.sum(axis=1)
    normalized = probs / totals[:, None]
    return [
        prior if totals[r] <= 0
        else PMF._trusted(normalized[r], prior.qubits)
        for r, prior in enumerate(priors)
    ]
