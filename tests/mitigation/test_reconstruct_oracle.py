"""Differential oracle: batched reconstruction vs the frozen one-group one.

``bayesian_reconstruct_batch`` stacks many groups' priors into row
blocks and applies every group's ``k``-th local in one round.  Each
group's result must equal
:func:`tests.mitigation.reconstruct_reference.reference_reconstruct`
on that group alone, bit for bit, whatever else shares the batch:
1-8 qubits, 1-12 groups with 0-5 locals each (1-4 qubits in any
order), zeroed outcomes, degenerate locals, sampled integer priors,
and batches that span several row blocks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mitigation import bayesian_reconstruct, bayesian_reconstruct_batch
from repro.mitigation.reconstruction import _BLOCK_ELEMENTS
from repro.sim import PMF, Counts

from .reconstruct_reference import reference_reconstruct
from .reconstruct_reference import subset_index_map as reference_index_map


def _vector(rng, size: int, zero_fraction: float) -> np.ndarray:
    """Random nonnegative weights with some outcomes zeroed (never all)."""
    values = rng.random(size)
    values[rng.random(size) < zero_fraction] = 0.0
    if not values.any():
        values[rng.integers(size)] = 1.0
    return values


def _pmf(rng, qubits, zero_fraction: float, sampled: bool) -> PMF:
    """A PMF over ``qubits``: raw weights, or counts sampled from them."""
    pmf = PMF(_vector(rng, 2 ** len(qubits), zero_fraction), qubits)
    if sampled:
        shots = int(rng.integers(1, 600))
        pmf = Counts.from_pmf_samples(pmf, shots, rng).to_pmf()
    return pmf


@st.composite
def groups(draw):
    """``(priors, group_locals)`` of one batch over a shared register."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    priors, group_locals = [], []
    for _ in range(draw(st.integers(1, 12))):
        zeros = draw(st.sampled_from([0.0, 0.3, 0.8]))
        prior = _pmf(rng, tuple(range(n)), zeros, draw(st.booleans()))
        locals_ = []
        for _ in range(draw(st.integers(0, 5))):
            qubits = draw(st.lists(
                st.integers(0, n - 1), min_size=1, max_size=min(4, n),
                unique=True,
            ))
            locals_.append(_pmf(
                rng, qubits, draw(st.sampled_from([0.0, 0.5])),
                draw(st.booleans()),
            ))
        if draw(st.booleans()):
            # A degenerate local: the prior has no mass where bit q is
            # 1, and the local puts all its mass there.
            q = draw(st.integers(0, n - 1))
            probs = prior.probs.copy()
            probs[reference_index_map(n, (q,)) == 1] = 0.0
            if probs.any():
                prior = PMF(probs)
                at = draw(st.integers(0, len(locals_)))
                locals_.insert(at, PMF.point(1, 1, qubits=(q,)))
        priors.append(prior)
        group_locals.append(locals_)
    return priors, group_locals


def _assert_matches_reference(priors, group_locals, results) -> None:
    assert len(results) == len(priors)
    for prior, locals_, result in zip(priors, group_locals, results):
        expected = reference_reconstruct(
            prior.probs, [(local.probs, local.qubits) for local in locals_]
        )
        assert result.qubits == prior.qubits
        assert result.probs.tobytes() == expected.tobytes()


@settings(max_examples=200, deadline=None)
@given(groups())
def test_batch_matches_frozen_one_group_reconstruction(batch):
    priors, group_locals = batch
    results = bayesian_reconstruct_batch(priors, group_locals)
    _assert_matches_reference(priors, group_locals, results)
    # The single-group entry point is a batch of one.
    for prior, locals_, result in zip(priors, group_locals, results):
        alone = bayesian_reconstruct(prior, locals_)
        assert alone.probs.tobytes() == result.probs.tobytes()


def test_twelve_qubits_across_several_row_blocks():
    n, count = 12, 20
    assert count * 2**n > 2 * _BLOCK_ELEMENTS
    rng = np.random.default_rng(2023)
    windows = [(q, q + 1) for q in range(n - 1)]
    priors, group_locals = [], []
    for g in range(count):
        priors.append(_pmf(rng, tuple(range(n)), 0.0, sampled=True))
        picks = rng.choice(len(windows), size=g % 6, replace=False)
        group_locals.append([
            _pmf(rng, windows[i], 0.0, sampled=True) for i in picks
        ])
    results = bayesian_reconstruct_batch(priors, group_locals)
    _assert_matches_reference(priors, group_locals, results)


def test_mixed_register_widths_rejected():
    with pytest.raises(ValueError, match="same full register"):
        bayesian_reconstruct_batch(
            [PMF.uniform(2), PMF.uniform(3)], [[], []]
        )


def test_one_local_list_per_prior_required():
    with pytest.raises(ValueError, match="2 priors but 1 local lists"):
        bayesian_reconstruct_batch([PMF.uniform(2)] * 2, [[]])

