"""Property-based tests for PMF invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.sim import PMF, Counts


def pmf_strategy(n_qubits):
    return arrays(
        np.float64,
        shape=2**n_qubits,
        elements=st.floats(0.0, 1.0, allow_nan=False),
    ).filter(lambda v: v.sum() > 1e-9).map(PMF)


@st.composite
def pmf_and_subset(draw, n_qubits=3):
    pmf = draw(pmf_strategy(n_qubits))
    subset = draw(
        st.lists(
            st.integers(0, n_qubits - 1),
            min_size=1,
            max_size=n_qubits,
            unique=True,
        )
    )
    return pmf, tuple(subset)


class TestNormalization:
    @given(pmf_strategy(3))
    def test_always_normalized(self, pmf):
        assert np.isclose(pmf.probs.sum(), 1.0)
        assert np.all(pmf.probs >= 0)

    @given(pmf_and_subset())
    def test_marginal_normalized(self, pair):
        pmf, subset = pair
        marg = pmf.marginal(subset)
        assert np.isclose(marg.probs.sum(), 1.0)
        assert marg.qubits == subset

    @given(pmf_and_subset())
    def test_marginal_consistency(self, pair):
        """Marginalizing in two steps equals one step."""
        pmf, subset = pair
        direct = pmf.marginal([subset[0]])
        via = pmf.marginal(subset).marginal([subset[0]])
        assert np.allclose(direct.probs, via.probs, atol=1e-12)


class TestDistanceAxioms:
    @given(pmf_strategy(2), pmf_strategy(2))
    def test_tvd_symmetric_bounded(self, a, b):
        assert 0.0 <= a.tvd(b) <= 1.0 + 1e-12
        assert np.isclose(a.tvd(b), b.tvd(a))

    @given(pmf_strategy(2), pmf_strategy(2), pmf_strategy(2))
    def test_tvd_triangle_inequality(self, a, b, c):
        assert a.tvd(c) <= a.tvd(b) + b.tvd(c) + 1e-12

    @given(pmf_strategy(2))
    def test_self_distances_zero(self, a):
        assert np.isclose(a.tvd(a), 0.0)


class TestMixing:
    @given(pmf_strategy(2), pmf_strategy(2), st.floats(0.0, 1.0))
    def test_mix_stays_normalized(self, a, b, w):
        assert np.isclose(a.mix(b, w).probs.sum(), 1.0)

    @given(pmf_strategy(2), pmf_strategy(2), st.floats(0.0, 1.0))
    @settings(max_examples=50)
    def test_mix_contracts_tvd(self, a, b, w):
        """Mixing toward b moves a's distribution toward b."""
        mixed = a.mix(b, w)
        assert mixed.tvd(b) <= a.tvd(b) + 1e-12


class TestSampling:
    @given(pmf_strategy(2), st.integers(1, 64))
    @settings(max_examples=30)
    def test_sample_counts_valid_pmf(self, pmf, shots):
        rng = np.random.default_rng(0)
        emp = Counts.from_pmf_samples(pmf, shots, rng).to_pmf()
        assert np.isclose(emp.probs.sum(), 1.0)
        assert emp.qubits == pmf.qubits
        # Empirical probabilities are multiples of 1/shots.
        scaled = emp.probs * shots
        assert np.allclose(scaled, np.round(scaled), atol=1e-9)
