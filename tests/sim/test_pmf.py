"""Unit tests for the PMF type."""

import numpy as np
import pytest

from repro.sim import PMF


class TestConstruction:
    def test_normalizes(self):
        pmf = PMF([1.0, 3.0])
        assert np.allclose(pmf.probs, [0.25, 0.75])

    def test_default_labels(self):
        assert PMF([0.5, 0.5]).qubits == (0,)
        assert PMF([0.25] * 4).qubits == (0, 1)

    def test_custom_labels(self):
        pmf = PMF([0.25] * 4, qubits=(3, 1))
        assert pmf.qubits == (3, 1)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            PMF([0.5, 0.25, 0.25])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            PMF([0.5, -0.5])

    def test_zero_sum_rejected(self):
        with pytest.raises(ValueError):
            PMF([0.0, 0.0])

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError):
            PMF([0.5, 0.5], qubits=(0, 1))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            PMF([0.25] * 4, qubits=(1, 1))

    def test_uniform(self):
        pmf = PMF.uniform(3)
        assert np.allclose(pmf.probs, 1 / 8)

    def test_point(self):
        pmf = PMF.point(2, 0b10)
        assert pmf.as_dict() == {"10": 1.0}


class TestAccessors:
    def test_prob_of_bitstring(self):
        pmf = PMF([0.1, 0.2, 0.3, 0.4])
        assert np.isclose(pmf.as_dict()["11"], 0.4)

    def test_as_dict_cutoff(self):
        pmf = PMF([0.9, 0.1, 0.0, 0.0])
        d = pmf.as_dict()
        assert set(d) == {"00", "01"}


class TestMarginal:
    def test_marginal_of_product_distribution(self):
        # p(q0) = (0.7, 0.3), p(q1) = (0.4, 0.6), independent.
        joint = np.outer([0.7, 0.3], [0.4, 0.6]).reshape(-1)
        pmf = PMF(joint)
        assert np.allclose(pmf.marginal([0]).probs, [0.7, 0.3])
        assert np.allclose(pmf.marginal([1]).probs, [0.4, 0.6])

    def test_marginal_keeps_requested_order(self):
        joint = np.outer([0.7, 0.3], [0.4, 0.6]).reshape(-1)
        pmf = PMF(joint)
        swapped = pmf.marginal([1, 0])
        assert swapped.qubits == (1, 0)
        assert np.allclose(swapped.probs, np.outer([0.4, 0.6], [0.7, 0.3]).reshape(-1))

    def test_marginal_correlated(self):
        # Perfectly correlated bits: p(00) = p(11) = 0.5.
        pmf = PMF([0.5, 0.0, 0.0, 0.5])
        assert np.allclose(pmf.marginal([0]).probs, [0.5, 0.5])

    def test_marginal_full_set_is_identity(self):
        pmf = PMF([0.1, 0.2, 0.3, 0.4])
        assert np.allclose(pmf.marginal([0, 1]).probs, pmf.probs)

    def test_marginal_unknown_label(self):
        with pytest.raises(ValueError):
            PMF([0.5, 0.5]).marginal([3])

    def test_marginal_respects_labels(self):
        pmf = PMF([0.5, 0.0, 0.0, 0.5], qubits=(4, 7))
        marg = pmf.marginal([7])
        assert marg.qubits == (7,)
        assert np.allclose(marg.probs, [0.5, 0.5])


class TestDistances:
    def test_tvd_identical_zero(self):
        pmf = PMF([0.3, 0.7])
        assert pmf.tvd(pmf) == 0.0

    def test_tvd_disjoint_one(self):
        assert PMF([1.0, 0.0]).tvd(PMF([0.0, 1.0])) == 1.0

    def test_distance_label_mismatch(self):
        with pytest.raises(ValueError):
            PMF([0.5, 0.5], qubits=(0,)).tvd(PMF([0.5, 0.5], qubits=(1,)))


class TestSamplingAndMixing:
    def test_mix_weights(self):
        a = PMF([1.0, 0.0])
        b = PMF([0.0, 1.0])
        assert np.allclose(a.mix(b, 0.25).probs, [0.75, 0.25])

    def test_mix_weight_bounds(self):
        a = PMF([1.0, 0.0])
        with pytest.raises(ValueError):
            a.mix(a, 1.5)

    def test_equality(self):
        assert PMF([0.5, 0.5]) == PMF([1.0, 1.0])
        assert PMF([0.5, 0.5]) != PMF([0.4, 0.6])
