"""Unit tests for Bayesian reconstruction (JigSaw step 3)."""

import numpy as np
import pytest

from repro.mitigation import bayesian_reconstruct, subset_index_map
from repro.sim import PMF


class TestSubsetIndexMap:
    def test_msb_convention(self):
        # For n=2, qubits=(0,): local index is the most significant bit.
        index = subset_index_map(2, (0,))
        assert list(index) == [0, 0, 1, 1]

    def test_lsb_qubit(self):
        index = subset_index_map(2, (1,))
        assert list(index) == [0, 1, 0, 1]

    def test_pair_order_matters(self):
        forward = subset_index_map(2, (0, 1))
        backward = subset_index_map(2, (1, 0))
        assert list(forward) == [0, 1, 2, 3]
        assert list(backward) == [0, 2, 1, 3]

    def test_three_qubit_window(self):
        index = subset_index_map(3, (1, 2))
        # Outcome x=0b101 (q0=1,q1=0,q2=1) restricted to (q1,q2) = 0b01.
        assert index[0b101] == 0b01

    def test_qubit_past_the_register_rejected(self):
        with pytest.raises(ValueError, match="qubit 5 is outside"):
            subset_index_map(2, (5,))

    def test_negative_qubit_rejected(self):
        with pytest.raises(ValueError, match="qubit -1 is outside"):
            subset_index_map(2, (-1,))

    def test_repeated_qubit_rejected(self):
        with pytest.raises(ValueError, match="qubit 0 is listed twice"):
            subset_index_map(3, (0, 0))


class TestBayesianReconstruct:
    def test_no_locals_is_identity(self):
        g = PMF([0.1, 0.2, 0.3, 0.4])
        assert bayesian_reconstruct(g, []) == g

    def test_perfect_local_fixes_marginal(self):
        """After the update, the output's marginal equals the local."""
        g = PMF([0.4, 0.1, 0.1, 0.4])
        local = PMF([0.9, 0.1], qubits=(0,))
        out = bayesian_reconstruct(g, [local])
        assert np.allclose(out.marginal([0]).probs, local.probs)

    def test_preserves_conditionals(self):
        """Reconstruction rescales, keeping within-subset conditionals."""
        g = PMF([0.30, 0.20, 0.10, 0.40])
        local = PMF([0.5, 0.5], qubits=(0,))
        out = bayesian_reconstruct(g, [local])
        # P(q1=0 | q0=0) must be unchanged: 0.3/0.5 = 0.6.
        cond_before = g.probs[0] / (g.probs[0] + g.probs[1])
        cond_after = out.probs[0] / (out.probs[0] + out.probs[1])
        assert cond_after == pytest.approx(cond_before)

    def test_normalized_output(self):
        g = PMF([0.25, 0.25, 0.25, 0.25])
        local = PMF([0.7, 0.3], qubits=(1,))
        out = bayesian_reconstruct(g, [local])
        assert np.isclose(out.probs.sum(), 1.0)

    def test_zero_marginal_outcomes_stay_zero(self):
        g = PMF([0.5, 0.5, 0.0, 0.0])  # q0 always 0
        local = PMF([0.8, 0.2], qubits=(1,))
        out = bayesian_reconstruct(g, [local])
        assert out.probs[2] == 0.0 and out.probs[3] == 0.0

    def test_degenerate_local_skipped(self):
        """A local that annihilates everything is ignored, not fatal."""
        g = PMF([1.0, 0.0, 0.0, 0.0])  # only outcome 00
        local = PMF([0.0, 1.0], qubits=(0,))  # says q0 is always 1
        out = bayesian_reconstruct(g, [local])
        assert np.isclose(out.probs.sum(), 1.0)

    def test_requires_full_register_global(self):
        g = PMF([0.5, 0.5], qubits=(1,))
        with pytest.raises(ValueError):
            bayesian_reconstruct(g, [])

    def test_local_label_out_of_range(self):
        g = PMF([0.5, 0.5])
        with pytest.raises(ValueError):
            bayesian_reconstruct(g, [PMF([0.5, 0.5], qubits=(5,))])

    def test_mitigation_recovers_noisy_ghz(self):
        """The paper's core mechanism on a GHZ-like distribution.

        Take a true distribution with strong correlation, corrupt it with
        readout-like bit flips, then feed high-fidelity subset marginals:
        the reconstruction should land closer to the truth than the noisy
        global was.
        """
        true = PMF([0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5])  # GHZ-3
        # Corrupt: leak 4% of mass to each neighbor of the peaks.
        noisy = PMF(
            [0.40, 0.04, 0.04, 0.02, 0.02, 0.04, 0.04, 0.40]
        )
        locals_ = [
            true.marginal([0, 1]),
            true.marginal([1, 2]),
        ]
        out = bayesian_reconstruct(noisy, locals_)
        assert out.tvd(true) < noisy.tvd(true)

    def test_two_overlapping_locals_sequential_update(self):
        g = PMF([0.2, 0.3, 0.3, 0.2])
        l1 = PMF([0.6, 0.4], qubits=(0,))
        l2 = PMF([0.5, 0.5], qubits=(1,))
        out = bayesian_reconstruct(g, [l1, l2])
        # Last-applied local's marginal is matched exactly.
        assert np.allclose(out.marginal([1]).probs, l2.probs)
