"""Unit tests for the Counts container."""

import numpy as np
import pytest

from repro.sim import PMF, Counts


class TestConstruction:
    def test_basic(self):
        counts = Counts({"00": 10, "11": 30}, qubits=(0, 1))
        assert counts.shots == 40
        assert counts["11"] == 30
        assert counts["01"] == 0

    def test_bad_bitstring_length(self):
        with pytest.raises(ValueError):
            Counts({"000": 1}, qubits=(0, 1))

    def test_bad_characters(self):
        with pytest.raises(ValueError):
            Counts({"0x": 1}, qubits=(0, 1))

    def test_negative_count(self):
        with pytest.raises(ValueError):
            Counts({"00": -1}, qubits=(0, 1))

    def test_fractional_count_rejected(self):
        with pytest.raises(ValueError, match="'01' is not a whole number"):
            Counts({"01": 2.7}, (0, 1))

    def test_whole_float_count_accepted(self):
        counts = Counts({"01": 3.0}, (0, 1))
        assert counts["01"] == 3 and isinstance(counts["01"], int)

    def test_zero_entries_dropped(self):
        counts = Counts({"00": 0, "01": 5}, qubits=(0, 1))
        assert set(counts) == {"01"}


class TestConversion:
    def test_to_pmf_normalizes(self):
        counts = Counts({"0": 1, "1": 3}, qubits=(5,))
        pmf = counts.to_pmf()
        assert pmf.qubits == (5,)
        assert np.allclose(pmf.probs, [0.25, 0.75])

    def test_empty_to_pmf_rejected(self):
        with pytest.raises(ValueError):
            Counts({}, qubits=(0,)).to_pmf()

    def test_from_pmf_samples_total(self, rng):
        counts = Counts.from_pmf_samples(PMF([0.5, 0.5]), 100, rng)
        assert counts.shots == 100

    def test_roundtrip_statistics(self, rng):
        pmf = PMF([0.1, 0.2, 0.3, 0.4])
        counts = Counts.from_pmf_samples(pmf, 100_000, rng)
        assert pmf.tvd(counts.to_pmf()) < 0.01


class TestMergeAndMode:
    def test_most_frequent(self):
        counts = Counts({"01": 5, "10": 9}, qubits=(0, 1))
        assert counts.most_frequent() == "10"

    def test_most_frequent_empty(self):
        with pytest.raises(ValueError):
            Counts({}, qubits=(0,)).most_frequent()
