"""Unit tests for evaluation metrics."""

import pytest

from repro.analysis import (
    arithmetic_mean,
    energy_error,
    geometric_mean,
    percent_inaccuracy_mitigated,
)


class TestPercentInaccuracyMitigated:
    def test_full_recovery_is_100(self):
        assert percent_inaccuracy_mitigated(-10.0, -7.0, -10.0) == 100.0

    def test_no_improvement_is_0(self):
        assert percent_inaccuracy_mitigated(-10.0, -7.0, -7.0) == 0.0

    def test_half_recovery(self):
        assert percent_inaccuracy_mitigated(-10.0, -8.0, -9.0) == pytest.approx(50.0)

    def test_regression_goes_negative(self):
        """Table 4 reports one negative entry; the metric allows it."""
        assert percent_inaccuracy_mitigated(-10.0, -9.0, -8.0) < 0.0

    def test_zero_reference_error(self):
        assert percent_inaccuracy_mitigated(-10.0, -10.0, -9.0) == 0.0

    def test_symmetric_in_sign_of_error(self):
        # Overshooting below ideal counts as error too.
        assert percent_inaccuracy_mitigated(-10.0, -8.0, -12.0) == 0.0


class TestOtherMetrics:
    def test_energy_error(self):
        assert energy_error(-9.0, -10.0) == 1.0

    def test_geometric_mean(self):
        assert geometric_mean([1, 100]) == pytest.approx(10.0)

    def test_geometric_mean_validation(self):
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1.0, -1.0])

    def test_arithmetic_mean(self):
        assert arithmetic_mean([1, 2, 3]) == 2.0
        with pytest.raises(ValueError):
            arithmetic_mean([])


class TestScale:
    def test_scaled_quick_default(self, monkeypatch):
        from repro.analysis import is_full_scale, scaled

        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert not is_full_scale()
        assert scaled(10, 1000) == 10

    def test_scaled_full(self, monkeypatch):
        from repro.analysis import is_full_scale, scaled

        monkeypatch.setenv("REPRO_SCALE", "full")
        assert is_full_scale()
        assert scaled(10, 1000) == 1000
