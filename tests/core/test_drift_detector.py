"""Construction checks for the streaming drift detector."""

import pytest

from repro.core.recalibrate import DriftDetector


@pytest.mark.parametrize(
    ("threshold", "allowance"),
    [(0.0, 0.0), (True, 0.0), (float("nan"), 0.0), (0.25, -0.1),
     (0.25, float("nan")), (0.25, False)],
)
def test_bad_threshold_or_allowance_rejected(threshold, allowance):
    # A NaN allowance would make the CUSUM statistic NaN, so the
    # detector would never alarm.
    with pytest.raises(ValueError):
        DriftDetector(threshold, allowance=allowance)


def test_valid_detector_starts_quiet():
    detector = DriftDetector(0.25, allowance=0.12)
    assert detector.statistic == 0.0
    assert detector.alarms == 0
