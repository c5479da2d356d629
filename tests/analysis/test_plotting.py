"""Unit tests for the sparkline glyphs."""

import pytest

from repro.analysis import sparkline


class TestSparkline:
    def test_length_matches_input(self):
        assert len(sparkline([1, 2, 3])) == 3

    def test_monotone_series_monotone_glyphs(self):
        glyphs = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert list(glyphs) == sorted(glyphs)

    def test_constant_series(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sparkline([])
