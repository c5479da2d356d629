"""Terminal sparklines for tuning traces.

Offline environments (including this reproduction's benchmarks) have no
matplotlib; one line of glyphs is enough to see the paper's
energy-vs-iteration figures take shape.
"""

from __future__ import annotations

__all__ = ["sparkline"]

_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def sparkline(values) -> str:
    """One-line trend glyph string, e.g. '▇▅▃▂▁▁'."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("empty series")
    low, high = min(values), max(values)
    if high == low:
        return _SPARK_CHARS[0] * len(values)
    span = high - low
    return "".join(
        _SPARK_CHARS[
            min(
                len(_SPARK_CHARS) - 1,
                int((v - low) / span * len(_SPARK_CHARS)),
            )
        ]
        for v in values
    )
