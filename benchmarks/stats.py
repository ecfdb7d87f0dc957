"""Order statistics for benchmark samples (stdlib only)."""

from __future__ import annotations

import statistics

# Candidate tail percentiles, highest last.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def percentile(values, pct: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values) -> tuple[float, float]:
    """(percentile, value) of the highest candidate with >= 10 samples beyond it.

    With fewer than 20 samples no candidate qualifies and the median is
    returned; the sample count recorded next to it tells the reader so.
    """
    n = len(values)
    chosen = TAIL_PERCENTILES[0]
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= MIN_BEYOND:
            chosen = pct
    return chosen, percentile(values, chosen)


def summary(values) -> dict:
    """Median, tail percentile and count of a latency sample."""
    pct, value = tail(values)
    return {
        "p50": statistics.median(values),
        "tail": value,
        "tail_percentile": pct,
        "n": len(values),
    }
