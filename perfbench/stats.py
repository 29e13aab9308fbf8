"""Order statistics the benchmark reports."""

from __future__ import annotations

import math

#: A tail percentile is reported only with at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between order statistics."""
    values = sorted(samples)
    if not values:
        raise ValueError("percentile of no samples")
    pos = (len(values) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(values) - 1)
    if values[hi] == values[lo]:  # also keeps two infinite samples from giving NaN
        return values[lo]
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def tail_percentile(n: int, wanted: float = 99.0) -> float | None:
    """The highest percentile up to ``wanted`` that leaves >= 10 of ``n`` samples beyond it.

    Candidates are the whole-number percentiles; ``None`` when even the
    median leaves fewer than ten samples beyond it.
    """
    for q in range(int(wanted), 49, -1):
        if n * (100 - q) / 100.0 >= TAIL_MIN_BEYOND - 1e-9:
            return float(q)
    return None


def median(samples) -> float:
    return percentile(samples, 50.0)
