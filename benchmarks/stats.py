"""Order statistics shared by the benchmark, the sweep and the compare tool."""

from __future__ import annotations

import math
import statistics


def percentile(values, pct: float) -> float:
    """Linear-interpolation percentile of a non-empty sample."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    xs = list(values)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Inter-quartile range as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf
