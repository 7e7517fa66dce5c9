"""Summary statistics under the benchmark's reporting rules."""
from __future__ import annotations

import statistics

# a tail percentile is reported only when this many samples lie beyond it
MIN_TAIL_SAMPLES = 10


def median(values) -> float:
    return float(statistics.median(values))


def tail_percentile(values, p: int) -> float | None:
    """The p-th percentile (1 <= p <= 99, linearly interpolated as numpy's
    default), or None when fewer than MIN_TAIL_SAMPLES samples lie beyond
    it (p90 needs at least 100 samples)."""
    beyond = len(values) * (100 - p) / 100.0
    if beyond + 1e-9 < MIN_TAIL_SAMPLES:
        return None
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def quartile_spread(values) -> float:
    """Distance between the first and third quartile over the median, as
    ``statistics.quantiles(values, n=4)`` gives the quartiles."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
