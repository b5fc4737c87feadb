"""Order statistics used by every workload's report.

Kept free of numpy and of the package under test so the benchmark's
arithmetic cannot move when the program does.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

#: Percentiles a latency report may quote, lowest first.
CANDIDATE_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)
#: Samples a quoted percentile must have beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Linearly interpolated percentile (0-100) of ``values``; NaN if empty."""
    if not 0.0 <= pct <= 100.0:
        raise ValueError("pct must lie within [0, 100]")
    ordered = sorted(values)
    if not ordered:
        return math.nan
    rank = pct / 100.0 * (len(ordered) - 1)
    low, high = math.floor(rank), math.ceil(rank)
    if low == high:
        return float(ordered[low])
    fraction = rank - low
    return float(ordered[low]) * (1.0 - fraction) + float(ordered[high]) * fraction


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def highest_percentile(n_samples: int) -> float | None:
    """The highest candidate percentile with :data:`MIN_BEYOND` samples above it.

    A percentile ``p`` over ``n`` samples has ``n * (100 - p) / 100``
    samples beyond it; quoting a higher one would report a handful of
    outliers as a distribution.  ``None`` when not even the lowest
    candidate qualifies.
    """
    best = None
    for pct in CANDIDATE_PERCENTILES:
        # Round before flooring so 200 * 0.05 counts as 10, not 9.999...
        if math.floor(round(n_samples * (100.0 - pct) / 100.0, 9)) >= MIN_BEYOND:
            best = pct
    return best
