"""Order statistics the benchmark reports: medians, quartiles and tails.

A tail percentile is only worth reporting when enough samples lie
beyond it to pin it down; :func:`supported_percentile` is that rule.
Latency percentiles are taken over the whole run's sample: a 20 s run
of the slowest workload holds over 11000 requests, so its p99 has more
than 110 beyond it.
"""

from __future__ import annotations

import statistics
from typing import Optional, Sequence, Tuple

#: Samples that must lie beyond a tail percentile before it counts as
#: measured there: p99 needs at least 8000 samples.
TAIL_SAMPLES = 80

#: Percentiles considered, highest first.
LADDER: Tuple[float, ...] = (99.9, 99.0, 95.0, 90.0, 50.0)


def supported_percentile(n: int, tail: int = TAIL_SAMPLES) -> Optional[float]:
    """The highest percentile on :data:`LADDER` with ``tail`` of ``n`` samples beyond it.

    ``None`` when even the median is not supported.
    """
    for p in LADDER:
        # 1e-9 absorbs the rounding in 100 - 99.9.
        if n * (100.0 - p) / 100.0 + 1e-9 >= tail:
            return p
    return None


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile, as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for a zero median)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0
