"""Order statistics shared by the workloads, the load driver and the tests."""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``.

    Nearest rank returns an observed sample, never an interpolation, so
    a p99 over fewer than 100 samples is simply the largest one.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile q must lie in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def median(values: Sequence[float]) -> float:
    """The sample median (mean of the middle pair for even sizes)."""
    if not values:
        raise ValueError("median of an empty sample")
    return statistics.median(values)


def histogram_percentile(bounds: Sequence[float], cumulative: Sequence[int],
                         q: float) -> float:
    """A percentile from cumulative histogram buckets, interpolated.

    ``bounds`` are the finite upper bounds of a Prometheus histogram in
    increasing order, and ``cumulative`` their ``le`` counts followed by
    the ``+Inf`` count.  Linear interpolation within the bucket that
    holds the rank, as Prometheus' ``histogram_quantile`` does; a rank
    in the ``+Inf`` bucket returns the largest finite bound.
    """
    if len(cumulative) != len(bounds) + 1:
        raise ValueError("need one cumulative count per bound plus +Inf")
    total = cumulative[-1]
    if total <= 0:
        raise ValueError("percentile of an empty histogram")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile q must lie in (0, 100], got {q}")
    rank = q / 100.0 * total
    lower_bound, lower_count = 0.0, 0
    for bound, count in zip(bounds, cumulative):
        if count >= rank:
            inside = count - lower_count
            share = (rank - lower_count) / inside if inside else 1.0
            return lower_bound + (bound - lower_bound) * share
        lower_bound, lower_count = bound, count
    return bounds[-1]
