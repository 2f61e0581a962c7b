"""Order statistics shared by the benchmark and its self-tests.

Percentiles use the nearest-rank rule on the sorted samples: the q-th
percentile of n samples is the value at 0-based rank ceil(q/100 * n) - 1.
A tail percentile is only reported when at least :data:`MIN_BEYOND`
samples lie beyond it, so it always rests on more than a handful of
outliers.
"""

from __future__ import annotations

import math
import statistics

__all__ = ["MIN_BEYOND", "MIN_BEYOND_SHARE", "percentile", "beyond",
           "tail", "spread"]

#: Samples that must lie strictly beyond a percentile for it to count.
MIN_BEYOND = 10
#: Share of the samples that must lie beyond the reported tail too, which
#: caps it at p95.  Further out, a run's few slowest operations track
#: host hiccups (GC pauses, preemption) more than the program: the p99
#: of prep-seq's 1100 block latencies moved by 40% between runs on a
#: 2-core VM.
MIN_BEYOND_SHARE = 0.05


def _rank(n: int, q: float) -> int:
    return min(n - 1, max(0, math.ceil(q / 100.0 * n - 1e-9) - 1))


def percentile(samples, q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``samples``."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(len(ordered), q)]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie past the ``q``-th percentile's rank."""
    return n - 1 - _rank(n, q) if n else 0


def tail(samples) -> dict:
    """The highest percentile with enough samples beyond it.

    Enough is :data:`MIN_BEYOND` samples and :data:`MIN_BEYOND_SHARE`
    of them: with ``k`` such samples the tail is the ``(n - k)``-th
    smallest sample, reported as percentile ``q = 100 * (n - k) / n``.
    Returns ``{"q", "value", "n", "beyond"}``.  With fewer than
    ``2 * MIN_BEYOND`` samples the median is returned instead, with its
    smaller ``beyond`` count showing that no tail percentile counts.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if not n:
        raise ValueError("tail of no samples")
    k = max(MIN_BEYOND, math.ceil(MIN_BEYOND_SHARE * n))
    q = 100.0 * (n - k) / n if n >= 2 * MIN_BEYOND else 50.0
    return {"q": q, "value": ordered[_rank(n, q)], "n": n,
            "beyond": beyond(n, q)}


def spread(values) -> float:
    """Interquartile distance as a share of the median.

    The same statistic the acceptance check applies to repeated runs:
    ``statistics.quantiles(values, n=4)`` quartiles, divided by the
    median.
    """
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
