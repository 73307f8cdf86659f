"""The benchmark's one set of statistics.

Timings are reported over the whole run: a throughput is total bytes
(or calls) over total time, and latency is a median plus the highest
percentile that still has at least ``MIN_BEYOND`` samples beyond it,
always with the sample count.  Two arms measured on the same input are
compared as a paired median of ratios, so drift common to both arms
cancels.  Medians are :func:`statistics.median`; quantiles are numpy's
linear ones.
"""

from __future__ import annotations

import math
from statistics import median

import numpy as np

__all__ = ["MIN_BEYOND", "P_WANT", "supported_percentile",
           "latency_summary", "paired_median_ratio"]

#: samples that must lie beyond a reported percentile
MIN_BEYOND = 10
#: the tail percentile every latency figure reports
P_WANT = 90.0
_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def supported_percentile(n: int) -> float | None:
    """Highest candidate percentile with ``MIN_BEYOND`` samples past it."""
    for p in _CANDIDATES:
        if n * (1.0 - p / 100.0) >= MIN_BEYOND - 1e-9:
            return p
    return None


def latency_summary(samples_ms) -> dict:
    """Median, ``P_WANT``, and whether the sample supports it.

    ``P_WANT`` is reported regardless, flagged ``supported`` only when at
    least ``MIN_BEYOND`` samples lie beyond it.
    """
    xs = np.asarray(samples_ms, dtype=float)
    n = len(xs)
    return {
        "n": n,
        "p50": float(np.quantile(xs, 0.5)),
        f"p{P_WANT:g}": float(np.quantile(xs, P_WANT / 100.0)),
        "supported": n * (1.0 - P_WANT / 100.0) >= MIN_BEYOND - 1e-9,
        "beyond": int(n - math.ceil(n * P_WANT / 100.0)),
        "top_pct": supported_percentile(n),
    }


def paired_median_ratio(base, other) -> float:
    """Median over pairs of ``other[i] / base[i]``."""
    ratios = [o / b for b, o in zip(base, other) if b > 0]
    if not ratios:
        raise ValueError("no usable pairs")
    return median(ratios)
