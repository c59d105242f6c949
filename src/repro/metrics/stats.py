"""Small statistics helpers shared by the metrics pipeline.

Each takes a non-empty sequence of floats: a list or a numpy array.
"""

from __future__ import annotations

import math

import numpy as np


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0-100) of a non-empty sample."""
    if len(values) == 0:
        raise ValueError("cannot take a percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    return percentile_in_place(np.array(values, dtype=np.float64), q)


def percentile_in_place(values: np.ndarray, q: float) -> float:
    """``float(np.percentile(values, q))`` bit for bit, reordering ``values``.

    NumPy's default (linear) method, without its copy and without the
    ``np.unique`` it calls, which imports ``numpy.ma`` (about 1.25 MB)
    on first use.  ``values`` is a non-empty float64 array and
    ``0 <= q <= 100``; at most four of its positions are placed.
    """
    n = len(values)
    index = (n - 1) * (q / 100)
    if index >= n - 1:
        # NumPy then takes the last value from both sides and measures
        # the weight from index -1, which keeps the sign of a -0.0.
        lo = hi = -1
        t = index + 1
    else:
        lo = math.floor(index)
        hi = lo + 1
        t = index - lo
    # NumPy's own kth list, so that equal values of opposite sign
    # (0.0 and -0.0) land where they land in np.percentile.
    values.partition(sorted({0, -1, lo, hi}))
    if math.isnan(values[-1]):
        # NaN sorts last and is the percentile of any sample holding one.
        return float(values[-1])
    a, b = float(values[lo]), float(values[hi])
    # NumPy's lerp: from the nearer end, so the result stays in [a, b].
    d = b - a
    return a + d * t if t < 0.5 else b - d * (1 - t)


def median(values: list[float]) -> float:
    return percentile(values, 50.0)


def p90(values: list[float]) -> float:
    return percentile(values, 90.0)


def p99(values: list[float]) -> float:
    return percentile(values, 99.0)


def mean(values: list[float]) -> float:
    if len(values) == 0:
        raise ValueError("cannot take the mean of an empty sample")
    return float(np.mean(values))


def jain_fairness(values: list[float]) -> float:
    """Jain's fairness index: (Σx)² / (n·Σx²), in (0, 1].

    1.0 means everyone got the same value; 1/n means one party got
    everything.  Used here on per-request latencies, where a high index
    means the latency burden is evenly spread rather than concentrated
    on a starved few.
    """
    if len(values) == 0:
        raise ValueError("cannot take a fairness index of an empty sample")
    arr = np.asarray(values, dtype=np.float64)
    if np.any(arr < 0):
        raise ValueError("fairness values must be non-negative")
    denom = float(len(arr) * np.sum(arr * arr))
    if denom == 0.0:
        return 1.0  # all-zero sample: perfectly equal
    return float(np.sum(arr)) ** 2 / denom
