"""Small statistics helpers shared by the metrics pipeline.

Each takes a non-empty sequence of floats: a list or a numpy array.
"""

from __future__ import annotations

import numpy as np


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0-100) of a non-empty sample."""
    if len(values) == 0:
        raise ValueError("cannot take a percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    return float(np.percentile(values, q))


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
