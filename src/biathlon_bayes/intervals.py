"""Empirical quantiles and tail probabilities for draw-based summaries.

Every interval in this package is an *empirical* quantile pair, recomputable
by an independent sort of the same draws: the q-quantile of n sorted values
is element ceil(q*n) (1-based, clamped to 1..n).  No interpolation, so hit
counts stay integers and bounds are exactly reproducible.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError


def sorted_quantile(sorted_values: np.ndarray, q: float, axis: int = 0):
    """Type-1 (inverse-CDF) empirical quantile of values already sorted along
    ``axis``; one order statistic per position on the other axes."""
    if not 0.0 <= q <= 1.0:
        raise DataError(f"quantile level outside [0, 1]: {q}")
    n = sorted_values.shape[axis]
    if n == 0:
        raise DataError("no draws")
    k = min(n, max(1, math.ceil(q * n)))
    return np.take(sorted_values, k - 1, axis=axis)


def empirical_quantile(values, q: float, axis: int | None = None):
    """Type-1 empirical quantile of the flattened values, or along ``axis``."""
    arr = np.asarray(values)
    if axis is None:
        arr, axis = arr.ravel(), 0
    return sorted_quantile(np.sort(arr, axis=axis), q, axis)


def central_interval(values, level: float = 0.95):
    """Central empirical interval (defaults to the 2.5%/97.5% pair)."""
    tail = (1.0 - level) / 2.0
    return empirical_quantile(values, tail), empirical_quantile(values, 1.0 - tail)


def mid_p_tail(draws, observed: float) -> float:
    """Mid-p upper tail probability: P(T > obs) + 0.5 P(T = obs)."""
    arr = np.asarray(draws, dtype=float).ravel()
    if arr.size == 0:
        raise DataError("no draws")
    return float((np.sum(arr > observed) + 0.5 * np.sum(arr == observed)) / arr.size)
