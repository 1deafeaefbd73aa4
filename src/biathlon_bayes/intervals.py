"""Empirical quantiles and tail probabilities for draw-based summaries.

Every interval in this package is an *empirical* quantile pair, recomputable
by an independent sort of the same draws: the q-quantile of n sorted values
is element ceil(q*n) (1-based, clamped to 1..n).  No interpolation, so hit
counts stay integers and bounds are exactly reproducible.

:func:`summary` is the one "mean, median and central 95% band of the draws"
that every posterior and predictive summary reports.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError


def quantile_rank(n: int, q: float) -> int:
    """The 1-based rank ``k`` of the order statistic that is the type-1
    q-quantile of ``n`` values.  With counts instead of a sort: the
    quantile is at most t iff at least k values are, and at least t iff
    fewer than k values are below t."""
    if not 0.0 <= q <= 1.0:
        raise DataError(f"quantile level outside [0, 1]: {q}")
    if n == 0:
        raise DataError("no draws")
    return min(n, max(1, math.ceil(q * n)))


def sorted_quantile(sorted_values: np.ndarray, q: float, axis: int = 0):
    """Type-1 (inverse-CDF) empirical quantile of values already sorted along
    ``axis``; one order statistic per position on the other axes."""
    k = quantile_rank(sorted_values.shape[axis], q)
    return np.take(sorted_values, k - 1, axis=axis)


def summary(draws):
    """``(mean, median, lower, upper)`` over the leading axis of ``draws``,
    the type-1 quantiles from one sort, in the summary dataclasses' field
    order.  numpy sums a 1-D array pairwise but axis 0 of a larger array row
    by row, which can differ in the last bit, so a caller passes the shape
    whose mean it reports."""
    arr = np.asarray(draws)
    srt = np.sort(arr, axis=0)
    median, lower, upper = (sorted_quantile(srt, q) for q in (0.5, 0.025, 0.975))
    return arr.mean(axis=0), median, lower, upper


def mid_p_tail(draws, observed: float) -> float:
    """Mid-p upper tail probability: P(T > obs) + 0.5 P(T = obs)."""
    arr = np.asarray(draws, dtype=float).ravel()
    if arr.size == 0:
        raise DataError("no draws")
    return float((np.sum(arr > observed) + 0.5 * np.sum(arr == observed)) / arr.size)
