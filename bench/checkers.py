"""Reference computations the benchmark checks the program against.

Nothing here imports ``biathlon_bayes``: every number is derived again from
the draws, the data file or first principles, so a fault in the program
cannot hide in its own checker.

* :func:`bulk_ess`, :func:`tail_ess`, :func:`rank_rhat` -- rank-normalized
  split-chain diagnostics of Vehtari, Gelman, Simpson, Carpenter and
  Buerkner (2021, arXiv:1903.08008), with the multi-chain autocorrelation
  estimate and Geyer's truncation.
* :func:`mean_ess` -- the same estimator on the raw split chains, for the
  Monte Carlo standard error of a mean.
* :func:`golden_quadrature` -- a 1-D grid quadrature of the golden
  dataset's one-parameter posterior.
* :func:`type1_quantile` -- the inverse-CDF order statistic by a plain sort.
* :func:`binomial_band` -- a two-sided acceptance band for a Binomial count.
* :func:`uniform_ranks_pvalue` -- a chi-square test that SBC ranks are
  uniform.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special, stats


# ---------------------------------------------------------------------------
# split chains, rank normalization


def _split(chains: np.ndarray) -> np.ndarray:
    """(M, N) chains -> (2M, N//2) halves; a middle draw of an odd N is dropped."""
    chains = np.asarray(chains, dtype=float)
    if chains.ndim != 2:
        raise ValueError(f"expected a (chains, draws) matrix, got shape {chains.shape}")
    half = chains.shape[1] // 2
    if half < 2:
        raise ValueError("need at least 4 draws per chain")
    return np.concatenate([chains[:, :half], chains[:, -half:]], axis=0)


def _rank_normalize(x: np.ndarray) -> np.ndarray:
    """Normal scores of the pooled average ranks (Blom's offset 3/8)."""
    ranks = stats.rankdata(x, method="average").reshape(x.shape)
    return special.ndtri((ranks - 0.375) / (x.size + 0.25))


# ---------------------------------------------------------------------------
# effective sample size and R-hat


def _autocov(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance of each row, lags 0..N-1, via zero-padded FFT."""
    n = x.shape[1]
    y = x - x.mean(axis=1, keepdims=True)
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(y, nfft, axis=1)
    return np.fft.irfft(f * np.conj(f), nfft, axis=1)[:, :n] / n


def _ess(chains: np.ndarray) -> float:
    """Multi-chain ESS of (M, N) chains (no splitting or normalization here)."""
    m, n = chains.shape
    acov = _autocov(chains)
    chain_var = acov[:, 0] * n / (n - 1)
    w = chain_var.mean()
    var_plus = w * (n - 1) / n
    if m > 1:
        var_plus += chains.mean(axis=1).var(ddof=1)
    if not var_plus > 0.0:
        return float("nan")
    rho = 1.0 - (w - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    # Geyer's initial positive sequence: sums of adjacent lag pairs, kept
    # while positive and forced to be non-increasing.
    pairs = []
    prev = math.inf
    for k in range(0, n - 1, 2):
        p = rho[k] + rho[k + 1]
        if p <= 0.0:
            break
        prev = min(prev, p)
        pairs.append(prev)
    tau = -1.0 + 2.0 * float(np.sum(pairs))
    tau = max(tau, 1.0 / math.log10(m * n))
    return float(m * n / tau)


def bulk_ess(chains) -> float:
    """Bulk ESS: ESS of the rank-normalized split chains."""
    return _ess(_rank_normalize(_split(chains)))


def tail_ess(chains) -> float:
    """Tail ESS: the smaller ESS of the 5% and 95% quantile indicators."""
    sp = _split(chains)
    lo, hi = np.quantile(sp, [0.05, 0.95])
    return min(_ess((sp <= lo).astype(float)), _ess((sp <= hi).astype(float)))


def mean_ess(chains) -> float:
    """ESS of the raw split chains: the one that sets the MCSE of a mean."""
    return _ess(_split(chains))


def _rhat(sp: np.ndarray) -> float:
    n = sp.shape[1]
    w = sp.var(axis=1, ddof=1).mean()
    b = n * sp.mean(axis=1).var(ddof=1)
    return float(math.sqrt(((n - 1) / n * w + b / n) / w))


def rank_rhat(chains) -> float:
    """Rank-normalized split R-hat: the larger of the bulk and folded values."""
    sp = _split(chains)
    folded = np.abs(sp - np.median(sp))
    return max(_rhat(_rank_normalize(sp)), _rhat(_rank_normalize(folded)))


def ar1_ess(n: int, rho: float) -> float:
    """Asymptotic ESS of n draws of a stationary AR(1) chain: n(1-rho)/(1+rho)."""
    return n * (1.0 - rho) / (1.0 + rho)


def ar1_chains(rng: np.random.Generator, shape: tuple[int, ...], rho: float) -> np.ndarray:
    """Stationary unit-variance AR(1) series along the last axis of ``shape``."""
    eps = rng.standard_normal(shape)
    out = np.empty(shape)
    out[..., 0] = eps[..., 0]
    innov = math.sqrt(1.0 - rho * rho)
    for t in range(1, shape[-1]):
        out[..., t] = rho * out[..., t - 1] + innov * eps[..., t]
    return out


# ---------------------------------------------------------------------------
# quadrature, quantiles, bands


def golden_quadrature(hits, shots_per_bout: int = 5, lo: float = -12.0,
                      hi: float = 12.0, n: int = 200_001) -> tuple[float, float]:
    """Posterior mean and sd of a logit-scale baseline ``m`` with prior
    N(0, 1) and ``hits[i] ~ Binomial(shots_per_bout, 1/(1+exp(-m)))``.

    Composite Simpson rule on ``[lo, hi]`` (``n`` odd), computed in log
    space; the binomial coefficients cancel under normalization.
    """
    if n % 2 == 0:
        raise ValueError("Simpson's rule needs an odd node count")
    y = float(np.sum(hits))
    trials = shots_per_bout * len(hits)
    m = np.linspace(lo, hi, n)
    logf = -0.5 * m * m - y * np.log1p(np.exp(-m)) - (trials - y) * np.log1p(np.exp(m))
    f = np.exp(logf - logf.max())
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    z = float(w @ f)
    mean = float(w @ (m * f)) / z
    var = float(w @ ((m - mean) ** 2 * f)) / z
    return mean, math.sqrt(var)


def type1_quantile(values, q: float) -> float:
    """Inverse-CDF quantile: element ceil(q*n) (1-based) of the sorted values."""
    srt = sorted(float(v) for v in values)
    if not srt:
        raise ValueError("no values")
    k = min(len(srt), max(1, math.ceil(q * len(srt))))
    return srt[k - 1]


def binomial_band(r: int, p: float, alpha: float) -> tuple[int, int]:
    """Counts [lo, hi] with P(X < lo) <= alpha/2 and P(X > hi) <= alpha/2
    for X ~ Binomial(r, p), from the pmf summed exactly."""
    pmf = [math.comb(r, k) * p**k * (1.0 - p) ** (r - k) for k in range(r + 1)]
    lo, acc = 0, 0.0
    while acc + pmf[lo] <= alpha / 2.0:
        acc += pmf[lo]
        lo += 1
    hi, acc = r, 0.0
    while acc + pmf[hi] <= alpha / 2.0:
        acc += pmf[hi]
        hi -= 1
    return lo, hi


def uniform_ranks_pvalue(ranks, n_draws: int, n_bins: int) -> float:
    """Chi-square p-value that integer ranks in 0..n_draws are uniform.

    Ranks are mapped to (rank + 0.5) / (n_draws + 1) and binned into
    ``n_bins`` equal bins; pass ``n_draws + 1`` divisible by ``n_bins`` for
    an exactly uniform null.
    """
    u = (np.asarray(ranks, dtype=float).ravel() + 0.5) / (n_draws + 1)
    counts = np.bincount(np.minimum((u * n_bins).astype(int), n_bins - 1), minlength=n_bins)
    expected = u.size / n_bins
    chi2 = float(((counts - expected) ** 2).sum() / expected)
    return float(stats.chi2.sf(chi2, n_bins - 1))
