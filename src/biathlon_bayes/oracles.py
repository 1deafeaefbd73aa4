"""Independent correctness oracles for the model and sampler.

Three checks that deliberately share no code with the paths they verify:

* :func:`quadrature_posterior` — deterministic grid quadrature for the
  one-free-parameter reduced model, used as ground truth for the MCMC
  engine.  The binomial-logit density is re-derived here from scratch.
* :func:`gradient_check` — central finite differences against the analytic
  gradient, with optional stub injection for fault testing.
* :func:`sbc` — simulation-based calibration of the full prior/simulate/fit
  loop: if the pipeline is correct, the rank of the true parameter among
  posterior draws is uniform.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy import stats

from .data import Dataset, SessionRecord
from .errors import DataError, NumericalError
from .intervals import quantile_rank
from .model import (
    ModelSpec,
    from_vector,
    grad_log_posterior,
    layout,
    log_posterior,
    param_names,
    sample_prior,
    to_vector,
)
from .sampler import SamplerConfig, run_stack, worker_cap
from .streams import rng_for, seed_sequence
from .synth import SynthConfig, generate_synthetic

__all__ = [
    "QuadratureResult",
    "GradientCheckResult",
    "SBCReport",
    "golden_quadrature_dataset",
    "quadrature_posterior",
    "gradient_check",
    "sbc",
]


# ---------------------------------------------------------------------------
# quadrature oracle for the one-parameter reduced model


def golden_quadrature_dataset() -> tuple[Dataset, ModelSpec]:
    """The fixed tiny dataset used to pin the sampler against quadrature.

    Three sessions with 5, 4, and 3 hits (12/15 overall) under the reduced
    single-baseline model: one stage, hierarchy disabled, so the only free
    coordinate is the stage baseline.
    """
    records = (
        SessionRecord("a", 1, "sprint", "prone", 1, 1, 5),
        SessionRecord("a", 1, "sprint", "standing", 1, 2, 4),
        SessionRecord("b", 1, "sprint", "prone", 1, 1, 3),
    )
    d = Dataset.from_records(records)
    return d, ModelSpec(S=d.n_athletes, T=1, Z=2, mu_only=True)


def _reduced_log_density(grid: np.ndarray, hits: np.ndarray) -> np.ndarray:
    # Re-derived from first principles, independent of the model module:
    # standard-normal prior on the single baseline, binomial(5, logistic)
    # likelihood.  Binomial coefficients are constant in the parameter and
    # cancel under normalization, so they are omitted.
    log_p = -np.logaddexp(0.0, -grid)
    log_q = -np.logaddexp(0.0, grid)
    y = float(hits.sum())
    misses = 5.0 * hits.size - y
    return -0.5 * grid**2 + y * log_p + misses * log_q


def _grid_moments(grid: np.ndarray, logf: np.ndarray) -> tuple[float, float, np.ndarray]:
    # Trapezoid normalization; returns (mean, sd, normalized cell weights).
    dx = grid[1] - grid[0]
    f = np.exp(logf - logf.max())
    w = f * dx
    w[0] *= 0.5
    w[-1] *= 0.5
    w /= w.sum()
    mean = float(w @ grid)
    var = float(w @ (grid - mean) ** 2)
    return mean, float(np.sqrt(var)), w


@dataclass(frozen=True)
class QuadratureResult:
    """Deterministic posterior summary for a one-parameter model."""

    mean: float
    sd: float
    quantiles: dict[float, float]
    n_nodes: int
    refinement_delta: float


# posterior quantiles reported by the quadrature oracle
_QUADRATURE_LEVELS = (0.025, 0.25, 0.5, 0.75, 0.975)


def quadrature_posterior(
    spec: ModelSpec,
    dataset: Dataset,
    lo: float = -10.0,
    hi: float = 10.0,
    n_nodes: int = 10_001,
) -> QuadratureResult:
    """Grid-quadrature posterior for the reduced single-baseline model.

    Integrates prior x likelihood on ``[lo, hi]`` with a trapezoid rule and
    verifies convergence by doubling the grid; the returned summaries come
    from the doubled grid.

    Raises
    ------
    DataError
        If the spec has more than one free coordinate.
    NumericalError
        If doubling the grid moves the posterior mean by 1e-6 or more.
    """
    if not (spec.mu_only and spec.T == 1):
        raise DataError("quadrature oracle requires a single free coordinate")
    if n_nodes < 10_000:
        raise DataError("quadrature grid needs at least 10^4 nodes")
    for rec in dataset.records:
        if rec.stage != 1:
            raise DataError("reduced model expects all sessions in stage 1")

    hits = np.array([rec.hits for rec in dataset.records], dtype=float)

    grid1 = np.linspace(lo, hi, n_nodes)
    mean1, _, _ = _grid_moments(grid1, _reduced_log_density(grid1, hits))

    grid2 = np.linspace(lo, hi, 2 * n_nodes - 1)
    mean2, sd2, w2 = _grid_moments(grid2, _reduced_log_density(grid2, hits))

    delta = abs(mean2 - mean1)
    if not np.isfinite(delta) or delta >= 1e-6:
        raise NumericalError(
            f"quadrature not converged: grid doubling moved the mean by {delta:.3e}"
        )

    cdf = np.cumsum(w2)
    cdf /= cdf[-1]
    quantiles = {
        q: float(np.interp(q, cdf, grid2)) for q in _QUADRATURE_LEVELS
    }
    return QuadratureResult(
        mean=mean2,
        sd=sd2,
        quantiles=quantiles,
        n_nodes=grid2.size,
        refinement_delta=delta,
    )


# ---------------------------------------------------------------------------
# finite-difference gradient check


@dataclass(frozen=True)
class GradientCheckResult:
    """Worst-case disagreement between analytic and numeric gradients."""

    max_rel_error: float
    worst_point: int
    worst_coordinate: int
    coordinate_name: str | None
    n_points: int
    dim: int


# finite-difference step per unit of (1 + |x_i|)
_FD_STEP = 1e-5


def gradient_check(
    spec: ModelSpec | None,
    dataset: Dataset | None,
    n_points: int = 100,
    seed: int = 0,
    fn: Callable[[np.ndarray], float] | None = None,
    grad_fn: Callable[[np.ndarray], np.ndarray] | None = None,
    dim: int | None = None,
) -> GradientCheckResult:
    """Compare a gradient to central finite differences at random points.

    By default the subject is the model's log-posterior/gradient pair on
    ``(spec, dataset)``.  Passing ``fn`` and ``grad_fn`` substitutes an
    arbitrary pair (used for fault-injection tests); then ``dim`` gives the
    input dimension (defaulting to ``spec.dim``).

    The step is ``1e-5 * (1 + |x_i|)`` per coordinate and the relative
    error is ``|a - f| / max(1, |a|, |f|)``.
    """
    if n_points < 1:
        raise DataError("n_points must be positive")
    names: tuple[str, ...] | None = None
    if fn is None or grad_fn is None:
        if spec is None or dataset is None:
            raise DataError("default gradient check needs a spec and dataset")
        fn = lambda x: log_posterior(from_vector(x, spec), dataset, spec)  # noqa: E731
        grad_fn = lambda x: grad_log_posterior(from_vector(x, spec), dataset, spec)  # noqa: E731
        dim = spec.dim
        names = param_names(spec)
    elif dim is None:
        if spec is None:
            raise DataError("stub gradient check needs an explicit dim or spec")
        dim = spec.dim

    rng = rng_for(seed, 0xF0)
    worst = (0.0, 0, 0)
    for k in range(n_points):
        x = rng.normal(0.0, 0.5, size=dim)
        if spec is not None and not spec.mu_only and dim == spec.dim:
            x[layout(spec).sigma] = rng.normal(0.0, 0.25, size=4)
        analytic = np.asarray(grad_fn(x), dtype=float)
        if analytic.shape != (dim,):
            raise DataError("grad_fn returned the wrong shape")
        for i in range(dim):
            h = _FD_STEP * (1.0 + abs(x[i]))
            xp = x.copy()
            xm = x.copy()
            xp[i] += h
            xm[i] -= h
            fd = (fn(xp) - fn(xm)) / (2.0 * h)
            rel = abs(analytic[i] - fd) / max(1.0, abs(analytic[i]), abs(fd))
            if rel > worst[0]:
                worst = (rel, k, i)
    return GradientCheckResult(
        max_rel_error=worst[0],
        worst_point=worst[1],
        worst_coordinate=worst[2],
        coordinate_name=names[worst[2]] if names is not None else None,
        n_points=n_points,
        dim=dim,
    )


# ---------------------------------------------------------------------------
# simulation-based calibration


N_RANK_BINS = 20


@dataclass(frozen=True)
class SBCReport:
    """Aggregate result of a simulation-based calibration run.

    ``ranks[r, d]`` is the number of pooled posterior draws below the true
    value of parameter ``d`` in successful replication ``r``; ranks lie in
    ``[0, n_pooled]`` and are binned into ``N_RANK_BINS`` equal bins for the
    chi-square uniformity test (Bonferroni-corrected across parameters).
    Coverage arrays give, per parameter, the fraction of replications whose
    central 50%/90% posterior interval contained the truth.
    """

    ranks: np.ndarray
    n_pooled: int
    param_names: tuple[str, ...]
    bins: np.ndarray
    chi2: np.ndarray
    p_values: np.ndarray
    alpha: float
    uniform_ok: bool
    coverage50: np.ndarray
    coverage90: np.ndarray
    replications: int
    attempted: int
    failures: tuple[int, ...]
    seeds: tuple[tuple[int, int, int], ...]

    def coverage90_ok(self) -> bool:
        """Whether every parameter's 90%-interval coverage count lies in the
        central Binomial(replications, 0.9) band at level ``alpha``: under a
        correct pipeline each count is Binomial(R, 0.9) at any R."""
        r = self.replications
        lo = stats.binom.ppf(self.alpha / 2.0, r, 0.9)
        hi = stats.binom.isf(self.alpha / 2.0, r, 0.9)
        counts = np.rint(self.coverage90 * r)
        return bool(((counts >= lo) & (counts <= hi)).all())

    def to_json_dict(self) -> dict:
        return {
            "replications": self.replications,
            "attempted": self.attempted,
            "failures": list(self.failures),
            "n_pooled": self.n_pooled,
            "n_bins": int(self.bins.shape[1]),
            "alpha": self.alpha,
            "uniform_ok": self.uniform_ok,
            "min_p_value": float(self.p_values.min()),
            "coverage50_mean": float(self.coverage50.mean()),
            "coverage90_mean": float(self.coverage90.mean()),
            "coverage90_ok": self.coverage90_ok(),
        }


def _seed_int(*keys: int) -> int:
    return int(seed_sequence(*keys).generate_state(1, np.uint64)[0])


def _counts(draws: np.ndarray, truth: np.ndarray, axis: int):
    """Per coordinate, the draws along ``axis`` below ``truth`` and the draws
    at or below it."""
    return (draws < truth).sum(axis=axis), (draws <= truth).sum(axis=axis)


def _stacked_counts(spec, seasons, truths, sampler_cfg, fit_seeds):
    """Each season's ``(draw count, below, at or below)`` of its true
    coordinates ``truths[r]`` from one stacked fit, summed chain by chain
    so that one chain's draws are held at a time, or None for every season
    if that fit fails."""
    below = at_or_below = 0
    try:
        for draws in run_stack(spec, seasons, sampler_cfg, fit_seeds):  # (seasons, retained, dim)
            lt, le = _counts(draws, truths[:, None], axis=1)
            below, at_or_below = below + lt, at_or_below + le
            del draws  # before the next chain runs
    except (DataError, NumericalError):
        return [None] * len(seasons)
    n = sampler_cfg.n_chains * sampler_cfg.n_retained
    return [(n, b, a) for b, a in zip(below, at_or_below)]


def _one_fit_counts(fit_fn, dataset, truth, spec, sampler_cfg, fit_seed):
    """``fit_fn``'s ``(draw count, below, at or below)`` of one season's
    true coordinates, or None if it fails or returns draws of the wrong
    shape."""
    try:
        pooled = np.asarray(fit_fn(dataset, spec, sampler_cfg, fit_seed), dtype=float)
    except (DataError, NumericalError):
        return None
    if pooled.ndim != 2 or pooled.shape[1] != spec.dim:
        return None
    return (pooled.shape[0], *_counts(pooled, truth, axis=0))


def _covers(n: int, below, at_or_below, lo: float, hi: float):
    """Whether the central interval between the type-1 ``lo`` and ``hi``
    quantiles of ``n`` draws holds each truth, from the counts of draws
    below it and at or below it (``intervals.quantile_rank``): the same
    answer as sorting the draws, ties included."""
    return (at_or_below >= quantile_rank(n, lo)) & (below < quantile_rank(n, hi))


def sbc(
    spec: ModelSpec,
    synth_cfg: SynthConfig,
    replications: int = 100,
    sampler_cfg: SamplerConfig | None = None,
    seed: int = 0,
    fit_fn: Callable[[Dataset, ModelSpec, SamplerConfig, int], np.ndarray] | None = None,
) -> SBCReport:
    """Simulation-based calibration of the prior → simulate → fit loop.

    Per replication: draw true parameters from the model prior, simulate a
    season with them, fit the model, and record the rank of each true
    coordinate among the pooled retained draws (the retention thinning
    interval supplies near-independence).  With a correct pipeline each
    rank is uniform, so per-parameter chi-square tests on the binned ranks
    should not reject and central intervals should cover at nominal rates.

    The real sampler fits every simulated season as one stacked chain
    (``sampler.run_stack``), replication r from the streams of its own fit
    seed: its draws are those of any stack that holds it, so they do not
    depend on the other replications.  A DataError or NumericalError in
    that fit fails every replication of the stack.  The ranks and the
    coverage need only each replication's counts of draws below and at or
    below each truth, so the fit's chains are counted one at a time and
    never held together.

    ``fit_fn(dataset, spec, sampler_cfg, fit_seed) -> (M, dim) array`` may
    replace the real sampler (used by fault-injection tests); it fits one
    replication at a time, and each failure is that replication's.  A
    season that cannot be simulated fails its replication alone.  Failed
    replications are recorded; more than 10% of them fail the whole op.
    """
    if replications < 20:
        raise DataError("sbc needs at least 20 replications")
    if synth_cfg.true_params is not None:
        raise DataError("sbc draws its own true parameters; synth config must not fix them")
    if sampler_cfg is None:
        sampler_cfg = SamplerConfig()
    worker_cap()  # a bad BIATHLON_BAYES_THREADS is the caller's error, not a failed fit

    names = param_names(spec)
    dim = spec.dim
    ranks_rows: list[np.ndarray] = []
    cov50_rows: list[np.ndarray] = []
    cov90_rows: list[np.ndarray] = []
    failures: list[int] = []
    seeds: list[tuple[int, int, int]] = []
    simulated: list[tuple[int, np.ndarray, Dataset]] = []  # (replication, truth, season)
    n_pooled: int | None = None

    for r in range(replications):
        truth_seed = _seed_int(seed, r, 0)
        data_seed = _seed_int(seed, r, 1)
        fit_seed = _seed_int(seed, r, 2)
        seeds.append((truth_seed, data_seed, fit_seed))

        truth = sample_prior(spec, np.random.default_rng(np.random.SeedSequence(truth_seed)))
        try:
            d, _ = generate_synthetic(replace(synth_cfg, true_params=truth, seed=data_seed))
        except (DataError, NumericalError):
            failures.append(r)
            continue
        simulated.append((r, to_vector(truth, spec), d))

    fit_seeds = [seeds[r][2] for r, _, _ in simulated]
    seasons = [d for _, _, d in simulated]
    if fit_fn is None:
        truths = np.array([t for _, t, _ in simulated]).reshape(len(simulated), dim)
        fits = _stacked_counts(spec, seasons, truths, sampler_cfg, fit_seeds)
    else:
        fits = (_one_fit_counts(fit_fn, d, t, spec, sampler_cfg, s)
                for (_, t, d), s in zip(simulated, fit_seeds))
    for (r, _, _), counts in zip(simulated, fits):
        if counts is None:
            failures.append(r)
            continue

        n, below, at_or_below = counts
        if n_pooled is None:
            n_pooled = n
        elif n != n_pooled:
            raise NumericalError("replications returned differing retained draw counts")

        ranks_rows.append(below)
        cov50_rows.append(_covers(n, below, at_or_below, 0.25, 0.75))
        cov90_rows.append(_covers(n, below, at_or_below, 0.05, 0.95))

    failures.sort()
    if len(failures) > 0.1 * replications:
        raise NumericalError(
            f"sbc failed: {len(failures)}/{replications} replications did not fit"
        )
    assert n_pooled is not None

    ranks = np.asarray(ranks_rows, dtype=np.int64)
    n_ok = ranks.shape[0]

    # Equal-width bins over [0, n_pooled]; a rank equal to n_pooled joins
    # the last bin.  The n_pooled + 1 rank values fill the bins exactly
    # evenly under the null when n_pooled + 1 is divisible by the bin count.
    bin_idx = np.minimum(N_RANK_BINS - 1, (ranks * N_RANK_BINS) // n_pooled)
    bins = np.zeros((dim, N_RANK_BINS), dtype=np.int64)
    for dcol in range(dim):
        bins[dcol] = np.bincount(bin_idx[:, dcol], minlength=N_RANK_BINS)

    expected = n_ok / N_RANK_BINS
    chi2 = ((bins - expected) ** 2 / expected).sum(axis=1)
    p_values = stats.chi2.sf(chi2, df=N_RANK_BINS - 1)
    alpha = 0.01 / dim
    return SBCReport(
        ranks=ranks,
        n_pooled=n_pooled,
        param_names=names,
        bins=bins,
        chi2=chi2,
        p_values=p_values,
        alpha=alpha,
        uniform_ok=bool((p_values >= alpha).all()),
        coverage50=np.asarray(cov50_rows, dtype=float).mean(axis=0),
        coverage90=np.asarray(cov90_rows, dtype=float).mean(axis=0),
        replications=n_ok,
        attempted=replications,
        failures=tuple(failures),
        seeds=tuple(seeds),
    )
