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
from typing import Callable, Sequence

import numpy as np
from scipy import stats

from .data import Dataset, SessionRecord
from .errors import DataError, NumericalError
from .intervals import sorted_quantile
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
from .sampler import SamplerConfig, run_chains
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


def quadrature_posterior(
    spec: ModelSpec,
    dataset: Dataset,
    lo: float = -10.0,
    hi: float = 10.0,
    n_nodes: int = 10_001,
    quantile_levels: Sequence[float] = (0.025, 0.25, 0.5, 0.75, 0.975),
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
        float(q): float(np.interp(q, cdf, grid2)) for q in quantile_levels
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


def gradient_check(
    spec: ModelSpec | None,
    dataset: Dataset | None,
    n_points: int = 100,
    seed: int = 0,
    fn: Callable[[np.ndarray], float] | None = None,
    grad_fn: Callable[[np.ndarray], np.ndarray] | None = None,
    dim: int | None = None,
    h_scale: float = 1e-5,
) -> GradientCheckResult:
    """Compare a gradient to central finite differences at random points.

    By default the subject is the model's log-posterior/gradient pair on
    ``(spec, dataset)``.  Passing ``fn`` and ``grad_fn`` substitutes an
    arbitrary pair (used for fault-injection tests); then ``dim`` gives the
    input dimension (defaulting to ``spec.dim``).

    The step is ``h_scale * (1 + |x_i|)`` per coordinate and the relative
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
            h = h_scale * (1.0 + abs(x[i]))
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

    ``fit_fn(dataset, spec, sampler_cfg, fit_seed) -> (M, dim) array`` may
    replace the real sampler (used by fault-injection tests).  Failed
    replications are recorded; more than 10% of them fail the whole op.
    """
    if replications < 20:
        raise DataError("sbc needs at least 20 replications")
    if synth_cfg.true_params is not None:
        raise DataError("sbc draws its own true parameters; synth config must not fix them")
    if sampler_cfg is None:
        sampler_cfg = SamplerConfig()

    names = param_names(spec)
    dim = spec.dim
    ranks_rows: list[np.ndarray] = []
    cov50_rows: list[np.ndarray] = []
    cov90_rows: list[np.ndarray] = []
    failures: list[int] = []
    seeds: list[tuple[int, int, int]] = []
    n_pooled: int | None = None

    for r in range(replications):
        truth_seed = _seed_int(seed, r, 0)
        data_seed = _seed_int(seed, r, 1)
        fit_seed = _seed_int(seed, r, 2)
        seeds.append((truth_seed, data_seed, fit_seed))

        truth = sample_prior(spec, np.random.default_rng(np.random.SeedSequence(truth_seed)))
        truth_vec = to_vector(truth, spec)
        cfg_r = replace(synth_cfg, true_params=truth, seed=data_seed)
        try:
            d, _ = generate_synthetic(cfg_r)
            if fit_fn is not None:
                pooled = np.asarray(fit_fn(d, spec, sampler_cfg, fit_seed), dtype=float)
            else:
                samples = run_chains(spec, d, replace(sampler_cfg, seed=fit_seed))
                pooled = samples.pooled()
            if pooled.ndim != 2 or pooled.shape[1] != dim:
                raise NumericalError("fit returned draws of the wrong shape")
        except (DataError, NumericalError):
            failures.append(r)
            continue

        if n_pooled is None:
            n_pooled = pooled.shape[0]
        elif pooled.shape[0] != n_pooled:
            raise NumericalError("replications returned differing retained draw counts")

        ranks_rows.append((pooled < truth_vec).sum(axis=0))
        srt = np.sort(pooled, axis=0)
        lo90, lo50, hi50, hi90 = (sorted_quantile(srt, q) for q in (0.05, 0.25, 0.75, 0.95))
        cov50_rows.append((lo50 <= truth_vec) & (truth_vec <= hi50))
        cov90_rows.append((lo90 <= truth_vec) & (truth_vec <= hi90))

    if len(failures) > 0.1 * replications:
        raise NumericalError(
            f"sbc failed: {len(failures)}/{replications} replications did not fit"
        )
    assert n_pooled is not None

    ranks = np.asarray(ranks_rows, dtype=np.int64)
    n_ok = ranks.shape[0]

    # Equal-width bins over [0, n_pooled]; a rank equal to n_pooled joins
    # the last bin.  Keep n_pooled divisible by the bin count for exact
    # uniformity of the null.
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
