"""Posterior-effect summaries and posterior predictive simulation.

Everything here consumes a :class:`~biathlon_bayes.sampler.PosteriorSamples`
and is deterministic given ``(samples, seed)``.  Predictive hit counts are
drawn with one dedicated RNG stream per session template, keyed by the
template's identity rather than its position in the schedule, so reordering
templates permutes the output columns and changes nothing else.

Every summary here is :func:`~biathlon_bayes.intervals.summary` of some
draws; the predictive checks group sessions through :func:`_totals`.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import expit

from .data import RACE_TYPES, SHOTS_PER_BOUT, Dataset, SessionRecord
from .errors import DataError
from .intervals import mid_p_tail, summary
from .model import layout
from .sampler import PosteriorSamples

__all__ = [
    "EffectDraws",
    "PredictiveSummary",
    "StageAccuracySummary",
    "BetaTrajectories",
    "PositionEffects",
    "RaceEffects",
    "CumulativePath",
    "expand_draws",
    "mu_summary",
    "beta_trajectories",
    "position_effects",
    "race_effects",
    "predictive_draws",
    "simulate_schedule",
    "stage_totals_ppc",
    "race_position_ppc",
    "cumulative_hits",
]


# ---------------------------------------------------------------------------
# expanding pooled draws into full effect arrays


@dataclass(frozen=True)
class EffectDraws:
    """Pooled posterior draws expanded to the constrained parameterization.

    Attributes
    ----------
    mu : ndarray, shape (M, T)
        Stage-level baselines on the log-odds scale.
    beta : ndarray, shape (M, S, T)
        Athlete trajectories, including the constrained final athlete
        (each column sums to zero across athletes).
    gamma : ndarray, shape (M, S)
        Prone adjustments; the standing adjustment is ``-gamma``.
    omega : ndarray, shape (M, S, Z)
        Race-type adjustments, summing to zero over types per athlete.
    sigma : ndarray, shape (M, 4)
        Scale parameters (natural scale), ordered mu/beta/gamma/omega.
        All ones when the model was fit without hierarchy.
    """

    mu: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    omega: np.ndarray
    sigma: np.ndarray

    @property
    def n_draws(self) -> int:
        return self.mu.shape[0]


def expand_draws(samples: PosteriorSamples) -> EffectDraws:
    """Expand pooled free-coordinate draws into full effect arrays."""
    spec = samples.spec
    flat = samples.pooled()
    lay = layout(spec)
    M = flat.shape[0]
    T, S, Z = spec.T, spec.S, spec.Z

    mu = flat[:, lay.mu]
    if spec.mu_only:
        zeros_st = np.zeros((M, S, T))
        return EffectDraws(
            mu=mu,
            beta=zeros_st,
            gamma=np.zeros((M, S)),
            omega=np.zeros((M, S, Z)),
            sigma=np.ones((M, 4)),
        )

    beta_free = flat[:, lay.beta].reshape(M, S - 1, T)
    beta = np.concatenate([beta_free, -beta_free.sum(axis=1, keepdims=True)], axis=1)
    gamma = flat[:, lay.gamma]
    omega_free = flat[:, lay.omega].reshape(M, S, Z - 1)
    omega = np.concatenate([omega_free, -omega_free.sum(axis=2, keepdims=True)], axis=2)
    sigma = np.exp(flat[:, lay.sigma])
    return EffectDraws(mu=mu, beta=beta, gamma=gamma, omega=omega, sigma=sigma)


# ---------------------------------------------------------------------------
# interval summaries


@dataclass(frozen=True)
class PredictiveSummary:
    """Summary of one predictive (or posterior) scalar distribution.

    The raw draws are retained so interval endpoints can be re-derived
    by sorting; ``lower``/``upper`` are the central 95% band and
    ``tail_prob`` is the mid-p probability of exceeding ``observed``.
    """

    label: str
    draws: np.ndarray
    mean: float
    median: float
    lower: float
    upper: float
    observed: float | None = None
    tail_prob: float | None = None

    @property
    def n_draws(self) -> int:
        return int(self.draws.shape[0])

    @classmethod
    def from_draws(
        cls, label: str, draws: np.ndarray, observed: float | None = None
    ) -> "PredictiveSummary":
        draws = np.asarray(draws, dtype=float)
        if draws.ndim != 1 or draws.size == 0:
            raise DataError("predictive draws must be a non-empty 1-D array")
        tail = mid_p_tail(draws, observed) if observed is not None else None
        obs = None if observed is None else float(observed)
        return cls(label, draws, *map(float, summary(draws)), obs, tail)


# ---------------------------------------------------------------------------
# effect summaries


@dataclass(frozen=True)
class StageAccuracySummary:
    stage: int
    mean: float
    median: float
    lower: float
    upper: float
    observed: float | None = None


def mu_summary(
    samples: PosteriorSamples, dataset: Dataset | None = None
) -> tuple[StageAccuracySummary, ...]:
    """Posterior stage-baseline hit probabilities ``expit(mu_t)``.

    When a dataset is supplied, the observed per-stage accuracy is attached
    to stages that have at least one recorded session.
    """
    eff = expand_draws(samples)
    probs = expit(eff.mu)  # (M, T)
    observed: dict[int, float] = {}
    if dataset is not None:
        a = dataset.arrays
        shots = SHOTS_PER_BOUT * np.bincount(a.stage0)
        hits = np.bincount(a.stage0, weights=a.hits)  # integers, exact in float64
        observed = {int(t) + 1: float(hits[t] / shots[t]) for t in np.flatnonzero(shots)}

    return tuple(
        StageAccuracySummary(t + 1, *map(float, summary(probs[:, t])), observed.get(t + 1))
        for t in range(samples.spec.T)
    )


@dataclass(frozen=True)
class BetaTrajectories:
    """Athlete-by-stage odds-ratio summaries for the trajectory effects.

    All arrays have shape ``(S, T)``.  ``or_mean`` is the posterior mean of
    ``exp(beta)``; ``or_geomean`` is ``exp(mean(beta))`` (the geometric mean,
    i.e. the median under a symmetric posterior on the log scale).
    """

    or_mean: np.ndarray
    or_geomean: np.ndarray
    or_median: np.ndarray
    or_lower: np.ndarray
    or_upper: np.ndarray


def beta_trajectories(samples: PosteriorSamples) -> BetaTrajectories:
    eff = expand_draws(samples)
    mean, median, lower, upper = summary(np.exp(eff.beta))  # (M, S, T)
    return BetaTrajectories(mean, np.exp(eff.beta.mean(axis=0)), median, lower, upper)


@dataclass(frozen=True)
class PositionEffects:
    """Per-athlete prone-vs-baseline effect on both scales.

    ``gamma_mean`` is the posterior mean on the log-odds scale; the
    ``prone_or_*`` arrays summarize ``exp(gamma)``.  The standing effect is
    the reciprocal (``-gamma`` on the log scale) by construction.
    """

    gamma_mean: np.ndarray
    prone_or_mean: np.ndarray
    prone_or_median: np.ndarray
    prone_or_lower: np.ndarray
    prone_or_upper: np.ndarray


def position_effects(samples: PosteriorSamples) -> PositionEffects:
    eff = expand_draws(samples)
    return PositionEffects(eff.gamma.mean(axis=0), *summary(np.exp(eff.gamma)))


@dataclass(frozen=True)
class RaceEffects:
    """Per-athlete, per-race-type effect summaries, shape ``(S, Z)``."""

    omega_mean: np.ndarray
    or_mean: np.ndarray
    or_median: np.ndarray
    or_lower: np.ndarray
    or_upper: np.ndarray
    race_types: tuple[str, ...]


def race_effects(samples: PosteriorSamples) -> RaceEffects:
    eff = expand_draws(samples)
    return RaceEffects(
        eff.omega.mean(axis=0), *summary(np.exp(eff.omega)), RACE_TYPES[: samples.spec.Z]
    )


# ---------------------------------------------------------------------------
# posterior predictive simulation


def _template_rng(seed: int, rec: SessionRecord) -> np.random.Generator:
    # One independent stream per session identity: permutation-invariant and
    # stable under adding/removing other templates.
    tag = "|".join(
        [
            str(seed),
            rec.athlete,
            str(rec.stage),
            rec.race_type,
            rec.position,
            str(rec.race_seq),
            str(rec.bout_seq),
        ]
    )
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 8], "little") for i in range(0, 32, 8)]
    return np.random.default_rng(np.random.SeedSequence(words))


def _draw_indices(n_total: int, n_rep: int | None) -> np.ndarray:
    if n_rep is None or n_rep == n_total:
        return np.arange(n_total)
    if n_rep < 1:
        raise DataError("n_rep must be a positive integer")
    if n_rep < n_total:
        return np.linspace(0, n_total - 1, n_rep).round().astype(np.int64)
    return np.arange(n_rep) % n_total


def predictive_draws(
    samples: PosteriorSamples,
    templates: Sequence[SessionRecord],
    dataset: Dataset,
    n_rep: int | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Draw posterior predictive hit counts for a schedule of sessions.

    Parameters
    ----------
    samples : PosteriorSamples
        Fitted posterior.
    templates : sequence of SessionRecord
        Sessions to simulate; the ``hits`` field is ignored.  Athlete names
        are resolved through ``dataset`` (the fitting data), which pins the
        athlete ordering used by the model.
    dataset : Dataset
        The dataset the model was fitted to.
    n_rep : int, optional
        Number of replicate schedules.  Defaults to one per pooled posterior
        draw; fewer subsamples evenly, more recycles draws.
    seed : int
        Predictive seed, independent of the fitting seed.

    Returns
    -------
    ndarray of shape (n_rep, len(templates))
        Hit counts in 0..5.  Column j corresponds to ``templates[j]`` and
        row i uses posterior draw ``i`` jointly for every column, so row
        sums are draws of schedule-level totals.
    """
    spec = samples.spec
    eff = expand_draws(samples)
    idx = _draw_indices(eff.n_draws, n_rep)
    n_out = idx.shape[0]
    out = np.empty((n_out, len(templates)), dtype=np.int16)

    for j, rec in enumerate(templates):
        s = dataset.athlete_index.get(rec.athlete)
        if s is None:
            raise DataError(f"template athlete {rec.athlete!r} not in the fitted dataset")
        if not 1 <= rec.stage <= spec.T:
            raise DataError(
                f"template stage {rec.stage} outside the fitted range 1..{spec.T}"
            )
        z = RACE_TYPES.index(rec.race_type)
        if z >= spec.Z:
            raise DataError(
                f"race type {rec.race_type!r} not included in the fitted model"
            )
        t = rec.stage - 1
        sign = 1.0 if rec.position == "prone" else -1.0
        eta = (
            eff.mu[idx, t]
            + eff.beta[idx, s, t]
            + sign * eff.gamma[idx, s]
            + eff.omega[idx, s, z]
        )
        rng = _template_rng(seed, rec)
        out[:, j] = rng.binomial(SHOTS_PER_BOUT, expit(eta)).astype(np.int16)
    return out


def simulate_schedule(
    samples: PosteriorSamples,
    dataset: Dataset,
    n_rep: int | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Joint predictive hit counts for every session in the dataset.

    Convenience wrapper around :func:`predictive_draws` with the dataset's
    own records as templates; the result can be shared across the PPC
    aggregators below so they all summarize the same joint replicates.
    """
    return predictive_draws(samples, dataset.records, dataset, n_rep=n_rep, seed=seed)


def _joint(samples, dataset, joint_draws, n_rep, seed) -> np.ndarray:
    if joint_draws is not None:
        if joint_draws.shape[1] != len(dataset.records):
            raise DataError("joint_draws does not match the dataset's session count")
        return joint_draws
    return simulate_schedule(samples, dataset, n_rep=n_rep, seed=seed)


def _totals(joint: np.ndarray, dataset: Dataset, key) -> dict:
    """Hit totals per group of sessions, in first-appearance order: each
    ``key(record)`` (``None`` leaves the record out) maps to the group's
    total in every replicate row of ``joint``, its observed total and its
    session count."""
    cols: dict = {}
    for i, rec in enumerate(dataset.records):
        k = key(rec)
        if k is not None:
            cols.setdefault(k, []).append(i)
    return {
        k: (
            joint[:, c].sum(axis=1, dtype=np.int64),
            sum(dataset.records[i].hits for i in c),
            len(c),
        )
        for k, c in cols.items()
    }


def stage_totals_ppc(
    samples: PosteriorSamples,
    dataset: Dataset,
    joint_draws: np.ndarray | None = None,
    n_rep: int | None = None,
    seed: int = 0,
) -> dict[int, PredictiveSummary]:
    """Predictive distribution of total hits per stage vs the observed total."""
    joint = _joint(samples, dataset, joint_draws, n_rep, seed)
    groups = _totals(joint, dataset, lambda rec: rec.stage)
    return {
        t: PredictiveSummary.from_draws(f"stage {t}", groups[t][0], observed=groups[t][1])
        for t in sorted(groups)
    }


def race_position_ppc(
    samples: PosteriorSamples,
    dataset: Dataset,
    joint_draws: np.ndarray | None = None,
    n_rep: int | None = None,
    seed: int = 0,
) -> dict[tuple[str, str], PredictiveSummary]:
    """Predictive accuracy (percent) per race type x shooting position."""
    joint = _joint(samples, dataset, joint_draws, n_rep, seed)
    groups = _totals(joint, dataset, lambda rec: (rec.race_type, rec.position))
    out: dict[tuple[str, str], PredictiveSummary] = {}
    for cell in itertools.product(RACE_TYPES, ("prone", "standing")):
        if cell in groups:
            totals, obs, n = groups[cell]
            shots = SHOTS_PER_BOUT * n
            out[cell] = PredictiveSummary.from_draws(
                "/".join(cell), 100.0 * totals / shots, observed=100.0 * obs / shots
            )
    return out


@dataclass(frozen=True)
class CumulativePath:
    """Predictive cumulative hit totals for one athlete, race by race.

    ``races`` lists ``(stage, race_seq, race_type)`` in season order; the
    k-th summary is the distribution of the athlete's total hits through
    race k, with the observed running total attached.
    """

    athlete: str
    races: tuple[tuple[int, int, str], ...]
    summaries: tuple[PredictiveSummary, ...]


def cumulative_hits(
    samples: PosteriorSamples,
    dataset: Dataset,
    athlete: str,
    joint_draws: np.ndarray | None = None,
    n_rep: int | None = None,
    seed: int = 0,
) -> CumulativePath:
    """Season-long cumulative hit paths for one athlete."""
    if athlete not in dataset.athlete_index:
        raise DataError(f"athlete {athlete!r} not in the dataset")
    joint = _joint(samples, dataset, joint_draws, n_rep, seed)
    def race_of(rec):  # (stage, race_seq) names a race, which has one race type
        return (rec.stage, rec.race_seq, rec.race_type) if rec.athlete == athlete else None

    groups = _totals(joint, dataset, race_of)
    if not groups:
        raise DataError(f"athlete {athlete!r} has no recorded sessions")

    races = tuple(sorted(groups))
    cum = np.cumsum([groups[race][0] for race in races], axis=0)
    obs_cum = itertools.accumulate(groups[race][1] for race in races)
    summaries = tuple(
        PredictiveSummary.from_draws(
            f"{athlete} through stage {stage} race {seq}", draws, observed=obs
        )
        for (stage, seq, _), draws, obs in zip(races, cum, obs_cum)
    )
    return CumulativePath(athlete=athlete, races=races, summaries=summaries)
