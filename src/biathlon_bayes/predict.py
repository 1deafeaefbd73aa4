"""Posterior-effect summaries and posterior predictive simulation.

The effect summaries and the predictive simulators consume a
:class:`~biathlon_bayes.sampler.PosteriorSamples` and are deterministic
given ``(samples, seed)``.  :func:`expand_draws` returns the pooled draws
as one :class:`~biathlon_bayes.model.Effects` whose arrays carry a leading
draw axis, and predictive log-odds come from
:func:`~biathlon_bayes.model.log_odds`.  The effect summaries expand
nothing: they read the free coordinates of
:func:`~biathlon_bayes.model.from_vector`, views of the draws, and take one
athlete at a time, building a constrained athlete's or race type's draws
as the negative sum, as :func:`~biathlon_bayes.model.expand` does, so the
numbers are those of the expanded effects without a copy of a whole
effect array.  Predictive hit counts are drawn with one dedicated RNG stream per
session template, keyed by the template's identity rather than its
position in the schedule, so reordering templates permutes the output
columns and changes nothing else.  :func:`predictive_draws` expands the
posterior in chunks of ``_CHUNK_DRAWS`` draws, each template's stream
running on across the chunks, and stores the counts as ``int8`` (every
count is 0..5).

The predictive checks consume the joint replicates of
:func:`simulate_schedule`, so they all summarize the same draws, and group
sessions through :func:`_totals`.  Every summary here is
:func:`~biathlon_bayes.intervals.summary` of some draws.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import expit

from .data import POSITIONS, RACE_TYPES, SHOTS_PER_BOUT, Dataset, SessionRecord
from .errors import DataError
from .intervals import mid_p_tail, summary
from .model import Effects, ModelSpec, expand, from_vector, log_odds
from .sampler import PosteriorSamples

__all__ = [
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
    "template_cells",
    "predictive_draws",
    "simulate_schedule",
    "stage_totals_ppc",
    "race_position_ppc",
    "cumulative_hits",
]


# ---------------------------------------------------------------------------
# expanding pooled draws into full effect arrays


def expand_draws(samples: PosteriorSamples) -> Effects:
    """The pooled draws as constrained effects: every array of the result
    has a leading axis of length ``samples.total_draws``."""
    return expand(from_vector(samples.pooled(), samples.spec), samples.spec)


# ---------------------------------------------------------------------------
# interval summaries


@dataclass(frozen=True)
class PredictiveSummary:
    """Summary of one predictive (or posterior) scalar distribution.

    The raw draws are retained so interval endpoints can be re-derived
    by sorting; ``lower``/``upper`` are the central 95% band and
    ``tail_prob`` is the mid-p probability of exceeding ``observed``.
    """

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
    def from_draws(cls, draws: np.ndarray, observed: float | None = None) -> "PredictiveSummary":
        draws = np.asarray(draws, dtype=float)
        if draws.ndim != 1 or draws.size == 0:
            raise DataError("predictive draws must be a non-empty 1-D array")
        tail = mid_p_tail(draws, observed) if observed is not None else None
        obs = None if observed is None else float(observed)
        return cls(draws, *map(float, summary(draws)), obs, tail)


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
    # mu is a view of the draws: no other effect is expanded
    probs = expit(from_vector(samples.pooled(), samples.spec).mu)  # (M, T)
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


def _odds_ratio_summary(rows) -> list[np.ndarray]:
    """The mean of each athlete's effect draws ``(M, ...)``, then
    ``summary(np.exp(row))``, stacked athlete by athlete: the numbers of
    one summary of the whole effect array, without it."""
    parts = [(row.mean(axis=0), *summary(np.exp(row))) for row in rows]
    return [np.stack(stat) for stat in zip(*parts)]


def beta_trajectories(samples: PosteriorSamples) -> BetaTrajectories:
    free = from_vector(samples.pooled(), samples.spec).beta_free  # (M, S - 1, T), a view
    # each athlete's (M, T) draws, the constrained last athlete's as the negative sum
    rows = itertools.chain((free[:, s] for s in range(free.shape[1])), [-free.sum(axis=-2)])
    log_mean, mean, median, lower, upper = _odds_ratio_summary(rows)
    return BetaTrajectories(mean, np.exp(log_mean), median, lower, upper)


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
    prone = from_vector(samples.pooled(), samples.spec).gamma_free  # (M, S), a view
    return PositionEffects(prone.mean(axis=0), *summary(np.exp(prone)))


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
    free = from_vector(samples.pooled(), samples.spec).omega_free  # (M, S, Z - 1), a view
    # each athlete's (M, Z) draws, the last race type's as the negative sum
    rows = (np.concatenate([f, -f.sum(axis=-1, keepdims=True)], axis=-1)
            for f in (free[:, s] for s in range(free.shape[1])))
    return RaceEffects(*_odds_ratio_summary(rows), RACE_TYPES[: samples.spec.Z])


# ---------------------------------------------------------------------------
# posterior predictive simulation

_CHUNK_DRAWS = 512  # posterior draws expanded at a time by predictive_draws


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


def template_cells(
    templates: Sequence[SessionRecord], dataset: Dataset, spec: ModelSpec
) -> list[tuple[int, int, int]]:
    """The (athlete, stage, race type) indices of each template session in
    the fitted model; DataError if a template falls outside it."""
    cells = []
    for rec in templates:
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
        cells.append((s, rec.stage - 1, z))
    return cells


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
    int8 ndarray of shape (n_rep, len(templates))
        Hit counts in 0..5.  Column j corresponds to ``templates[j]`` and
        row i uses posterior draw ``i`` jointly for every column, so row
        sums are draws of schedule-level totals.

    The posterior is expanded ``_CHUNK_DRAWS`` replicates at a time, so
    one chunk's effects, not the whole posterior's, are held beside the
    counts.  A binomial draw over a run of probabilities consumes its
    stream exactly as the same run split in two does, so the counts do not
    depend on the chunking.
    """
    cells = template_cells(templates, dataset, samples.spec)
    positions = [POSITIONS.index(rec.position) for rec in templates]
    rngs = [_template_rng(seed, rec) for rec in templates]
    idx = _draw_indices(samples.total_draws, n_rep)
    pooled = samples.pooled()
    out = np.empty((idx.shape[0], len(templates)), dtype=np.int8)
    for lo in range(0, idx.shape[0], _CHUNK_DRAWS):
        rows = slice(lo, lo + _CHUNK_DRAWS)
        eff = expand(from_vector(pooled[idx[rows]], samples.spec), samples.spec)
        for j, ((s, t, z), pos, rng) in enumerate(zip(cells, positions, rngs)):
            out[rows, j] = rng.binomial(SHOTS_PER_BOUT, expit(log_odds(eff, s, t, pos, z)))
        del eff  # the next chunk's effects replace this one's, not join them
    return out


def simulate_schedule(
    samples: PosteriorSamples,
    dataset: Dataset,
    n_rep: int | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Joint predictive hit counts for every session in the dataset.

    :func:`predictive_draws` with the dataset's own records as templates:
    shape ``(n_rep, len(dataset.records))``.  The predictive checks below
    take this matrix, so they all summarize the same joint replicates.
    """
    return predictive_draws(samples, dataset.records, dataset, n_rep=n_rep, seed=seed)


def _totals(joint: np.ndarray, dataset: Dataset, key) -> dict:
    """Hit totals per group of sessions, in first-appearance order: each
    ``key(record)`` (``None`` leaves the record out) maps to the group's
    total in every replicate row of ``joint``, its observed total and its
    session count."""
    if np.shape(joint)[1:] != (len(dataset.records),):
        raise DataError("joint draws do not match the dataset's session count")
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


def stage_totals_ppc(joint: np.ndarray, dataset: Dataset) -> dict[int, PredictiveSummary]:
    """Predictive distribution of total hits per stage vs the observed total,
    from the :func:`simulate_schedule` replicates ``joint``."""
    groups = _totals(joint, dataset, lambda rec: rec.stage)
    return {
        t: PredictiveSummary.from_draws(groups[t][0], observed=groups[t][1])
        for t in sorted(groups)
    }


def race_position_ppc(
    joint: np.ndarray, dataset: Dataset
) -> dict[tuple[str, str], PredictiveSummary]:
    """Predictive accuracy (percent) per race type x shooting position, from
    the :func:`simulate_schedule` replicates ``joint``."""
    groups = _totals(joint, dataset, lambda rec: (rec.race_type, rec.position))
    out: dict[tuple[str, str], PredictiveSummary] = {}
    for cell in itertools.product(RACE_TYPES, ("prone", "standing")):
        if cell in groups:
            totals, obs, n = groups[cell]
            shots = SHOTS_PER_BOUT * n
            out[cell] = PredictiveSummary.from_draws(
                100.0 * totals / shots, observed=100.0 * obs / shots
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


def cumulative_hits(joint: np.ndarray, dataset: Dataset, athlete: str) -> CumulativePath:
    """Season-long cumulative hit paths for one athlete, from the
    :func:`simulate_schedule` replicates ``joint``."""
    if athlete not in dataset.athlete_index:
        raise DataError(f"athlete {athlete!r} not in the dataset")

    def race_of(rec):  # (stage, race_seq) names a race, which has one race type
        return (rec.stage, rec.race_seq, rec.race_type) if rec.athlete == athlete else None

    groups = _totals(joint, dataset, race_of)
    if not groups:
        raise DataError(f"athlete {athlete!r} has no recorded sessions")

    races = tuple(sorted(groups))
    cum = np.cumsum([groups[race][0] for race in races], axis=0)
    obs_cum = itertools.accumulate(groups[race][1] for race in races)
    summaries = tuple(
        PredictiveSummary.from_draws(draws, observed=obs) for draws, obs in zip(cum, obs_cum)
    )
    return CumulativePath(athlete=athlete, races=races, summaries=summaries)
