"""Forward simulation: draw synthetic seasons from the generative model."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
from scipy.special import expit

from .data import Dataset, POSITIONS, RACE_TYPES, SessionRecord, SHOTS_PER_BOUT
from .errors import DataError
from .model import ModelSpec, ParameterState, expand, log_odds, sample_prior
from .streams import rng_for

# An 11-stage calendar with the usual season totals: 10 sprints, 3
# individuals, 8 pursuits, 5 mass starts (26 races, 84 bouts for a
# full-time athlete).  Stage 7 is the four-race championship stop.
SEASON_SCHEDULE: dict[int, tuple[str, ...]] = {
    1: ("individual", "sprint"),
    2: ("sprint", "pursuit"),
    3: ("sprint", "pursuit"),
    4: ("sprint", "pursuit"),
    5: ("sprint", "pursuit", "mass_start"),
    6: ("sprint", "pursuit", "mass_start"),
    7: ("individual", "sprint", "pursuit", "mass_start"),
    8: ("sprint", "pursuit"),
    9: ("individual", "sprint"),
    10: ("sprint", "mass_start"),
    11: ("pursuit", "mass_start"),
}

# bout positions in shooting order for each race format
_POSITION_PATTERN = {
    "sprint": ("prone", "standing"),
    "individual": ("prone", "standing", "prone", "standing"),
    "pursuit": ("prone", "prone", "standing", "standing"),
    "mass_start": ("prone", "prone", "standing", "standing"),
}


@dataclass(frozen=True)
class SynthConfig:
    """Configuration for one synthetic season.

    ``schedule`` maps stage -> race types in running order; stages absent
    from it simply hold no races.  When ``true_params`` is omitted the
    generating state is drawn from the model priors using ``seed``.
    """

    n_athletes: int = 30
    n_stages: int = 11
    schedule: Mapping[int, tuple[str, ...]] = field(
        default_factory=lambda: dict(SEASON_SCHEDULE)
    )
    participation_rate: float = 1.0
    true_params: ParameterState | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n_athletes < 1:
            raise DataError("need at least 1 athlete")
        if self.n_stages < 1:
            raise DataError("need at least 1 stage")
        if not 0.0 <= self.participation_rate <= 1.0:
            raise DataError(f"participation_rate outside [0, 1]: {self.participation_rate}")
        for stage, races in self.schedule.items():
            if not 1 <= stage <= self.n_stages:
                raise DataError(f"schedule stage {stage} outside 1..{self.n_stages}")
            for rt in races:
                if rt not in RACE_TYPES:
                    raise DataError(f"unknown race_type in schedule: {rt!r}")


def season_config(**overrides) -> SynthConfig:
    """Paper-scale default: 30 athletes, 11 stages, the standard calendar."""
    return SynthConfig(**overrides)


def athlete_ids(n: int) -> tuple[str, ...]:
    width = max(2, len(str(n)))
    return tuple(f"ath{i:0{width}d}" for i in range(1, n + 1))


def generate_synthetic(cfg: SynthConfig) -> tuple[Dataset, ParameterState]:
    """Simulate a season: tabulate the hit probability of every (athlete,
    stage, position, race type) cell, walk the calendar in fixed order
    (stage, race, athlete, bout), and draw hits ~ Binomial(5, p).

    Returns the dataset and the generating state.  Byte-deterministic for a
    given config + seed: the participation coin is consumed for every
    (race, athlete) pair regardless of rate, so streams never shift.
    """
    spec = ModelSpec(S=max(cfg.n_athletes, 2), T=cfg.n_stages)
    rng = rng_for(cfg.seed)
    params = cfg.true_params if cfg.true_params is not None else sample_prior(spec, rng)
    cells = np.ix_(range(spec.S), range(spec.T), range(len(POSITIONS)), range(spec.Z))
    p_hit = expit(log_odds(expand(params, spec), *cells))

    ids = athlete_ids(cfg.n_athletes)
    records = []
    for stage in range(1, cfg.n_stages + 1):
        for race_idx, race_type in enumerate(cfg.schedule.get(stage, ()), start=1):
            z = RACE_TYPES.index(race_type)
            pattern = _POSITION_PATTERN[race_type]
            for s, athlete in enumerate(ids):
                starts = rng.random() < cfg.participation_rate
                for bout_seq, position in enumerate(pattern, start=1):
                    p = p_hit[s, stage - 1, POSITIONS.index(position), z]
                    # drawn even for non-starters so the stream position is
                    # rate-independent: seasons at different rates nest
                    hits = int(rng.binomial(SHOTS_PER_BOUT, p))
                    if starts:
                        records.append(
                            SessionRecord(athlete, stage, race_type, position, race_idx, bout_seq, hits)
                        )
    dataset = Dataset.from_records(records, n_stages=cfg.n_stages)
    return dataset, params
