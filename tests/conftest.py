"""Shared fixtures: published-table data, synthetic seasons, cached fits."""

import numpy as np
import pytest

from biathlon_bayes import model, oracles, sampler, synth
from biathlon_bayes.data import Dataset
from biathlon_bayes.explore import AthleteSummary, CellStat, SummaryTable
from biathlon_bayes.streams import rng_for

# Published 2021/22 women's season shooting table: per-athlete accuracy (%)
# by position and race format, plus season shot/hit totals.  Rows follow the
# end-of-season overall ranking, best first.
TABLE1 = [
    # name, prone, standing, individual, sprint, pursuit, mass_start, shots, hits
    ("M. Olsbu Roiseland", 92.6, 88.9, 87.5, 92.0, 91.9, 88.8, 380, 345),
    ("E. Oeberg", 82.6, 87.9, 80.0, 82.0, 86.9, 88.8, 380, 324),
    ("L.T. Hauser", 90.0, 86.2, 88.3, 90.0, 88.8, 85.0, 420, 370),
    ("H. Oeberg", 79.5, 80.5, 75.0, 80.0, 81.2, 80.0, 380, 304),
    ("A. Chevalier Bouchet", 88.4, 82.1, 85.0, 85.0, 88.6, 81.0, 380, 324),
    ("D. Herrmann Wick", 85.6, 81.7, 95.0, 83.0, 80.7, 83.8, 360, 301),
    ("D. Alimbekava", 92.9, 82.6, 90.0, 92.9, 87.5, 80.0, 310, 272),
    ("J. Braisaz Bouchet", 73.5, 79.0, 81.7, 71.0, 73.6, 82.0, 400, 305),
    ("D. Wierer", 87.0, 82.5, 83.3, 82.0, 87.1, 85.0, 400, 339),
    ("M. Davidova", 85.5, 84.0, 93.3, 79.0, 85.0, 85.0, 400, 339),
    ("T. Eckhoff", 88.5, 76.4, 76.7, 83.3, 83.0, 85.0, 330, 272),
    ("J. Simon", 85.5, 77.5, 80.0, 73.0, 87.1, 83.0, 400, 326),
    ("V. Voigt", 91.0, 92.0, 95.0, 95.0, 88.8, 91.0, 400, 366),
    ("A. Bescond", 85.5, 76.5, 75.0, 86.0, 86.2, 68.8, 400, 324),
    ("I.L. Tandrevold", 91.9, 83.2, 88.3, 83.3, 90.0, 87.5, 370, 324),
    ("M. Brorsson", 92.9, 81.2, 91.7, 86.2, 85.8, 86.2, 340, 296),
    ("J. Jislova", 92.5, 89.5, 86.7, 94.0, 90.6, 91.2, 400, 364),
    ("H. Sola", 80.0, 75.2, 71.7, 81.4, 83.0, 70.0, 290, 225),
    ("L. Persson", 86.5, 80.0, 80.0, 84.0, 84.3, 81.7, 340, 283),
    ("K. Reztsova", 80.0, 80.0, 92.5, 81.4, 73.3, 83.3, 290, 232),
    ("F. Preuss", 89.6, 82.2, 80.0, 78.6, 92.0, 88.3, 270, 232),
    ("C. Chevalier", 82.6, 81.3, 80.0, 81.1, 79.2, 90.0, 310, 254),
    ("P. Batovska Fialkova", 81.8, 76.5, 83.3, 73.0, 85.0, 76.2, 340, 269),
    ("F. Hildebrand", 95.4, 84.6, 87.5, 88.3, 93.0, 88.3, 260, 234),
    ("U. Nigmatullina", 84.1, 86.2, 78.3, 82.9, 90.0, 86.7, 290, 247),
    ("V. Hinz", 92.1, 80.0, 92.5, 83.3, 87.1, 83.3, 330, 284),
    ("M. Eder", 78.9, 71.6, 85.0, 75.0, 71.4, 75.0, 380, 286),
    ("L. Lie", 91.4, 89.1, 86.7, 84.4, 92.9, 96.7, 350, 316),
    ("K.O. Knotten", 88.6, 83.6, 90.0, 93.8, 81.7, 80.0, 280, 241),
    ("S. Nilsson", 78.5, 67.7, 80.0, 73.8, 71.0, 73.3, 260, 190),
]

RACE_COLS = ("individual", "sprint", "pursuit", "mass_start")


def table1_summary_table() -> SummaryTable:
    """The published table as a SummaryTable: accuracies exact, no per-cell
    shot counts except the season totals."""
    rows = []
    for name, prone, standing, ind, spr, pur, mass, shots, hits in TABLE1:
        position = {
            "prone": CellStat.from_accuracy(prone),
            "standing": CellStat.from_accuracy(standing),
        }
        race = dict(
            zip(
                RACE_COLS,
                (CellStat.from_accuracy(v) for v in (ind, spr, pur, mass)),
            )
        )
        rows.append(
            AthleteSummary(
                athlete=name,
                position=position,
                race=race,
                total=CellStat.from_counts(hits, shots),
            )
        )
    overall = AthleteSummary(
        athlete="overall",
        position={"prone": CellStat(), "standing": CellStat()},
        race={rt: CellStat() for rt in RACE_COLS},
        total=CellStat.from_counts(
            sum(r[-1] for r in TABLE1), sum(r[-2] for r in TABLE1)
        ),
    )
    return SummaryTable(tuple(rows), overall)


@pytest.fixture(scope="session")
def table1():
    return table1_summary_table()


@pytest.fixture(scope="session")
def table1_ranks():
    """End-of-season rank by athlete (row order of the published table)."""
    return {row[0]: i + 1 for i, row in enumerate(TABLE1)}


# ---------------------------------------------------------------------------
# synthetic seasons


def make_season(seed: int, drop_to_2088: bool = True):
    """A full-size synthetic season: 30 athletes, 11 stages, 26 races.

    With ``drop_to_2088`` a seeded subset of (athlete, 4-bout race) entries
    is removed so the dataset lands on 2088 sessions, mimicking real-world
    partial participation; otherwise all 2520 sessions are kept.  Returns
    ``(dataset, generating_state)``.
    """
    rng = rng_for(seed, 0)
    truth = model.ParameterState(
        mu=1.7 + np.cumsum(rng.normal(0.0, 0.15, 11)),
        beta_free=np.cumsum(rng.normal(0.0, 0.18, (29, 11)), axis=1),
        gamma_free=rng.normal(0.0, 0.25, 30),
        omega_free=rng.normal(0.0, 0.2, (30, 3)),
        log_sigma=np.log(np.array([0.15, 0.18, 0.25, 0.2])),
    )
    cfg = synth.season_config(seed=seed, true_params=truth)
    full, state = synth.generate_synthetic(cfg)
    if not drop_to_2088:
        return full, state
    keys = sorted(
        {(r.athlete, r.stage, r.race_seq) for r in full.records if r.race_type != "sprint"}
    )
    drop_idx = rng_for(seed, 1).choice(len(keys), 108, replace=False)
    dropped = {keys[i] for i in drop_idx}
    records = [r for r in full.records if (r.athlete, r.stage, r.race_seq) not in dropped]
    return Dataset.from_records(records), state


@pytest.fixture(scope="session")
def season():
    """The canonical 2088-session full-scale season and its true state."""
    return make_season(77)


@pytest.fixture(scope="session")
def season_dataset(season):
    return season[0]


@pytest.fixture(scope="session")
def small_dataset():
    """A 4-athlete, 3-stage season: fast enough for per-test fits."""
    schedule = {1: ("individual", "sprint"), 2: ("sprint", "pursuit"), 3: ("sprint", "mass_start")}
    cfg = synth.SynthConfig(n_athletes=4, n_stages=3, schedule=schedule, seed=21)
    d, _ = synth.generate_synthetic(cfg)
    return d


@pytest.fixture(scope="session")
def small_fit(small_dataset):
    """A quick but usable posterior for the small season (2 chains, 400 draws)."""
    spec = model.ModelSpec.for_dataset(small_dataset)
    cfg = sampler.SamplerConfig(
        n_chains=2, burn_in=300, kept_iterations=1000, thin=5, seed=7
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(sampler.THREADS_ENV, "1")
        return sampler.run_chains(spec, small_dataset, cfg)


@pytest.fixture(scope="session")
def golden():
    """The tiny closed-book dataset and its one-parameter reduced model."""
    d, spec = oracles.golden_quadrature_dataset()
    return d, spec
