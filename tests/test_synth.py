"""Forward simulation: calendar shape, determinism, stream stability."""

import hashlib

import numpy as np
import pytest

from biathlon_bayes import model, synth
from biathlon_bayes.data import BOUTS_PER_RACE, Dataset, serialize_sessions
from biathlon_bayes.errors import DataError
from biathlon_bayes.streams import rng_for
from biathlon_bayes.synth import SEASON_SCHEDULE, SynthConfig, generate_synthetic, season_config


def test_default_calendar_totals():
    races = [rt for stage in SEASON_SCHEDULE.values() for rt in stage]
    assert len(races) == 26
    assert races.count("sprint") == 10
    assert races.count("individual") == 3
    assert races.count("pursuit") == 8
    assert races.count("mass_start") == 5


def test_full_participation_session_count():
    d, _ = generate_synthetic(season_config(seed=1))
    # 26 races; sprints contribute 2 bouts, the rest 4: per athlete 84 bouts
    per_athlete = sum(BOUTS_PER_RACE[rt] for st in SEASON_SCHEDULE.values() for rt in st)
    assert per_athlete == 84
    assert d.n_records == 30 * 84 == 2520
    assert d.n_athletes == 30
    assert d.n_stages == 11


def test_determinism():
    a, pa = generate_synthetic(season_config(seed=9))
    b, pb = generate_synthetic(season_config(seed=9))
    assert a.records == b.records
    assert np.array_equal(pa.mu, pb.mu)
    c, _ = generate_synthetic(season_config(seed=10))
    assert c.records != a.records


def test_bout_patterns_follow_format():
    schedule = {t: r for t, r in SEASON_SCHEDULE.items() if t <= 7}
    d, _ = generate_synthetic(SynthConfig(n_athletes=2, n_stages=7, schedule=schedule, seed=3))
    by_race = {}
    for r in d.records:
        by_race.setdefault((r.athlete, r.stage, r.race_seq, r.race_type), []).append(r)
    for (_, _, _, race_type), recs in by_race.items():
        recs.sort(key=lambda r: r.bout_seq)
        positions = tuple(r.position for r in recs)
        if race_type == "sprint":
            assert positions == ("prone", "standing")
        elif race_type == "individual":
            assert positions == ("prone", "standing", "prone", "standing")
        else:
            assert positions == ("prone", "prone", "standing", "standing")


def test_saturated_state_hits_every_target():
    spec = model.ModelSpec(S=2, T=1)
    p = model.ParameterState.zeros(spec)
    p.mu[:] = 40.0  # hit probability indistinguishable from 1
    cfg = SynthConfig(
        n_athletes=2, n_stages=1, schedule={1: ("sprint",)}, true_params=p, seed=0
    )
    d, _ = generate_synthetic(cfg)
    assert {r.hits for r in d.records} == {5}


def test_hopeless_state_misses_every_target():
    spec = model.ModelSpec(S=2, T=1)
    p = model.ParameterState.zeros(spec)
    p.mu[:] = -40.0
    cfg = SynthConfig(
        n_athletes=2, n_stages=1, schedule={1: ("sprint",)}, true_params=p, seed=0
    )
    d, _ = generate_synthetic(cfg)
    assert {r.hits for r in d.records} == {0}


def test_zero_participation_gives_empty_dataset():
    d, _ = generate_synthetic(season_config(seed=2, participation_rate=0.0))
    assert d.n_records == 0


def test_participation_streams_nest_across_rates():
    """Same seed, lower rate: a strict subset of the same sessions, with
    identical hit counts on the shared records."""
    lo, _ = generate_synthetic(season_config(seed=5, participation_rate=0.35))
    hi, _ = generate_synthetic(season_config(seed=5, participation_rate=0.8))
    lo_map = {r.key: r for r in lo.records}
    hi_map = {r.key: r for r in hi.records}
    assert set(lo_map) < set(hi_map)
    assert all(hi_map[k] == r for k, r in lo_map.items())


def test_mean_accuracy_tracks_truth():
    spec = model.ModelSpec(S=2, T=1)
    p = model.ParameterState.zeros(spec)
    p.mu[:] = 1.0  # expit(1) ~ 0.731
    cfg = SynthConfig(
        n_athletes=2, n_stages=1, schedule={1: ("sprint",) * 40}, true_params=p, seed=8
    )
    d, _ = generate_synthetic(cfg)
    acc = d.total_hits / d.total_shots
    assert acc == pytest.approx(0.731, abs=0.03)


def test_truth_state_returned_when_supplied():
    spec = model.ModelSpec(S=3, T=2)
    p = model.sample_prior(spec, rng_for(6))
    cfg = SynthConfig(n_athletes=3, n_stages=2, schedule={1: ("sprint",)}, true_params=p)
    _, back = generate_synthetic(cfg)
    assert back is p


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(n_athletes=0),
            dict(n_stages=0),
            dict(participation_rate=-0.1),
            dict(participation_rate=1.5),
            dict(schedule={5: ("sprint",)}, n_stages=3),
            dict(schedule={1: ("biathlon",)}),
        ],
    )
    def test_bad_config_rejected(self, kw):
        base = dict(n_athletes=3, n_stages=3)
        base.update(kw)
        with pytest.raises(DataError):
            SynthConfig(**base)

    def test_stages_without_races_allowed(self):
        d, _ = generate_synthetic(
            SynthConfig(n_athletes=2, n_stages=4, schedule={2: ("sprint",)}, seed=1)
        )
        assert d.n_stages == 4
        assert {r.stage for r in d.records} == {2}


def test_season_fixture_shape(season_dataset):
    assert season_dataset.n_records == 2088
    assert season_dataset.n_athletes == 30
    assert season_dataset.n_stages == 11
    assert model.ModelSpec.for_dataset(season_dataset).dim == 454


@pytest.mark.parametrize("cfg, n_records, digest", [
    (SynthConfig(n_athletes=7, participation_rate=0.6, seed=17), 360,
     "e4490cc2435244246f3013b33821d86fabc748276f74d7d1fd3e9bac35032344"),
    # one athlete: the model still has S=2, and only the first is simulated
    (SynthConfig(n_athletes=1, participation_rate=0.5, seed=5), 56,
     "c8019166af19494b9af2d0b5624c6536e516687bfbe65492a6a3e4eb2428ba84"),
], ids=["seven_athletes", "one_athlete"])
def test_pinned_partial_season(cfg, n_records, digest):
    """The sha256 of a partial-participation season: a refactor of how the
    state becomes hit probabilities must leave it as it is."""
    d, _ = generate_synthetic(cfg)
    assert len(d.records) == n_records
    assert hashlib.sha256(serialize_sessions(d)).hexdigest() == digest
