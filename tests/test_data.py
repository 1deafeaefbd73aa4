"""Session records, CSV parsing, dataset invariants, validation reports."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from biathlon_bayes.data import (
    BOUTS_PER_RACE,
    LOG_CHOOSE,
    CSV_HEADER,
    Dataset,
    RACE_TYPES,
    SessionRecord,
    load_sessions,
    parse_sessions,
    serialize_sessions,
    validate_dataset,
)
from biathlon_bayes.errors import DataError, ParseError


def rec(**kw):
    base = dict(
        athlete="a", stage=1, race_type="sprint", position="prone",
        race_seq=1, bout_seq=1, hits=4,
    )
    base.update(kw)
    return SessionRecord(**base)


class TestSessionRecord:
    def test_valid_record_roundtrips_fields(self):
        r = rec(hits=0)
        assert (r.athlete, r.stage, r.hits) == ("a", 1, 0)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(athlete=""),
            dict(athlete="a,b"),
            dict(stage=0),
            dict(race_type="relay"),
            dict(position="sitting"),
            dict(race_seq=0),
            dict(bout_seq=0),
            dict(bout_seq=3),  # sprints have 2 bouts
            dict(hits=-1),
            dict(hits=6),
        ],
    )
    def test_invalid_field_raises(self, kw):
        with pytest.raises(DataError):
            rec(**kw)

    def test_four_bout_formats_allow_bout_seq_4(self):
        r = rec(race_type="pursuit", bout_seq=4)
        assert r.bout_seq == 4
        assert BOUTS_PER_RACE["pursuit"] == 4


class TestDataset:
    def test_athletes_in_first_appearance_order(self):
        d = Dataset.from_records(
            [rec(athlete="zoe"), rec(athlete="amy", bout_seq=2), rec(athlete="zoe", bout_seq=2)]
        )
        assert d.athletes == ("zoe", "amy")
        assert d.athlete_index == {"zoe": 0, "amy": 1}

    def test_duplicate_session_key_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            Dataset.from_records([rec(), rec(hits=2)])

    def test_conflicting_race_type_rejected(self):
        with pytest.raises(DataError, match="conflicting race_type"):
            Dataset.from_records(
                [rec(), rec(athlete="b", race_type="pursuit", bout_seq=1)]
            )

    def test_races_chronological(self):
        d = Dataset.from_records(
            [
                rec(stage=2, race_type="pursuit"),
                rec(stage=1, race_type="sprint"),
                rec(stage=1, race_type="individual", race_seq=2, bout_seq=1),
            ]
        )
        assert d.races == ((1, 1, "sprint"), (1, 2, "individual"), (2, 1, "pursuit"))

    def test_totals(self):
        d = Dataset.from_records([rec(hits=5), rec(hits=2, bout_seq=2)])
        assert d.total_shots == 10
        assert d.total_hits == 7

    def test_stage_beyond_declared_bound_rejected(self):
        with pytest.raises(DataError, match="exceeds"):
            Dataset.from_records([rec(stage=3)], n_stages=2)

    def test_arrays_dense_and_aligned(self):
        d = Dataset.from_records([rec(position="standing", hits=3), rec(athlete="b")])
        a = d.arrays
        assert a.athlete.tolist() == [0, 1]
        assert a.position.tolist() == [1, 0]
        assert a.race.tolist() == [RACE_TYPES.index("sprint")] * 2
        assert a.hits.tolist() == [3, 4]


class TestCellTable:
    """``Dataset.cells`` groups the sessions that share one log-odds: one
    athlete's at one stage, position and race type."""

    @staticmethod
    def _season():
        # a's two prone individual bouts share a cell, as do b's two
        # standing pursuit bouts; every other session is its own cell
        return Dataset.from_records([
            rec(athlete="a", race_type="individual", hits=3),
            rec(athlete="b", stage=2, race_type="pursuit", position="standing", hits=1),
            rec(athlete="a", race_type="individual", bout_seq=2, position="standing", hits=5),
            rec(athlete="a", race_type="individual", bout_seq=3, hits=4),
            rec(athlete="b", stage=2, race_type="pursuit", bout_seq=2, position="standing",
                hits=0),
            rec(athlete="b", race_type="individual", hits=2),
            rec(athlete="a", stage=2, race_type="pursuit", hits=5),
        ])

    def test_cells_in_first_appearance_order(self):
        c = self._season().cells
        assert c.first.tolist() == [0, 1, 2, 5, 6]
        assert c.hits.tolist() == [7, 1, 5, 2, 5]
        assert c.shots.tolist() == [10, 10, 5, 5, 5]
        want = [LOG_CHOOSE[3] + LOG_CHOOSE[4], LOG_CHOOSE[1] + LOG_CHOOSE[0],
                LOG_CHOOSE[5], LOG_CHOOSE[2], LOG_CHOOSE[5]]
        assert c.log_choose.tolist() == want
        assert LOG_CHOOSE.tolist() == [math.log(math.comb(5, y)) for y in range(6)]

    def test_totals_are_the_sessions_sums(self, season_dataset):
        a, c = season_dataset.arrays, season_dataset.cells
        assert (len(c.first), int(c.hits.sum()), int(c.shots.sum())) == (
            1344, int(a.hits.sum()), 5 * 2088)
        keys = list(zip(a.athlete, a.stage0, a.position, a.race))
        cell_of = {keys[f]: i for i, f in enumerate(c.first)}
        assert len(cell_of) == len(c.first)  # one cell per key
        index = np.array([cell_of[k] for k in keys])  # each session's cell
        # first appearance: a cell's first session is the first with its
        # key, and cells come in the order of their first sessions
        assert np.array_equal(c.first, [np.flatnonzero(index == i)[0] for i in range(len(c.first))])
        assert np.all(np.diff(c.first) > 0)
        assert np.array_equal(c.hits, np.bincount(index, weights=a.hits))
        assert np.array_equal(c.shots, 5 * np.bincount(index))
        np.testing.assert_allclose(c.log_choose, np.bincount(index, weights=LOG_CHOOSE[a.hits]),
                                   rtol=0, atol=0)
        assert np.bincount(c.shots).tolist()[5::5] == [600, 744]

    def test_built_when_first_read(self):
        d = self._season()
        assert "cells" not in vars(d)
        assert d.cells is d.cells

    def test_empty_dataset_has_no_cells(self):
        c = Dataset.from_records([]).cells
        assert all(len(col) == 0 for col in c)


class TestCsv:
    def test_serialize_parse_roundtrip(self):
        d = Dataset.from_records(
            [rec(), rec(athlete="b", hits=0), rec(bout_seq=2, position="standing")]
        )
        d2 = parse_sessions(serialize_sessions(d))
        assert d2.records == d.records
        assert d2.source_digest == d.source_digest

    def test_digest_is_sha256_of_canonical_bytes(self):
        d = Dataset.from_records([rec()])
        assert d.source_digest == hashlib.sha256(serialize_sessions(d)).hexdigest()

    def test_header_required(self):
        with pytest.raises(ParseError, match="header"):
            parse_sessions(b"a,1,sprint,prone,1,1,4\n")

    def test_bad_integer_reports_line(self):
        text = ",".join(CSV_HEADER) + "\na,1,sprint,prone,1,1,x\n"
        with pytest.raises(ParseError, match="line 2"):
            parse_sessions(text.encode())

    def test_field_count_checked(self):
        text = ",".join(CSV_HEADER) + "\na,1,sprint,prone,1,1\n"
        with pytest.raises(ParseError):
            parse_sessions(text.encode())

    def test_blank_lines_ignored(self):
        text = ",".join(CSV_HEADER) + "\n\na,1,sprint,prone,1,1,4\n\n"
        assert parse_sessions(text.encode()).n_records == 1

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_sessions(tmp_path / "nope.csv")

    def test_load_matches_parse(self, tmp_path):
        d = Dataset.from_records([rec()])
        p = tmp_path / "s.csv"
        p.write_bytes(serialize_sessions(d))
        assert load_sessions(p).records == d.records


session_strategy = st.builds(
    rec,
    athlete=st.sampled_from(["a", "b", "c"]),
    stage=st.integers(1, 3),
    race_type=st.sampled_from(RACE_TYPES),
    position=st.sampled_from(["prone", "standing"]),
    race_seq=st.integers(1, 2),
    bout_seq=st.integers(1, 2),
    hits=st.integers(0, 5),
)


@given(st.lists(session_strategy, max_size=30))
def test_roundtrip_property(records):
    """Any loadable dataset serializes and parses back identically."""
    try:
        d = Dataset.from_records(records)
    except DataError:
        return  # duplicate keys / conflicting race types: rejection is the contract
    d2 = parse_sessions(serialize_sessions(d))
    assert d2.records == d.records
    assert d2.athletes == d.athletes


class TestValidation:
    def test_clean_season_passes(self):
        records = [
            rec(bout_seq=1), rec(bout_seq=2, position="standing"),
            rec(athlete="b", bout_seq=1), rec(athlete="b", bout_seq=2, position="standing"),
        ]
        report = validate_dataset(Dataset.from_records(records))
        assert report.ok
        assert report.n_records == 4
        assert report.shot_totals["a"] == 10
        assert report.hit_totals["a"] == 8

    def test_bout_pattern_anomaly_flagged(self):
        # a sprint with only one bout recorded for one athlete
        report = validate_dataset(Dataset.from_records([rec()]))
        assert report.bout_anomalies
        a = report.bout_anomalies[0]
        assert (a.bouts_found, a.bouts_expected) == (1, 2)
        assert not report.ok

    def test_participation_gaps_are_warnings_not_errors(self):
        records = [
            rec(bout_seq=1), rec(bout_seq=2, position="standing"),
            rec(athlete="b", bout_seq=1), rec(athlete="b", bout_seq=2, position="standing"),
            rec(stage=2, bout_seq=1), rec(stage=2, bout_seq=2, position="standing"),
        ]
        report = validate_dataset(Dataset.from_records(records))
        assert "b" in report.participation_gaps
        assert report.checks["participation"] == "warn"

    def test_report_json_shape(self):
        d = Dataset.from_records([rec()])
        j = validate_dataset(d).to_json_dict()
        assert j["n_records"] == 1
        assert isinstance(j["checks"], dict)
        assert isinstance(j["ok"], bool)
