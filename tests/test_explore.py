"""Descriptive statistics: summary tables, favorites, rank correlation,
stage deviations, and the clustering used for athlete profiles."""

import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from biathlon_bayes.data import Dataset, SessionRecord, load_sessions
from biathlon_bayes.errors import DataError
from biathlon_bayes.explore import (
    SummaryTable,
    accuracy_summary,
    cluster_athletes,
    favorite_race_counts,
    load_ranks,
    rank_correlations,
    spearman,
    stage_deviation_matrix,
)

from conftest import TABLE1

SEASON_CSV_ENV = "BIATHLON_BAYES_SEASON_CSV"

# Spearman rho of final rank vs each accuracy column of the published table,
# frozen from an independent implementation (scipy.stats.spearmanr).
RHO_GOLDEN = {
    "overall": -0.147991551585937,
    "prone": -0.076589136022180,
    "standing": -0.233748939039461,
    "individual": -0.037112007122849,
    "sprint": -0.136925344923374,
    "pursuit": -0.107993808143794,
    "mass_start": -0.093168561281119,
}


def rec(**kw):
    base = dict(
        athlete="a", stage=1, race_type="sprint", position="prone",
        race_seq=1, bout_seq=1, hits=4,
    )
    base.update(kw)
    return SessionRecord(**base)


class TestFavoriteCounts:
    def test_published_table_counts(self, table1):
        counts = favorite_race_counts(table1)
        assert counts.favorite == {
            "individual": 8, "sprint": 5, "pursuit": 12, "mass_start": 5,
        }
        assert counts.least_favorite == {
            "individual": 8, "sprint": 9, "pursuit": 7, "mass_start": 6,
        }
        assert counts.excluded == ()

    def test_counts_total_to_athlete_count(self, table1):
        counts = favorite_race_counts(table1)
        assert sum(counts.favorite.values()) == len(TABLE1)
        assert sum(counts.least_favorite.values()) == len(TABLE1)

    def test_tie_breaks_toward_more_shots(self):
        # equal accuracy 4/5 vs 8/10: the better-sampled cell wins the
        # designation, favorite and least-favorite alike
        records = [
            rec(race_type="sprint", hits=4),
            rec(race_type="pursuit", race_seq=2, bout_seq=1, hits=4),
            rec(race_type="pursuit", race_seq=2, bout_seq=2, hits=4),
            rec(athlete="b", hits=0),
        ]
        counts = favorite_race_counts(accuracy_summary(Dataset.from_records(records)))
        assert counts.favorite["pursuit"] == 1
        assert counts.least_favorite["pursuit"] == 1
        assert any("tie" in t for t in counts.ties)

    def test_tie_among_equal_shots_falls_to_declaration_order(self):
        # two race types, same accuracy, same shot count: earlier declared
        # type is the favorite, later the least favorite... both go to the
        # earliest per the pinned rule
        records = [
            rec(race_type="sprint", hits=3),
            rec(race_type="pursuit", race_seq=2, bout_seq=1, hits=3),
            rec(athlete="b", hits=0),
        ]
        counts = favorite_race_counts(accuracy_summary(Dataset.from_records(records)))
        assert counts.favorite["sprint"] == 1
        assert counts.least_favorite["sprint"] == 1

    def test_single_race_type_excluded(self):
        records = [rec(), rec(athlete="b"), rec(athlete="b", race_type="pursuit", race_seq=2, bout_seq=1, hits=1)]
        counts = favorite_race_counts(accuracy_summary(Dataset.from_records(records)))
        assert counts.excluded == ("a",)
        assert sum(counts.favorite.values()) == 1


class TestSpearman:
    @pytest.mark.parametrize("column", sorted(RHO_GOLDEN))
    def test_matches_independent_oracle(self, table1, table1_ranks, column):
        rho = rank_correlations(table1, table1_ranks)
        assert rho[column] == pytest.approx(RHO_GOLDEN[column], abs=1e-12)

    def test_published_rounding(self, table1, table1_ranks):
        # the three columns whose published values are reproducible from the
        # rounded table: overall, individual, sprint
        rho = rank_correlations(table1, table1_ranks)
        assert round(rho["overall"], 3) == -0.148
        assert round(rho["individual"], 4) == -0.0371
        assert round(rho["sprint"], 3) == -0.137

    def test_perfect_and_inverted(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
        assert spearman([1, 2, 3, 4], [8, 6, 4, 2]) == pytest.approx(-1.0)

    def test_ties_use_mid_ranks(self):
        # frozen from scipy.stats.spearmanr (average-rank tie convention)
        assert spearman([1, 1, 2, 3], [1, 2, 3, 4]) == pytest.approx(
            0.9486832980505139, abs=1e-12
        )
        assert spearman([1, 2, 2, 3], [4, 1, 1, 2]) == pytest.approx(
            -0.3333333333333334, abs=1e-12
        )

    @pytest.mark.parametrize(
        "a,b",
        [([1, 2], [1]), ([1], [1]), ([1, 1, 1], [1, 2, 3])],
    )
    def test_degenerate_inputs_rejected(self, a, b):
        with pytest.raises(DataError):
            spearman(a, b)

    @given(
        st.lists(st.integers(-100, 100), min_size=3, max_size=20, unique=True)
    )
    def test_invariant_to_monotone_transforms(self, xs):
        # integer inputs keep exp() injective, so ranks are preserved exactly
        ys = list(range(len(xs)))
        base = spearman(xs, ys)
        assert spearman([np.exp(x / 100) for x in xs], ys) == pytest.approx(base, abs=1e-9)
        assert spearman(xs, [3 * y + 1 for y in ys]) == pytest.approx(base, abs=1e-9)
        assert spearman([-x for x in xs], ys) == pytest.approx(-base, abs=1e-9)


class TestSummaryTable:
    def test_cells_are_exact_fractions(self):
        records = [rec(hits=4), rec(bout_seq=2, position="standing", hits=3)]
        records.append(rec(athlete="b", hits=1))
        t = accuracy_summary(Dataset.from_records(records))
        row = t.row("a")
        assert row.position["prone"].accuracy == Fraction(4, 5)
        assert row.race["sprint"].accuracy == Fraction(7, 10)
        assert row.total.accuracy == Fraction(7, 10)

    def test_overall_row_pools_all_athletes(self):
        records = [rec(hits=5), rec(athlete="b", hits=0)]
        t = accuracy_summary(Dataset.from_records(records))
        assert t.overall.total.accuracy == Fraction(1, 2)
        assert t.overall.position["prone"].shots == 10

    def test_absent_cells(self):
        t = accuracy_summary(Dataset.from_records([rec(), rec(athlete="b")]))
        assert not t.row("a").race["mass_start"].present
        assert not t.row("a").position["standing"].present

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError):
            accuracy_summary(Dataset.from_records([]))

    def test_unknown_athlete_lookup(self, table1):
        with pytest.raises(KeyError):
            table1.row("nobody")


class TestStageDeviations:
    def test_columns_average_to_zero_exactly(self, small_dataset):
        m = stage_deviation_matrix(small_dataset)
        t0 = accuracy_summary(small_dataset)
        for stage in m.stages:
            # shot-weighted mean of deviations over athletes, exact arithmetic
            num = Fraction(0)
            den = 0
            for athlete in m.athletes:
                if (athlete, stage) not in m.deviation:
                    continue
                shots = sum(
                    5 for r in small_dataset.records
                    if r.athlete == athlete and r.stage == stage
                )
                num += m.deviation[(athlete, stage)] * shots
                den += shots
            assert num == 0 and den > 0

    def test_deviation_is_cell_minus_stage_mean(self):
        records = [rec(hits=5), rec(athlete="b", hits=1)]
        m = stage_deviation_matrix(Dataset.from_records(records))
        assert m.stage_mean[1] == Fraction(6, 10)
        assert m.deviation[("a", 1)] == Fraction(1) - Fraction(6, 10)
        assert m.deviation[("b", 1)] == Fraction(1, 5) - Fraction(6, 10)

    def test_absent_stage_absent_column(self):
        m = stage_deviation_matrix(Dataset.from_records([rec(stage=2)], n_stages=5))
        assert m.stages == (2,)


class TestRankFile:
    def test_load_ranks(self, tmp_path):
        p = tmp_path / "ranks.csv"
        p.write_text("athlete,final_rank\nalice,1\nbob,2.5\n")
        assert load_ranks(p) == {"alice": 1.0, "bob": 2.5}

    def test_a_leading_byte_order_mark_is_dropped(self, tmp_path):
        p = tmp_path / "ranks.csv"
        p.write_text("athlete,final_rank\nalice,1\nbob,2.5\n", encoding="utf-8-sig")
        assert p.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_ranks(p) == {"alice": 1.0, "bob": 2.5}
        with open(p, encoding="utf-8") as fh:  # as explore --ranks opens it
            assert load_ranks(fh) == {"alice": 1.0, "bob": 2.5}

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "who,rank\na,1\n",
            "athlete,final_rank\na,one\n",
            "athlete,final_rank\na,1\na,2\n",
            "athlete,final_rank\na\n",
            "athlete,final_rank\na,nan\n",
            "athlete,final_rank\na,1\nb,inf\n",
            "athlete,final_rank\na,-inf\n",
        ],
    )
    def test_bad_rank_files_rejected(self, tmp_path, text):
        p = tmp_path / "ranks.csv"
        p.write_text(text)
        with pytest.raises(DataError):
            load_ranks(p)

    def test_no_shared_athletes_rejected(self, table1):
        with pytest.raises(DataError):
            rank_correlations(table1, {"nobody": 1, "else": 2})


class TestClustering:
    @staticmethod
    def _two_groups() -> SummaryTable:
        """Four athletes, two tight accuracy profiles far apart."""
        table = {}
        for name, base in [("a1", 90.0), ("a2", 90.5), ("b1", 60.0), ("b2", 60.5)]:
            table[name] = {
                "individual": base, "sprint": base + 0.1,
                "pursuit": base - 0.1, "mass_start": base,
            }
        t = SummaryTable.from_race_accuracies(table)
        # graft position cells on so profiles are complete
        from biathlon_bayes.explore import AthleteSummary, CellStat

        rows = tuple(
            AthleteSummary(
                athlete=r.athlete,
                position={
                    "prone": CellStat.from_accuracy(table[r.athlete]["individual"]),
                    "standing": CellStat.from_accuracy(table[r.athlete]["sprint"]),
                },
                race=r.race,
                total=r.total,
            )
            for r in t.rows
        )
        return SummaryTable(rows, t.overall)

    def test_recovers_separated_groups(self):
        t = self._two_groups()
        c = cluster_athletes(t, 2)
        assert c.labels["a1"] == c.labels["a2"]
        assert c.labels["b1"] == c.labels["b2"]
        assert c.labels["a1"] != c.labels["b1"]
        # labels are ordered by lowest member index
        assert c.labels["a1"] == 1

    def test_k_equals_n_and_one(self):
        t = self._two_groups()
        assert sorted(cluster_athletes(t, 4).labels.values()) == [1, 2, 3, 4]
        assert set(cluster_athletes(t, 1).labels.values()) == {1}

    def test_merge_tree_shape(self):
        c = cluster_athletes(self._two_groups(), 1)
        assert len(c.merges) == 3
        # ids above n-1 refer to earlier merges; heights are non-decreasing
        heights = [h for _, _, h in c.merges]
        assert heights == sorted(heights)

    def test_deterministic_tie_break(self):
        # four equidistant points (unit square in two features): the first
        # merge must pick the pair with the lowest original index
        from biathlon_bayes.explore import AthleteSummary, CellStat

        coords = {"p0": (0, 0), "p1": (0, 1), "p2": (1, 0), "p3": (1, 1)}
        rows = tuple(
            AthleteSummary(
                athlete=name,
                position={
                    "prone": CellStat.from_accuracy(float(x)),
                    "standing": CellStat.from_accuracy(float(y)),
                },
                race={
                    rt: CellStat.from_accuracy(0.0)
                    for rt in ("individual", "sprint", "pursuit", "mass_start")
                },
                total=CellStat(),
            )
            for name, (x, y) in coords.items()
        )
        t = SummaryTable(rows, rows[0])
        c = cluster_athletes(t, 2)
        assert c.merges[0][:2] == (0, 1)

    def test_incomplete_profiles_excluded(self, table1):
        t = SummaryTable.from_race_accuracies({"x": {"sprint": 80.0}})
        with pytest.raises(DataError):
            cluster_athletes(t, 1)

    def test_published_table_clusters(self, table1):
        c = cluster_athletes(table1, 3)
        assert len(c.labels) == 30
        assert set(c.labels.values()) == {1, 2, 3}
        assert c.excluded == ()

    def test_bad_k(self, table1):
        with pytest.raises(DataError):
            cluster_athletes(table1, 0)
        with pytest.raises(DataError):
            cluster_athletes(table1, 31)

    def test_standardize_changes_scale_not_validity(self, table1):
        c = cluster_athletes(table1, 2, standardize=True)
        assert len(c.labels) == 30


@pytest.mark.skipif(
    SEASON_CSV_ENV not in os.environ,
    reason=f"set {SEASON_CSV_ENV} to a real scraped season CSV to run",
)
class TestRealSeason:
    """Cell-for-cell reproduction of the published table from shot-level data."""

    @pytest.fixture(scope="class")
    def real_table(self):
        return accuracy_summary(load_sessions(os.environ[SEASON_CSV_ENV]))

    def test_overall_row(self, real_table):
        assert round(float(real_table.overall.total.accuracy) * 100, 1) == 84.2
        assert round(float(real_table.overall.position["prone"].accuracy) * 100, 1) == 86.5
        assert round(float(real_table.overall.position["standing"].accuracy) * 100, 1) == 81.9

    def test_every_cell_matches_published_rounding(self, real_table):
        for name, prone, standing, ind, spr, pur, mass, shots, hits in TABLE1:
            row = real_table.row(name)
            got = {
                "prone": row.position["prone"], "standing": row.position["standing"],
                "individual": row.race["individual"], "sprint": row.race["sprint"],
                "pursuit": row.race["pursuit"], "mass_start": row.race["mass_start"],
            }
            want = {
                "prone": prone, "standing": standing, "individual": ind,
                "sprint": spr, "pursuit": pur, "mass_start": mass,
            }
            for col, cell in got.items():
                assert round(float(cell.accuracy) * 100, 1) == want[col], (name, col)
            assert row.total.shots == shots
            assert row.total.hits == hits

    def test_standing_rank_correlation(self, real_table, table1_ranks):
        rho = rank_correlations(real_table, table1_ranks)
        assert round(rho["standing"], 3) == -0.231
