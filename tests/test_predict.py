"""Predictive-layer tests: draw expansion, interval mechanics, and the
posterior predictive simulators."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import expit

from biathlon_bayes import model, predict, sampler
from biathlon_bayes.data import RACE_TYPES, Dataset, SessionRecord
from biathlon_bayes.errors import DataError
from biathlon_bayes.intervals import mid_p_tail, sorted_quantile, summary
from biathlon_bayes.model import ModelSpec
from biathlon_bayes.predict import (
    PredictiveSummary,
    beta_trajectories,
    cumulative_hits,
    expand_draws,
    mu_summary,
    position_effects,
    predictive_draws,
    race_effects,
    race_position_ppc,
    simulate_schedule,
    stage_totals_ppc,
)


def _samples_from_flat(spec: ModelSpec, flat: np.ndarray) -> sampler.PosteriorSamples:
    """Wrap explicit free-coordinate rows as a single-chain posterior."""
    flat = np.atleast_2d(np.asarray(flat, dtype=float))
    cfg = sampler.SamplerConfig(
        n_chains=1, burn_in=0, kept_iterations=flat.shape[0], thin=1
    )
    return sampler.PosteriorSamples(
        draws=flat[None, :, :],
        param_names=model.param_names(spec),
        spec=spec,
        config=cfg,
        source_digest="synthetic",
        acceptance_rates={},
        proposal_scales={},
    )


def _rec(athlete, stage, race_type, position, race_seq=1, bout_seq=1, hits=0):
    return SessionRecord(
        athlete=athlete,
        stage=stage,
        race_type=race_type,
        position=position,
        race_seq=race_seq,
        bout_seq=bout_seq,
        hits=hits,
    )


# two athletes, two stages, individual + sprint only
_WIRE_SPEC = ModelSpec(S=2, T=2, Z=2)
_WIRE_DATA = Dataset.from_records(
    [
        _rec("a", 1, "individual", "prone", hits=4),
        _rec("b", 1, "individual", "standing", hits=3),
        _rec("a", 2, "sprint", "prone", hits=5),
        _rec("b", 2, "sprint", "standing", hits=2),
    ],
    n_stages=2,
)


def _wire_row(mu=(0, 0), beta_free=(0, 0), gamma=(0, 0), omega_free=(0, 0)):
    lay = model.layout(_WIRE_SPEC)
    row = np.zeros(_WIRE_SPEC.dim)
    row[lay.mu] = mu
    row[lay.beta] = beta_free
    row[lay.gamma] = gamma
    row[lay.omega] = omega_free
    return row


class TestExpandDraws:
    def test_shapes_and_constraints(self, small_fit):
        spec = small_fit.spec
        eff = expand_draws(small_fit)
        assert isinstance(eff, model.Effects)
        M = small_fit.total_draws
        assert eff.mu.shape == (M, spec.T)
        assert eff.beta.shape == (M, spec.S, spec.T)
        assert eff.gamma.shape == (M, spec.S, 2)
        assert eff.omega.shape == (M, spec.S, spec.Z)
        assert eff.sigma.shape == (M, 4)
        # hard constraints hold draw by draw
        assert np.abs(eff.beta.sum(axis=1)).max() < 1e-10
        assert np.array_equal(eff.gamma[..., 1], -eff.gamma[..., 0])
        assert np.abs(eff.omega.sum(axis=2)).max() < 1e-10
        assert (eff.sigma > 0).all()

    @pytest.mark.parametrize("mu_only", [False, True], ids=["full", "mu_only"])
    def test_rows_match_the_single_state_expansion(self, small_fit, mu_only):
        """Row i of the batched expansion is ``model.expand`` of draw i, bit
        for bit."""
        if mu_only:
            spec = ModelSpec(S=3, T=2, Z=4, mu_only=True)
            fit = _samples_from_flat(spec, np.random.default_rng(0).standard_normal((5, 2)))
        else:
            spec, fit = small_fit.spec, small_fit
        eff = expand_draws(fit)
        for i, row in enumerate(fit.pooled()):
            one = model.expand(model.from_vector(row, spec), spec)
            for name, batched, single in zip(model.Effects._fields, eff, one):
                assert batched[i].tobytes() == single.tobytes(), (name, i)

    def test_free_coordinates_pass_through(self, small_fit):
        spec = small_fit.spec
        lay = model.layout(spec)
        eff = expand_draws(small_fit)
        pooled = small_fit.pooled()
        assert np.array_equal(eff.mu, pooled[:, lay.mu])
        assert np.array_equal(
            eff.beta[:, : spec.S - 1, :],
            pooled[:, lay.beta].reshape(-1, spec.S - 1, spec.T),
        )
        assert np.array_equal(eff.sigma, np.exp(pooled[:, lay.sigma]))

    def test_mu_only_expansion(self):
        spec = ModelSpec(S=3, T=2, Z=4, mu_only=True)
        flat = np.random.default_rng(0).standard_normal((5, spec.dim))
        eff = expand_draws(_samples_from_flat(spec, flat))
        assert np.array_equal(eff.mu, flat)
        assert not eff.beta.any() and not eff.gamma.any() and not eff.omega.any()
        assert (eff.sigma == 1.0).all()
        assert eff.beta.shape == eff.gamma.shape == (5, 3, 2) and eff.omega.shape == (5, 3, 4)


class TestIntervalPrimitives:
    def test_quantile_known_values(self):
        draws = np.arange(1, 82)  # 1..81, sorted, no ties
        assert sorted_quantile(draws, 0.025) == 3  # ceil(2.025) = 3
        assert sorted_quantile(draws, 0.5) == 41
        assert sorted_quantile(draws, 0.975) == 79
        assert sorted_quantile(draws, 0.0) == 1
        assert sorted_quantile(draws, 1.0) == 81
        # along an axis: one order statistic per column (or row)
        grid = np.sort(np.stack([draws, 2 * draws[::-1]], axis=1), axis=0)  # (81, 2)
        assert sorted_quantile(grid, 0.5).tolist() == [41, 82]
        assert sorted_quantile(grid.T, 0.975, axis=1).tolist() == [79, 158]
        assert sorted_quantile(grid, 0.025, axis=-2).tolist() == [3, 6]
        cube = np.sort(np.random.default_rng(1).standard_normal((40, 3, 2)), axis=0)
        for q in (0.0, 0.1, 0.5, 1.0):
            got = sorted_quantile(cube, q)
            assert got.shape == (3, 2)
            for i, j in np.ndindex(3, 2):
                assert got[i, j] == sorted_quantile(cube[:, i, j], q)

    @given(
        st.lists(st.integers(0, 5), min_size=1, max_size=60),
        st.floats(min_value=0.001, max_value=1.0),
    )
    def test_quantile_is_smallest_value_covering_q(self, values, q):
        # independent characterization: smallest x with ECDF(x) >= q
        arr = np.asarray(values)
        v = sorted_quantile(np.sort(arr), q)
        assert np.mean(arr <= v) >= q
        smaller = arr[arr < v]
        if smaller.size:
            assert np.mean(arr <= smaller.max()) < q

    def test_quantile_validation(self):
        with pytest.raises(DataError):
            sorted_quantile(np.array([1.0]), 1.5)
        with pytest.raises(DataError):
            sorted_quantile(np.array([]), 0.5)
        with pytest.raises(DataError):
            sorted_quantile(np.ones((0, 3)), 0.5)
        with pytest.raises(DataError):
            sorted_quantile(np.ones((4, 3)), -0.1)
        with pytest.raises(DataError):
            summary([])

    def test_summary_matches_sorted_quantiles(self):
        rng = np.random.default_rng(3)
        draws = rng.standard_normal(511)
        mean, median, lower, upper = summary(draws)
        srt = np.sort(draws)
        assert mean == draws.mean()
        # elements ceil(q * 511), 1-based
        assert (median, lower, upper) == (srt[255], srt[12], srt[498])
        # over the leading axis: one summary per element of the other axes,
        # the mean reduced over axis 0 of the whole array
        cube = rng.standard_normal((101, 3, 2))
        got = summary(cube)
        assert all(g.shape == (3, 2) for g in got)
        assert np.array_equal(got[0], cube.mean(axis=0))
        for i, j in np.ndindex(3, 2):
            assert tuple(g[i, j] for g in got[1:]) == summary(cube[:, i, j])[1:]

    @pytest.mark.parametrize(
        "obs, expected",
        [(0, 1.0), (2, 0.25 + 0.25), (3, 0.125), (4, 0.0), (1, 0.75 + 0.125)],
    )
    def test_mid_p_tail(self, obs, expected):
        assert mid_p_tail([1, 2, 2, 3], obs) == expected

    def test_mid_p_tail_empty(self):
        with pytest.raises(DataError):
            mid_p_tail([], 1.0)


class TestPredictiveSummary:
    def test_bounds_recomputable_by_independent_sort(self):
        rng = np.random.default_rng(8)
        draws = rng.integers(0, 120, size=777).astype(float)  # plenty of ties
        s = PredictiveSummary.from_draws(draws, observed=60.0)
        srt = np.sort(draws)
        n = len(draws)
        assert s.lower == srt[math.ceil(0.025 * n) - 1]
        assert s.median == srt[math.ceil(0.5 * n) - 1]
        assert s.upper == srt[math.ceil(0.975 * n) - 1]
        assert s.mean == pytest.approx(draws.mean())
        assert s.tail_prob == mid_p_tail(draws, 60.0)
        assert s.n_draws == n

    def test_observed_optional(self):
        s = PredictiveSummary.from_draws(np.arange(10.0))
        assert s.observed is None and s.tail_prob is None

    def test_rejects_bad_draws(self):
        with pytest.raises(DataError):
            PredictiveSummary.from_draws(np.zeros((3, 3)))
        with pytest.raises(DataError):
            PredictiveSummary.from_draws(np.array([]))


class TestPredictiveWiring:
    """Saturated logits make each simulated count deterministic, pinning the
    index arithmetic of every effect term."""

    def _draw(self, row, templates):
        samples = _samples_from_flat(_WIRE_SPEC, row)
        return predictive_draws(samples, templates, _WIRE_DATA)[0]

    def test_stage_baseline_indexing(self):
        row = _wire_row(mu=(60.0, -60.0))
        out = self._draw(
            row,
            [
                _rec("a", 1, "individual", "prone"),
                _rec("b", 2, "sprint", "standing"),
            ],
        )
        assert out.tolist() == [5, 0]

    def test_athlete_trajectory_indexing_and_constraint(self):
        row = _wire_row(beta_free=(60.0, -60.0))  # athlete a; b is -a
        out = self._draw(
            row,
            [
                _rec("a", 1, "individual", "prone"),
                _rec("a", 2, "sprint", "prone"),
                _rec("b", 1, "individual", "prone"),
                _rec("b", 2, "sprint", "prone"),
            ],
        )
        assert out.tolist() == [5, 0, 0, 5]

    def test_position_sign_flip(self):
        row = _wire_row(gamma=(60.0, -60.0))
        out = self._draw(
            row,
            [
                _rec("a", 1, "individual", "prone"),
                _rec("a", 1, "individual", "standing", race_seq=2),
                _rec("b", 1, "individual", "prone"),
                _rec("b", 1, "individual", "standing", race_seq=2),
            ],
        )
        assert out.tolist() == [5, 0, 0, 5]

    def test_race_type_indexing_and_constraint(self):
        row = _wire_row(omega_free=(60.0, -60.0))  # free coord is individual
        out = self._draw(
            row,
            [
                _rec("a", 1, "individual", "prone"),
                _rec("a", 2, "sprint", "prone"),
                _rec("b", 1, "individual", "prone"),
                _rec("b", 2, "sprint", "prone"),
            ],
        )
        assert out.tolist() == [5, 0, 0, 5]

    def test_even_logit_means_half_hits(self):
        samples = _samples_from_flat(_WIRE_SPEC, _wire_row())
        out = predictive_draws(
            samples, [_rec("a", 1, "individual", "prone")], _WIRE_DATA, n_rep=10_000
        )
        assert out.shape == (10_000, 1)
        assert abs(out.mean() - 2.5) < 0.05


class TestPinnedPredictive:
    """The sha256 of ``predictive_draws`` on the small fit.  A refactor of
    how draws become log-odds must leave these hashes as they are."""

    @pytest.mark.parametrize("n_rep, digest", [
        (None, "82d73c06a5db2c7f7c2e688bf4968b158e739c01379a29de9070f8323f369750"),
        (50, "4309a484ca7ed299105673fc5a8c0bdebe3903bbe8e39b8cb238efa47ddd20d8"),
        (650, "510ddfb407474ece21681d1d1088ec4edf2f308fd6fabe45ecc4acca0b47a434"),
    ], ids=["all_draws", "subsampled", "recycled"])
    def test_schedule_draws(self, small_fit, small_dataset, n_rep, digest):
        out = predictive_draws(small_fit, small_dataset.records, small_dataset,
                               n_rep=n_rep, seed=3)
        assert out.shape == (n_rep or small_fit.total_draws, len(small_dataset.records))
        assert hashlib.sha256(np.ascontiguousarray(out, "<i2").tobytes()).hexdigest() == digest


class TestPredictiveStreams:
    def _samples(self):
        rng = np.random.default_rng(5)
        flat = 0.3 * rng.standard_normal((50, _WIRE_SPEC.dim))
        return _samples_from_flat(_WIRE_SPEC, flat)

    def test_templates_have_independent_streams(self):
        samples = self._samples()
        t_a = _rec("a", 1, "individual", "prone")
        t_b = _rec("b", 2, "sprint", "standing")
        joint = predictive_draws(samples, [t_a, t_b], _WIRE_DATA, seed=1)
        alone = predictive_draws(samples, [t_a], _WIRE_DATA, seed=1)
        assert np.array_equal(joint[:, 0], alone[:, 0])
        swapped = predictive_draws(samples, [t_b, t_a], _WIRE_DATA, seed=1)
        assert np.array_equal(joint[:, [1, 0]], swapped)

    def test_seed_changes_draws(self):
        samples = self._samples()
        t = _rec("a", 1, "individual", "prone")
        a = predictive_draws(samples, [t], _WIRE_DATA, seed=1)
        b = predictive_draws(samples, [t], _WIRE_DATA, seed=2)
        assert not np.array_equal(a, b)

    def test_n_rep_shapes(self):
        samples = self._samples()
        t = _rec("a", 1, "individual", "prone")
        assert predictive_draws(samples, [t], _WIRE_DATA).shape == (50, 1)
        assert predictive_draws(samples, [t], _WIRE_DATA, n_rep=7).shape == (7, 1)
        assert predictive_draws(samples, [t], _WIRE_DATA, n_rep=130).shape == (130, 1)
        full = predictive_draws(samples, [t], _WIRE_DATA)
        again = predictive_draws(samples, [t], _WIRE_DATA, n_rep=50)
        assert np.array_equal(full, again)
        with pytest.raises(DataError):
            predictive_draws(samples, [t], _WIRE_DATA, n_rep=0)

    def test_template_validation(self):
        samples = self._samples()
        with pytest.raises(DataError, match="athlete"):
            predictive_draws(samples, [_rec("zz", 1, "sprint", "prone")], _WIRE_DATA)
        with pytest.raises(DataError, match="stage"):
            predictive_draws(samples, [_rec("a", 9, "sprint", "prone")], _WIRE_DATA)
        with pytest.raises(DataError, match="race type"):
            predictive_draws(samples, [_rec("a", 1, "pursuit", "prone")], _WIRE_DATA)


def _traced_peak(fn):
    """``fn()`` and the peak of the memory it allocated, by tracemalloc."""
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.fixture(scope="module")
def wide_posterior(season_dataset):
    """2100 draws of the paper-scale model: more than four chunks of
    ``predict._CHUNK_DRAWS``, with effects of about 9 MB."""
    spec = ModelSpec.for_dataset(season_dataset)
    flat = 0.3 * np.random.default_rng(8).standard_normal((2100, spec.dim))
    return _samples_from_flat(spec, flat)


class TestBoundedMemory:
    """The report's summaries and simulators hold at most one draws-sized
    array beyond their input."""

    def test_predictive_draws_hold_less_than_one_expansion(self, wide_posterior,
                                                           season_dataset):
        full = sum(a.nbytes for a in expand_draws(wide_posterior))
        templates = season_dataset.records[:300]
        out, peak = _traced_peak(
            lambda: predictive_draws(wide_posterior, templates, season_dataset, seed=1))
        assert out.dtype == np.int8 and out.shape == (2100, 300)
        assert peak < full

    @pytest.mark.parametrize("n_rep", [None, 37, 130])
    def test_counts_do_not_depend_on_the_chunking(self, monkeypatch, n_rep):
        flat = 0.3 * np.random.default_rng(5).standard_normal((50, _WIRE_SPEC.dim))
        samples = _samples_from_flat(_WIRE_SPEC, flat)
        templates = list(_WIRE_DATA.records) + [_rec("a", 2, "individual", "standing")]
        whole = predictive_draws(samples, templates, _WIRE_DATA, n_rep=n_rep, seed=4)
        monkeypatch.setattr(predict, "_CHUNK_DRAWS", 7)
        chunked = predictive_draws(samples, templates, _WIRE_DATA, n_rep=n_rep, seed=4)
        assert whole.tobytes() == chunked.tobytes()

    def test_odds_ratios_are_summarized_one_athlete_at_a_time(self, wide_posterior):
        eff = expand_draws(wide_posterior)
        full = sum(a.nbytes for a in eff)
        want_beta, want_omega = summary(np.exp(eff.beta)), summary(np.exp(eff.omega))
        del eff
        beta, beta_peak = _traced_peak(lambda: beta_trajectories(wide_posterior))
        race, race_peak = _traced_peak(lambda: race_effects(wide_posterior))
        # the numbers of one summary of the whole array, bit for bit
        got_beta = (beta.or_mean, beta.or_median, beta.or_lower, beta.or_upper)
        got_omega = (race.or_mean, race.or_median, race.or_lower, race.or_upper)
        for got, want in zip(got_beta + got_omega, want_beta + want_omega):
            assert got.tobytes() == want.tobytes()
        # no whole-array copy (and far less: the next test)
        assert max(beta_peak, race_peak) < 1.1 * full

    @pytest.mark.parametrize("summarize", ["beta_trajectories", "position_effects",
                                           "race_effects"])
    def test_effect_summaries_hold_far_less_than_one_expansion(self, wide_posterior,
                                                               summarize):
        # each reads views of the draws, one athlete at a time
        full = sum(a.nbytes for a in expand_draws(wide_posterior))
        _, peak = _traced_peak(lambda: getattr(predict, summarize)(wide_posterior))
        assert peak < 0.2 * full


class TestEffectSummaries:
    def test_mu_summary_attaches_observed(self, small_fit, small_dataset):
        rows = mu_summary(small_fit, small_dataset)
        assert [r.stage for r in rows] == list(range(1, small_fit.spec.T + 1))
        # independent per-stage accuracy from the raw records
        for r in rows:
            recs = [x for x in small_dataset.records if x.stage == r.stage]
            assert recs, "synthetic season covers every stage"
            obs = sum(x.hits for x in recs) / (5.0 * len(recs))
            assert r.observed == pytest.approx(obs)
            assert 0.0 < r.lower <= r.median <= r.upper < 1.0
            assert 0.0 < r.mean < 1.0

    def test_mu_summary_without_dataset(self, small_fit):
        rows = mu_summary(small_fit)
        assert all(r.observed is None for r in rows)

    def test_mu_summary_expands_nothing(self, small_fit, small_dataset, monkeypatch):
        # mu is a view of the draws: the summary reads it without an expansion
        want = [summary(expit(row)) for row in predict.expand_draws(small_fit).mu.T]

        def refuse(*args):
            raise AssertionError("expanded")

        for owner, name in ((predict, "expand_draws"), (predict, "expand"), (model, "expand")):
            monkeypatch.setattr(owner, name, refuse)
        rows = mu_summary(small_fit, small_dataset)
        assert [(r.mean, r.median, r.lower, r.upper) for r in rows] == [
            tuple(map(float, w)) for w in want
        ]

    def test_beta_trajectories(self, small_fit):
        spec = small_fit.spec
        tr = beta_trajectories(small_fit)
        for arr in (tr.or_mean, tr.or_geomean, tr.or_median, tr.or_lower, tr.or_upper):
            assert arr.shape == (spec.S, spec.T)
            assert (arr > 0).all()
        assert (tr.or_lower <= tr.or_median).all()
        assert (tr.or_median <= tr.or_upper).all()
        # arithmetic mean of exp dominates exp of mean (Jensen)
        assert (tr.or_geomean <= tr.or_mean + 1e-12).all()

    def test_position_effects(self, small_fit):
        pe = position_effects(small_fit)
        S = small_fit.spec.S
        for arr in (
            pe.gamma_mean,
            pe.prone_or_mean,
            pe.prone_or_median,
            pe.prone_or_lower,
            pe.prone_or_upper,
        ):
            assert arr.shape == (S,)
        assert (pe.prone_or_lower <= pe.prone_or_median).all()
        assert (pe.prone_or_median <= pe.prone_or_upper).all()

    def test_race_effects(self, small_fit):
        re = race_effects(small_fit)
        spec = small_fit.spec
        assert re.omega_mean.shape == (spec.S, spec.Z)
        assert re.or_mean.shape == (spec.S, spec.Z)
        assert re.race_types == RACE_TYPES[: spec.Z]
        assert (re.or_lower <= re.or_upper).all()
        # omega means respect the sum-to-zero constraint
        assert np.abs(re.omega_mean.sum(axis=1)).max() < 1e-10


class TestPosteriorPredictiveChecks:
    def test_simulate_schedule_shape_and_range(self, small_fit, small_dataset):
        joint = simulate_schedule(small_fit, small_dataset, n_rep=100, seed=5)
        assert joint.shape == (100, small_dataset.n_records)
        assert joint.min() >= 0 and joint.max() <= 5

    def test_stage_totals_match_manual_aggregation(self, small_fit, small_dataset):
        joint = simulate_schedule(small_fit, small_dataset, n_rep=100, seed=5)
        ppc = stage_totals_ppc(joint, small_dataset)
        assert set(ppc) == {r.stage for r in small_dataset.records}
        for t, summary in ppc.items():
            cols = [i for i, r in enumerate(small_dataset.records) if r.stage == t]
            assert np.array_equal(summary.draws, joint[:, cols].sum(axis=1))
            assert summary.observed == sum(
                small_dataset.records[i].hits for i in cols
            )
            # bounds recomputable by an independent sort
            srt = np.sort(summary.draws)
            n = len(srt)
            assert summary.lower == srt[math.ceil(0.025 * n) - 1]
            assert summary.upper == srt[math.ceil(0.975 * n) - 1]

    def test_joint_draws_shape_checked(self, small_dataset):
        for ppc in (stage_totals_ppc, race_position_ppc):
            with pytest.raises(DataError):
                ppc(np.zeros((10, 3)), small_dataset)

    def test_race_position_cells(self, small_fit, small_dataset):
        joint = simulate_schedule(small_fit, small_dataset, n_rep=80, seed=3)
        ppc = race_position_ppc(joint, small_dataset)
        present = {(r.race_type, r.position) for r in small_dataset.records}
        assert set(ppc) == present
        for (race, pos), summary in ppc.items():
            recs = [r for r in small_dataset.records if (r.race_type, r.position) == (race, pos)]
            obs = 100.0 * sum(r.hits for r in recs) / (5.0 * len(recs))
            assert summary.observed == pytest.approx(obs)
            assert 0.0 <= summary.lower <= summary.upper <= 100.0

    def test_cumulative_hits(self, small_fit, small_dataset):
        athlete = small_dataset.athletes[0]
        joint = simulate_schedule(small_fit, small_dataset, n_rep=50, seed=2)
        path = cumulative_hits(joint, small_dataset, athlete)
        assert path.athlete == athlete
        assert list(path.races) == sorted(path.races)
        running = 0
        for (stage, race_seq, _), summary in zip(path.races, path.summaries):
            cols = [
                r
                for r in small_dataset.records
                if r.athlete == athlete and (r.stage, r.race_seq) == (stage, race_seq)
            ]
            running += sum(r.hits for r in cols)
            assert summary.observed == running
        # cumulative draws never decrease
        first, last = path.summaries[0].draws, path.summaries[-1].draws
        assert (last >= first).all()

    def test_cumulative_hits_unknown_athlete(self, small_fit, small_dataset):
        joint = simulate_schedule(small_fit, small_dataset, n_rep=10, seed=2)
        with pytest.raises(DataError):
            cumulative_hits(joint, small_dataset, "nobody")
        with pytest.raises(DataError):
            cumulative_hits(joint[:, :3], small_dataset, small_dataset.athletes[0])
