"""Model density: likelihood, priors, constraints, gradients, vectorization."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import expit, logit
from scipy.stats import halfnorm, norm

from biathlon_bayes import model
from biathlon_bayes.data import Dataset, SessionRecord
from biathlon_bayes.errors import DataError
from biathlon_bayes.model import (
    ModelSpec,
    ParameterState,
    bout_log_likelihoods,
    expand,
    from_vector,
    grad_log_posterior,
    layout,
    linear_predictors,
    log_likelihood,
    log_posterior,
    log_prior,
    param_names,
    sample_prior,
    to_vector,
)
from biathlon_bayes.streams import rng_for

from conftest import make_season


def rec(**kw):
    base = dict(
        athlete="a", stage=1, race_type="sprint", position="prone",
        race_seq=1, bout_seq=1, hits=4,
    )
    base.update(kw)
    return SessionRecord(**base)


class TestModelSpec:
    def test_free_dimension_full_scale(self):
        # 11 baseline + 29x11 trajectories + 30 position + 30x3 race + 4 scales
        assert ModelSpec(S=30, T=11, Z=4).dim == 454

    def test_free_dimension_small(self):
        assert ModelSpec(S=3, T=2).dim == 2 + 2 * 2 + 3 + 3 * 3 + 4

    def test_mu_only_dimension(self):
        assert ModelSpec(S=2, T=1, Z=2, mu_only=True).dim == 1

    def test_for_dataset(self):
        d = Dataset.from_records([rec(), rec(athlete="b", stage=2)], n_stages=3)
        spec = ModelSpec.for_dataset(d)
        assert (spec.S, spec.T) == (2, 3)

    @pytest.mark.parametrize("kw", [dict(S=0, T=1), dict(S=2, T=0), dict(S=2, T=1, Z=1),
                                    dict(S=4.0, T=3), dict(S=4, T=True),
                                    dict(S=4, T=3, Z=np.float64(4)), dict(S=4, T=3, mu_only=1)])
    def test_degenerate_shapes_rejected(self, kw):
        with pytest.raises(DataError):
            ModelSpec(**kw)

    @pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf, 0, -1.0, True,
                                       np.bool_(True), "1.0", None],
                             ids=["nan", "inf", "-inf", "zero", "negative", "bool", "np-bool",
                                  "string", "none"])
    def test_sigma_scale_must_be_a_finite_positive_number(self, scale):
        with pytest.raises(DataError, match="sigma_scale"):
            ModelSpec(S=3, T=2, sigma_scale=scale)

    @pytest.mark.parametrize("scale", [0.5, 2, np.float64(0.7), np.int64(3)])
    def test_sigma_scale_takes_any_real_number_type(self, scale):
        assert ModelSpec(S=3, T=2, sigma_scale=scale).sigma_scale == scale

    def test_numpy_integer_shapes_accepted(self):
        spec = ModelSpec(S=np.int64(3), T=np.int32(2), mu_only=np.bool_(False))
        assert spec == ModelSpec(S=3, T=2) and spec.dim == ModelSpec(S=3, T=2).dim


class TestLikelihood:
    def test_three_hits_at_even_odds(self):
        # direct binomial pmf: ln C(5,3) + 5 ln(1/2)
        val = bout_log_likelihoods(np.array([3]), np.array([0.0]))[0]
        assert val == pytest.approx(-1.1631508098056809, abs=1e-15)

    def test_five_hits_at_even_odds(self):
        val = bout_log_likelihoods(np.array([5]), np.array([0.0]))[0]
        assert val == pytest.approx(5 * math.log(0.5), abs=1e-15)

    def test_extreme_linear_predictor_stays_finite(self):
        hits = np.array([0, 5, 3, 2])
        eta = np.array([50.0, -50.0, 700.0, -700.0])
        vals = bout_log_likelihoods(hits, eta)
        assert np.all(np.isfinite(vals))
        # 0 hits at eta=+50: each shot costs ~50 nats
        assert vals[0] == pytest.approx(-250.0, rel=1e-6)

    def test_log_likelihood_sums_over_bouts(self):
        d = Dataset.from_records(
            [rec(hits=3), rec(hits=5, bout_seq=2, position="standing"), rec(athlete="b", hits=2)]
        )
        spec = ModelSpec.for_dataset(d)
        p = ParameterState.zeros(spec)
        expected = float(
            bout_log_likelihoods(np.array([3, 5, 2]), linear_predictors(p, d, spec)).sum()
        )
        assert log_likelihood(p, d, spec) == pytest.approx(expected, abs=1e-12)

    def test_a_cell_row_is_the_sum_of_its_sessions(self, season_dataset):
        # a cell's sessions share one log-odds: one row of its totals, its
        # shots and its summed ln C(5, y) gives their summed log-pmf
        a, c = season_dataset.arrays, season_dataset.cells
        rng = np.random.default_rng(9)
        eta = rng.normal(0.0, 3.0, len(c.first))
        keys = list(zip(a.athlete, a.stage0, a.position, a.race))
        cell_of = {keys[f]: i for i, f in enumerate(c.first)}
        index = np.array([cell_of[k] for k in keys])  # each session's cell
        cells = bout_log_likelihoods(c.hits, eta, c.shots, c.log_choose)
        sessions = bout_log_likelihoods(a.hits, eta[index])
        assert len(cells) == 1344 and len(sessions) == 2088
        np.testing.assert_allclose(cells, np.bincount(index, weights=sessions), rtol=0, atol=1e-9)
        assert cells.sum() == pytest.approx(sessions.sum(), abs=1e-9)

    def test_a_cell_of_one_session_is_that_session_bit_for_bit(self, season_dataset):
        a, c = season_dataset.arrays, season_dataset.cells
        one = c.shots == 5
        eta = np.random.default_rng(10).normal(0.0, 3.0, len(c.first))
        cells = bout_log_likelihoods(c.hits, eta, c.shots, c.log_choose)
        sessions = bout_log_likelihoods(a.hits[c.first], eta)
        assert one.sum() == 600 and np.array_equal(cells[one], sessions[one])

    def test_link_function_is_logistic(self):
        # eta = 1.671 corresponds to ~84.2% hit probability
        assert expit(1.671) == pytest.approx(0.8417, abs=5e-5)
        assert logit(expit(1.671)) == pytest.approx(1.671, abs=1e-12)


class TestConstraints:
    def test_expand_satisfies_sum_to_zero(self):
        spec = ModelSpec(S=4, T=3)
        eff = expand(sample_prior(spec, rng_for(3)), spec)
        # athletes cancel per stage; positions cancel per athlete; race types per athlete
        assert np.allclose(eff.beta.sum(axis=0), 0.0, atol=1e-12)
        assert np.allclose(eff.gamma[:, 0] + eff.gamma[:, 1], 0.0, atol=1e-12)
        assert np.allclose(eff.omega.sum(axis=1), 0.0, atol=1e-12)

    def test_constrained_athlete_is_negative_column_sum(self):
        spec = ModelSpec(S=3, T=2)
        p = sample_prior(spec, rng_for(4))
        eff = expand(p, spec)
        assert np.allclose(eff.beta[-1], -p.beta_free.sum(axis=0), atol=1e-12)

    def test_linear_predictor_assembles_all_terms(self):
        d = Dataset.from_records(
            [rec(athlete="x"), rec(athlete="y"), rec(athlete="x", bout_seq=2, position="standing")]
        )
        spec = ModelSpec.for_dataset(d)
        p = sample_prior(spec, rng_for(5))
        eff = expand(p, spec)
        eta = linear_predictors(p, d, spec)
        i_spr = 1  # RACE_TYPES.index("sprint")
        want0 = eff.mu[0] + eff.beta[0, 0] + eff.gamma[0, 0] + eff.omega[0, i_spr]
        want2 = eff.mu[0] + eff.beta[0, 0] + eff.gamma[0, 1] + eff.omega[0, i_spr]
        assert eta[0] == pytest.approx(want0, abs=1e-12)
        assert eta[2] == pytest.approx(want2, abs=1e-12)


def _independent_log_prior(p: ParameterState, spec: ModelSpec) -> float:
    """Second-route prior: scipy densities, term by term."""
    if spec.mu_only:
        total = norm.logpdf(p.mu[0], 0.0, 1.0)
        for a, b in zip(p.mu[1:], p.mu[:-1]):
            total += norm.logpdf(a - b, 0.0, 1.0)
        return float(total)
    sig = np.exp(p.log_sigma)
    total = 0.0
    for row, sd in [(p.mu, sig[0])] + [(r, sig[1]) for r in p.beta_free]:
        total += norm.logpdf(row[0], 0.0, sd)
        total += norm.logpdf(np.diff(row), 0.0, sd).sum()
    total += norm.logpdf(p.gamma_free, 0.0, sig[2]).sum()
    total += norm.logpdf(p.omega_free, 0.0, sig[3]).sum()
    # half-normal hyperpriors on the scales, plus the log-scale Jacobian
    total += halfnorm.logpdf(sig, scale=spec.sigma_scale).sum() + p.log_sigma.sum()
    return float(total)


class TestPrior:
    def test_log_prior_matches_independent_route(self):
        spec = ModelSpec(S=3, T=4)
        for seed in range(5):
            p = sample_prior(spec, rng_for(seed))
            assert log_prior(p, spec) == pytest.approx(
                _independent_log_prior(p, spec), rel=1e-12
            )

    def test_mu_only_prior_is_unit_random_walk(self):
        spec = ModelSpec(S=2, T=3, Z=2, mu_only=True)
        p = ParameterState.zeros(spec)
        p.mu[:] = [0.5, 0.7, 0.2]
        assert log_prior(p, spec) == pytest.approx(
            _independent_log_prior(p, spec), rel=1e-12
        )

    def test_posterior_is_likelihood_plus_prior(self, golden):
        d, spec = golden
        p = ParameterState.zeros(spec)
        p.mu[0] = 0.4
        assert log_posterior(p, d, spec) == pytest.approx(
            log_likelihood(p, d, spec) + log_prior(p, spec), abs=1e-12
        )

    def test_sample_prior_scales_respect_spec(self):
        spec = ModelSpec(S=2, T=1, sigma_scale=0.5)
        draws = np.array(
            [np.exp(sample_prior(spec, rng_for(i)).log_sigma) for i in range(400)]
        )
        # half-normal(0.5) has mean 0.5*sqrt(2/pi) ~ 0.399
        assert draws.mean() == pytest.approx(0.399, abs=0.05)


class TestPriorClasses:
    """``prior_classes`` defines each latent class once: its rows cover the
    layout's latent coordinates, and its unit precision P prices a row as
    ``v @ P @ v``, which must add up to the class's sum of squares: the
    squared first elements and increments of the random walks, the plain
    squares of the iid effects."""

    @pytest.fixture(params=["S4_T3_Z3", "season", "mu_only"])
    def spec(self, request, season_dataset):
        if request.param == "season":
            return ModelSpec.for_dataset(season_dataset)
        return ModelSpec(S=4, T=3, Z=3, mu_only=request.param == "mu_only")

    def test_rows_partition_the_latent_coordinates_in_vector_order(self, spec):
        classes = model.prior_classes(spec)
        want = ["mu"] if spec.mu_only else list(model.SIGMA_NAMES)
        assert [c.name for c in classes] == want
        rows = np.concatenate([c.rows.ravel() for c in classes])
        assert np.array_equal(rows, np.arange(layout(spec).sigma.start))
        for c in classes:
            n = c.rows.shape[1]
            assert c.rows.ndim == 2 and c.precision.shape == (n, n), c.name

    def test_row_quadratic_forms_sum_to_the_class_ss(self, spec):
        S, T, Z = spec.S, spec.T, spec.Z
        for seed in range(3):
            x = rng_for(seed).normal(0.0, 1.0, spec.dim)
            p = from_vector(x, spec)
            walks = [p.mu[None], p.beta_free]
            want = [float((w[:, 0] ** 2).sum() + (np.diff(w, axis=1) ** 2).sum())
                    for w in walks] + [float((p.gamma_free ** 2).sum()),
                                       float((p.omega_free ** 2).sum())]
            counts = [T, (S - 1) * T, S, S * (Z - 1)]
            n, ss = model.class_stats(p, spec)
            classes = model.prior_classes(spec)
            assert len(n) == len(ss) == len(classes)
            for k, c in enumerate(classes):
                assert n[k] == counts[k], c.name
                assert ss[k] == pytest.approx(want[k], rel=1e-12, abs=0), c.name
                total = sum(float(v @ c.precision @ v) for v in x[c.rows])
                assert total == pytest.approx(want[k], rel=1e-12, abs=0), c.name

    def test_built_once_per_spec_and_read_only(self, spec):
        classes = model.prior_classes(spec)
        assert model.prior_classes(dataclasses.replace(spec)) is classes
        for c in classes:
            with pytest.raises(ValueError):
                c.rows[0, 0] = 0
            with pytest.raises(ValueError):
                c.precision[0, 0] = 0.0


class TestVectorization:
    def test_roundtrip(self):
        spec = ModelSpec(S=3, T=2)
        p = sample_prior(spec, rng_for(8))
        q = from_vector(to_vector(p, spec), spec)
        assert np.array_equal(to_vector(q, spec), to_vector(p, spec))

    def test_layout_covers_vector_exactly(self):
        for spec, dim in [(ModelSpec(S=3, T=2), 22), (ModelSpec(S=3, T=2, mu_only=True), 2)]:
            lay = layout(spec)
            stops = [lay.mu, lay.beta, lay.gamma, lay.omega, lay.sigma]
            assert stops[0] == slice(0, spec.T)
            for a, b in zip(stops, stops[1:]):
                assert a.stop == b.start
            assert stops[-1].stop == spec.dim == dim

    def test_param_names_align_with_vector(self):
        spec = ModelSpec(S=3, T=2)
        names = param_names(spec)
        assert len(names) == spec.dim
        assert len(set(names)) == spec.dim
        assert names[0] == "mu[1]"
        assert names[-4:] == (
            "log_sigma_mu", "log_sigma_beta", "log_sigma_gamma", "log_sigma_omega",
        )
        lay = layout(spec)
        assert names[lay.beta.start] == "beta[1,1]"
        assert names[lay.gamma.start] == "gamma_prone[1]"
        assert names[lay.omega.start] == "omega[1,individual]"

    def test_wrong_length_vector_rejected(self):
        spec = ModelSpec(S=3, T=2)
        with pytest.raises(DataError):
            from_vector(np.zeros(spec.dim + 1), spec)

    def test_stacked_vectors_keep_their_leading_axis(self):
        spec = ModelSpec(S=3, T=2)
        p = from_vector(np.zeros((4, spec.dim)), spec)
        assert expand(p, spec).beta.shape == (4, 3, 2)
        with pytest.raises(DataError):
            from_vector(np.zeros((4, spec.dim + 1)), spec)
        with pytest.raises(DataError, match="omega_free"):  # wrong trailing shape
            expand(dataclasses.replace(p, omega_free=np.zeros((4, 3, 2))), spec)
        with pytest.raises(DataError, match="gamma_free"):  # leading axes disagree
            expand(dataclasses.replace(p, gamma_free=np.zeros((5, 3))), spec)
        with pytest.raises(DataError):  # the densities take one state at a time
            log_prior(p, spec)


class TestGradient:
    def test_matches_finite_differences_small(self):
        full, _ = make_season_small()
        reduced, _ = make_season_small(n_stages=3)
        rng = rng_for(19)
        for d, spec in [(full, ModelSpec.for_dataset(full)),
                        (reduced, ModelSpec(S=3, T=3, mu_only=True))]:
            f = lambda v: log_posterior(from_vector(v, spec), d, spec)
            for _ in range(20):
                x = rng.normal(0.0, 0.5, spec.dim)
                g = grad_log_posterior(from_vector(x, spec), d, spec)
                for i in rng.choice(spec.dim, min(6, spec.dim), replace=False):
                    h = 1e-5 * (1.0 + abs(x[i]))
                    e = np.zeros(spec.dim)
                    e[i] = h
                    fd = (f(x + e) - f(x - e)) / (2 * h)
                    rel = abs(g[i] - fd) / max(1.0, abs(g[i]), abs(fd))
                    assert rel < 1e-6, f"{spec} coord {i}: analytic {g[i]}, fd {fd}"

    def test_gradient_shape_and_finiteness(self, season):
        d, _ = season
        spec = ModelSpec.for_dataset(d)
        g = grad_log_posterior(sample_prior(spec, rng_for(2)), d, spec)
        assert g.shape == (spec.dim,)
        assert np.all(np.isfinite(g))


def make_season_small(n_stages=2):
    schedule = {1: ("sprint", "pursuit"), 2: ("individual",), 3: ("sprint",)}
    from biathlon_bayes import synth

    cfg = synth.SynthConfig(n_athletes=3, n_stages=n_stages,
                            schedule={t: schedule[t] for t in range(1, n_stages + 1)}, seed=13)
    return synth.generate_synthetic(cfg)


def _relabel(p: ParameterState, spec: ModelSpec, perm) -> ParameterState:
    """The state describing the same physical effects after athletes are
    reindexed by ``perm`` (new index i holds old athlete perm[i])."""
    eff = expand(p, spec)
    q = ParameterState.zeros(spec)
    q.mu[:] = p.mu
    q.beta_free[:] = eff.beta[perm][:-1]
    q.gamma_free[:] = eff.gamma[perm][:, 0]
    q.omega_free[:] = eff.omega[perm][:, : spec.Z - 1]
    q.log_sigma[:] = p.log_sigma
    return q


@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False))
def test_log_likelihood_equivariant_under_relabeling(rnd):
    """Shuffling rows (which can reindex athletes) must not change the
    likelihood of the correspondingly relabeled state."""
    d, _ = make_season_small()
    spec = ModelSpec.for_dataset(d)
    p = sample_prior(spec, rng_for(1))
    records = list(d.records)
    rnd.shuffle(records)
    shuffled = Dataset.from_records(records, n_stages=d.n_stages)
    perm = [d.athletes.index(a) for a in shuffled.athletes]
    q = _relabel(p, spec, perm)
    assert log_likelihood(q, shuffled, spec) == pytest.approx(
        log_likelihood(p, d, spec), rel=1e-12
    )
