"""Oracle tests: the quadrature reference posterior, the finite-difference
gradient checker, and the simulation-based calibration harness.

The quadrature goldens were frozen from an independent implementation of the
single-coordinate posterior (standard-normal prior, binomial likelihood,
trapezoid rule on [-10, 10]); everything here must keep reproducing them.
"""

import dataclasses
import math

import numpy as np
import pytest

from biathlon_bayes import model, oracles
from biathlon_bayes.data import Dataset, SessionRecord
from biathlon_bayes.errors import DataError, NumericalError
from biathlon_bayes.model import ModelSpec
from biathlon_bayes.oracles import (
    gradient_check,
    golden_quadrature_dataset,
    quadrature_posterior,
    sbc,
)
from biathlon_bayes.sampler import SamplerConfig
from biathlon_bayes.synth import SynthConfig

GOLDEN_MEAN = 1.0525225531422362
GOLDEN_SD = 0.5154434057429892


def _stage1_dataset(hit_list):
    records = [
        SessionRecord("a", 1, "sprint", "prone" if i % 2 == 0 else "standing", 1, i + 1, h)
        for i, h in enumerate(hit_list[:2])
    ] + [
        SessionRecord("b", 1, "sprint", "prone", 1, 1, h) for h in hit_list[2:3]
    ]
    return Dataset.from_records(records)


class TestQuadratureOracle:
    def test_golden_moments(self, golden):
        dataset, spec = golden
        res = quadrature_posterior(spec, dataset)
        assert res.mean == pytest.approx(GOLDEN_MEAN, abs=1e-8)
        assert res.sd == pytest.approx(GOLDEN_SD, abs=1e-8)
        assert res.refinement_delta < 1e-6

    def test_grid_doubling_stability(self, golden):
        dataset, spec = golden
        a = quadrature_posterior(spec, dataset, n_nodes=10_001)
        b = quadrature_posterior(spec, dataset, n_nodes=20_001)
        assert a.mean == pytest.approx(b.mean, abs=1e-8)
        assert a.sd == pytest.approx(b.sd, abs=1e-8)
        assert b.n_nodes == 2 * 20_001 - 1

    def test_quantiles_are_ordered_and_bracket_mean(self, golden):
        dataset, spec = golden
        res = quadrature_posterior(spec, dataset)
        levels = sorted(res.quantiles)
        values = [res.quantiles[q] for q in levels]
        assert values == sorted(values)
        assert res.quantiles[0.025] < res.mean < res.quantiles[0.975]
        # unimodal, mildly right-skewed: median just below the mean
        assert res.quantiles[0.5] < res.mean
        assert res.quantiles[0.5] == pytest.approx(res.mean, abs=0.05)

    def test_posterior_mean_monotone_in_hits(self):
        spec = ModelSpec(S=2, T=1, Z=2, mu_only=True)
        low = quadrature_posterior(spec, _stage1_dataset([1, 2, 3]))
        mid = quadrature_posterior(spec, _stage1_dataset([5, 4, 3]))
        high = quadrature_posterior(spec, _stage1_dataset([5, 5, 4]))
        assert low.mean < mid.mean < high.mean
        assert low.mean < 0.0  # 6/15 observed pulls the baseline negative

    def test_prior_recovered_without_strong_data(self):
        # a single even split leaves the posterior centred near the prior
        spec = ModelSpec(S=2, T=1, Z=2, mu_only=True)
        records = [
            SessionRecord("a", 1, "sprint", "prone", 1, 1, 2),
            SessionRecord("a", 1, "sprint", "standing", 1, 2, 3),
        ]
        res = quadrature_posterior(spec, Dataset.from_records(records))
        assert abs(res.mean) < 0.25
        assert 0.5 < res.sd < 1.0  # tighter than the prior, same order

    def test_requires_reduced_model(self, golden):
        dataset, _ = golden
        with pytest.raises(DataError):
            quadrature_posterior(ModelSpec(S=2, T=1, Z=2), dataset)
        with pytest.raises(DataError):
            quadrature_posterior(ModelSpec(S=2, T=2, Z=2, mu_only=True), dataset)

    def test_rejects_coarse_grid(self, golden):
        dataset, spec = golden
        with pytest.raises(DataError):
            quadrature_posterior(spec, dataset, n_nodes=5000)

    def test_rejects_multi_stage_data(self):
        spec = ModelSpec(S=2, T=1, Z=2, mu_only=True)
        records = [
            SessionRecord("a", 2, "sprint", "prone", 1, 1, 4),
            SessionRecord("b", 2, "sprint", "prone", 1, 1, 3),
        ]
        d = Dataset.from_records(records)
        with pytest.raises(DataError):
            quadrature_posterior(spec, d)

    def test_unconverged_grid_detected(self, golden):
        # node spacing ~2 over a +-1e4 window undersamples an sd~0.5
        # posterior, so the doubled grid shifts the mean noticeably
        dataset, spec = golden
        with pytest.raises(NumericalError, match="not converged"):
            quadrature_posterior(spec, dataset, lo=-1e4, hi=1e4, n_nodes=10_001)


class TestGradientCheck:
    def test_model_gradients_on_small_season(self, small_dataset):
        spec = ModelSpec.for_dataset(small_dataset)
        res = gradient_check(spec, small_dataset, n_points=5, seed=1)
        assert res.max_rel_error < 1e-6
        assert res.dim == spec.dim
        assert res.n_points == 5
        assert 0 <= res.worst_point < 5
        assert res.coordinate_name == model.param_names(spec)[res.worst_coordinate]

    def test_linear_stub_is_exact(self):
        c = np.array([1.5, -2.0, 0.25])
        res = gradient_check(
            None,
            None,
            n_points=10,
            fn=lambda x: float(c @ x),
            grad_fn=lambda x: c,
            dim=3,
        )
        assert res.max_rel_error < 1e-9
        assert res.coordinate_name is None

    def test_quadratic_stub(self):
        res = gradient_check(
            None,
            None,
            n_points=10,
            fn=lambda x: -0.5 * float(x @ x),
            grad_fn=lambda x: -x,
            dim=4,
        )
        assert res.max_rel_error < 1e-8

    def test_sign_flip_detected(self):
        res = gradient_check(
            None,
            None,
            n_points=10,
            fn=lambda x: -0.5 * float(x @ x),
            grad_fn=lambda x: x,  # wrong sign
            dim=4,
        )
        assert res.max_rel_error > 0.1

    def test_scale_error_detected(self):
        res = gradient_check(
            None,
            None,
            n_points=10,
            fn=lambda x: -0.5 * float(x @ x),
            grad_fn=lambda x: -1.02 * x,  # 2% off
            dim=4,
        )
        assert res.max_rel_error > 1e-3

    def test_deterministic_in_seed(self, small_dataset):
        spec = ModelSpec.for_dataset(small_dataset)
        a = gradient_check(spec, small_dataset, n_points=3, seed=9)
        b = gradient_check(spec, small_dataset, n_points=3, seed=9)
        assert a == b

    def test_validation(self):
        with pytest.raises(DataError):
            gradient_check(None, None, n_points=0, fn=lambda x: 0.0, grad_fn=lambda x: x, dim=2)
        with pytest.raises(DataError):
            gradient_check(None, None, fn=lambda x: 0.0, grad_fn=lambda x: x)  # no dim
        with pytest.raises(DataError):
            gradient_check(None, None)  # default route needs spec + dataset
        with pytest.raises(DataError, match="shape"):
            gradient_check(
                None,
                None,
                n_points=1,
                fn=lambda x: 0.0,
                grad_fn=lambda x: np.zeros(5),
                dim=3,
            )


_SBC_SPEC = ModelSpec(S=3, T=2, Z=4)
_SBC_SYNTH = SynthConfig(
    n_athletes=3,
    n_stages=2,
    schedule={1: ("sprint", "individual"), 2: ("pursuit", "mass_start")},
)
_SBC_FIT_CFG = SamplerConfig(n_chains=1, burn_in=10, kept_iterations=10, thin=1)


def _prior_draws_fit(n_draws):
    """A stub fit that returns fresh prior draws: the exact SBC null."""

    def fit(dataset, spec, cfg, fit_seed):
        rng = np.random.default_rng(fit_seed)
        return np.stack(
            [model.to_vector(model.sample_prior(spec, rng), spec) for _ in range(n_draws)]
        )

    return fit


class TestSBCHarness:
    def test_prior_fit_is_calibrated(self):
        report = sbc(
            _SBC_SPEC,
            _SBC_SYNTH,
            replications=100,
            sampler_cfg=_SBC_FIT_CFG,
            seed=0,
            fit_fn=_prior_draws_fit(400),
        )
        assert report.uniform_ok
        assert report.replications == 100 and not report.failures
        assert report.n_pooled == 400
        assert report.coverage90_ok()
        assert abs(float(report.coverage90.mean()) - 0.9) < 0.03
        assert abs(float(report.coverage50.mean()) - 0.5) < 0.05

    def test_biased_fit_is_rejected(self):
        base = _prior_draws_fit(400)

        def shifted(dataset, spec, cfg, fit_seed):
            return base(dataset, spec, cfg, fit_seed) + 0.75

        report = sbc(
            _SBC_SPEC,
            _SBC_SYNTH,
            replications=100,
            sampler_cfg=_SBC_FIT_CFG,
            seed=0,
            fit_fn=shifted,
        )
        assert not report.uniform_ok

    def test_overconfident_fit_is_rejected(self):
        base = _prior_draws_fit(400)

        def narrowed(dataset, spec, cfg, fit_seed):
            draws = base(dataset, spec, cfg, fit_seed)
            return draws.mean(axis=0) + 0.05 * (draws - draws.mean(axis=0))

        report = sbc(
            _SBC_SPEC,
            _SBC_SYNTH,
            replications=100,
            sampler_cfg=_SBC_FIT_CFG,
            seed=0,
            fit_fn=narrowed,
        )
        assert not report.uniform_ok
        assert not report.coverage90_ok()

    def test_ranks_and_bins_are_consistent(self):
        report = sbc(
            _SBC_SPEC,
            _SBC_SYNTH,
            replications=40,
            sampler_cfg=_SBC_FIT_CFG,
            seed=3,
            fit_fn=_prior_draws_fit(100),
        )
        assert report.ranks.shape == (40, _SBC_SPEC.dim)
        assert report.ranks.min() >= 0 and report.ranks.max() <= 100
        assert (report.bins.sum(axis=1) == 40).all()
        assert report.param_names == model.param_names(_SBC_SPEC)
        assert report.alpha == pytest.approx(0.01 / _SBC_SPEC.dim)

    def test_coverage_band_is_binomial_at_the_report_alpha(self):
        report = sbc(
            _SBC_SPEC,
            _SBC_SYNTH,
            replications=20,
            sampler_cfg=_SBC_FIT_CFG,
            seed=0,
            fit_fn=_prior_draws_fit(60),
        )
        assert report.alpha == pytest.approx(0.01 / 22)
        # the central Binomial(20, 0.9) band at that level is [12, 20]
        pmf = [math.comb(20, k) * 0.9**k * 0.1 ** (20 - k) for k in range(21)]
        assert sum(pmf[:12]) <= report.alpha / 2 < sum(pmf[:13])
        dim = _SBC_SPEC.dim
        for count, ok in ((12, True), (20, True), (11, False)):
            edge = np.full(dim, 18 / 20)
            edge[dim // 2] = count / 20
            assert dataclasses.replace(report, coverage90=edge).coverage90_ok() is ok

    def test_deterministic_and_seed_sensitive(self):
        kwargs = dict(
            replications=25, sampler_cfg=_SBC_FIT_CFG, fit_fn=_prior_draws_fit(60)
        )
        a = sbc(_SBC_SPEC, _SBC_SYNTH, seed=1, **kwargs)
        b = sbc(_SBC_SPEC, _SBC_SYNTH, seed=1, **kwargs)
        c = sbc(_SBC_SPEC, _SBC_SYNTH, seed=2, **kwargs)
        assert np.array_equal(a.ranks, b.ranks)
        assert a.seeds == b.seeds
        assert a.seeds != c.seeds

    def test_sparse_failures_are_tolerated(self):
        base = _prior_draws_fit(60)
        calls = {"n": 0}

        def flaky(dataset, spec, cfg, fit_seed):
            calls["n"] += 1
            if calls["n"] <= 3:
                raise NumericalError("injected")
            return base(dataset, spec, cfg, fit_seed)

        report = sbc(
            _SBC_SPEC,
            _SBC_SYNTH,
            replications=40,
            sampler_cfg=_SBC_FIT_CFG,
            seed=0,
            fit_fn=flaky,
        )
        assert report.failures == (0, 1, 2)
        assert report.replications == 37
        assert report.attempted == 40

    def test_widespread_failures_abort(self):
        def broken(dataset, spec, cfg, fit_seed):
            raise NumericalError("injected")

        with pytest.raises(NumericalError, match="did not fit"):
            sbc(
                _SBC_SPEC,
                _SBC_SYNTH,
                replications=20,
                sampler_cfg=_SBC_FIT_CFG,
                seed=0,
                fit_fn=broken,
            )

    def test_inconsistent_draw_counts_abort(self):
        calls = {"n": 0}

        def shrinking(dataset, spec, cfg, fit_seed):
            calls["n"] += 1
            return _prior_draws_fit(60 if calls["n"] == 1 else 40)(
                dataset, spec, cfg, fit_seed
            )

        with pytest.raises(NumericalError, match="differing"):
            sbc(
                _SBC_SPEC,
                _SBC_SYNTH,
                replications=20,
                sampler_cfg=_SBC_FIT_CFG,
                seed=0,
                fit_fn=shrinking,
            )

    def test_validation(self):
        with pytest.raises(DataError):
            sbc(_SBC_SPEC, _SBC_SYNTH, replications=5, fit_fn=_prior_draws_fit(10))
        fixed = SynthConfig(
            n_athletes=3,
            n_stages=1,
            schedule={1: ("sprint",)},
            true_params=model.ParameterState.zeros(ModelSpec(S=3, T=1)),
        )
        with pytest.raises(DataError, match="true parameters"):
            sbc(ModelSpec(S=3, T=1), fixed, replications=20, fit_fn=_prior_draws_fit(10))

    def test_wrong_shape_fit_counts_as_failure(self):
        def wrong(dataset, spec, cfg, fit_seed):
            return np.zeros((30, spec.dim + 1))

        with pytest.raises(NumericalError, match="did not fit"):
            sbc(
                _SBC_SPEC,
                _SBC_SYNTH,
                replications=20,
                sampler_cfg=_SBC_FIT_CFG,
                seed=0,
                fit_fn=wrong,
            )

    def test_json_summary_fields(self):
        report = sbc(
            _SBC_SPEC,
            _SBC_SYNTH,
            replications=25,
            sampler_cfg=_SBC_FIT_CFG,
            seed=4,
            fit_fn=_prior_draws_fit(60),
        )
        d = report.to_json_dict()
        assert d["replications"] == 25
        assert d["n_bins"] == oracles.N_RANK_BINS
        assert set(d) >= {
            "uniform_ok",
            "min_p_value",
            "coverage90_ok",
            "coverage50_mean",
            "coverage90_mean",
        }

    def test_real_sampler_smoke(self):
        # tiny end-to-end run through the actual fitting path
        spec = ModelSpec(S=2, T=1, Z=4)
        synth_cfg = SynthConfig(n_athletes=2, n_stages=1, schedule={1: ("sprint", "pursuit")})
        cfg = SamplerConfig(n_chains=1, burn_in=80, kept_iterations=80, thin=2, seed=0)
        report = sbc(spec, synth_cfg, replications=20, sampler_cfg=cfg, seed=6)
        assert report.attempted == 20
        assert report.n_pooled == 40
        assert report.ranks.shape[1] == spec.dim
