"""Sampler tests: the generic block runner on analytically known targets,
adaptation bookkeeping, convergence diagnostics, and the draws container."""

import csv
import hashlib
import io
import json
import re
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.signal import lfilter

from biathlon_bayes import model, sampler, synth
from biathlon_bayes.errors import DataError, NumericalError
from biathlon_bayes.sampler import (
    Block,
    PosteriorSamples,
    SamplerConfig,
    ess,
    export_draws,
    import_draws,
    run_chain,
    run_chains,
    split_rhat,
    summarize,
    worker_cap,
)


class _GaussTarget:
    """Correlated-normal toy target driven through the generic runner.

    ``block_mode`` picks one joint vector block or one scalar block per
    coordinate, so both adaptation targets get exercised.
    """

    def __init__(self, mean, cov, block_mode="vector"):
        self.mean = np.asarray(mean, dtype=float)
        self.prec = np.linalg.inv(np.asarray(cov, dtype=float))
        self.dim = len(self.mean)
        if block_mode == "vector":
            self.blocks = [Block("xy", np.arange(self.dim), False, np.ones(self.dim))]
        else:
            self.blocks = [
                Block(f"x{i}", np.array([i]), True, np.ones(1)) for i in range(self.dim)
            ]

    def initial_vector(self, rng):
        return rng.standard_normal(self.dim)

    def _logp(self, x):
        d = x - self.mean
        return -0.5 * float(d @ self.prec @ d)

    def make_cache(self, x):
        return SimpleNamespace(logp=self._logp(x))

    def propose_delta(self, x, cache, block, prop):
        xp = x.copy()
        xp[block.idx] = prop
        lp = self._logp(xp)
        return lp - cache.logp, lp

    def commit(self, x, cache, block, prop, stash):
        cache.logp = stash

    # gradient hooks for the gradient-assisted proposal mode
    def block_grad(self, x, cache, block):
        return (-self.prec @ (x - self.mean))[block.idx]

    def block_grad_at(self, x, cache, block, prop, stash):
        xp = x.copy()
        xp[block.idx] = prop
        return (-self.prec @ (xp - self.mean))[block.idx]


_TOY_MEAN = np.array([1.0, -1.0])
_TOY_COV = np.array([[1.0, 0.6], [0.6, 1.0]])


class TestRunnerOnKnownTarget:
    @pytest.mark.parametrize("block_mode", ["vector", "scalar"])
    def test_recovers_mean_and_covariance(self, block_mode):
        target = _GaussTarget(_TOY_MEAN, _TOY_COV, block_mode)
        cfg = SamplerConfig(n_chains=1, burn_in=2000, kept_iterations=50_000, thin=1, seed=3)
        res = run_chain(target, cfg, 0)
        assert res.draws.shape == (50_000, 2)
        assert np.allclose(res.draws.mean(axis=0), _TOY_MEAN, atol=0.05)
        assert np.allclose(np.cov(res.draws.T), _TOY_COV, atol=0.1)

    def test_gradient_assisted_mode_agrees(self):
        target = _GaussTarget(_TOY_MEAN, _TOY_COV)
        cfg = SamplerConfig(
            n_chains=1,
            burn_in=2000,
            kept_iterations=50_000,
            thin=1,
            seed=3,
            proposal_mode="gradient_assisted",
        )
        res = run_chain(target, cfg, 0)
        assert np.allclose(res.draws.mean(axis=0), _TOY_MEAN, atol=0.05)
        assert np.allclose(np.cov(res.draws.T), _TOY_COV, atol=0.1)

    @pytest.mark.parametrize("block_mode", ["vector", "scalar"])
    def test_adapted_acceptance_is_reasonable(self, block_mode):
        target = _GaussTarget(_TOY_MEAN, _TOY_COV, block_mode)
        cfg = SamplerConfig(n_chains=1, burn_in=2000, kept_iterations=5000, thin=1, seed=9)
        res = run_chain(target, cfg, 0)
        for rate in res.acceptance:
            assert 0.15 < rate < 0.65

    def test_adaptation_stops_at_burn_in(self):
        # scales reported at termination must be the ones frozen when
        # burn-in ended, however many kept sweeps follow
        target = _GaussTarget(_TOY_MEAN, _TOY_COV)
        cfg_short = SamplerConfig(n_chains=1, burn_in=500, kept_iterations=200, thin=1, seed=4)
        cfg_long = SamplerConfig(n_chains=1, burn_in=500, kept_iterations=2000, thin=1, seed=4)
        short = run_chain(target, cfg_short, 0)
        long = run_chain(target, cfg_long, 0)
        assert np.array_equal(short.scales, short.frozen_scales)
        assert np.array_equal(long.frozen_scales, short.frozen_scales)

    def test_adapt_window_zero_keeps_initial_scales(self):
        target = _GaussTarget(_TOY_MEAN, _TOY_COV)
        cfg = SamplerConfig(
            n_chains=1, burn_in=300, kept_iterations=100, thin=1, seed=4, adapt_window=0
        )
        res = run_chain(target, cfg, 0)
        assert res.scales == pytest.approx([2.38 / np.sqrt(2)])

    def test_adapt_window_shorter_than_burn_in_changes_outcome(self):
        target = _GaussTarget(_TOY_MEAN, _TOY_COV)
        base = SamplerConfig(n_chains=1, burn_in=800, kept_iterations=100, thin=1, seed=4)
        capped = SamplerConfig(
            n_chains=1, burn_in=800, kept_iterations=100, thin=1, seed=4, adapt_window=50
        )
        assert run_chain(target, base, 0).scales != pytest.approx(
            run_chain(target, capped, 0).scales
        )


class TestSamplerConfig:
    def test_defaults_retain_4000(self):
        cfg = SamplerConfig()
        assert (cfg.n_chains, cfg.n_retained) == (4, 1000)
        assert cfg.n_chains * cfg.n_retained == 4000

    def test_retained_count(self):
        assert SamplerConfig(kept_iterations=10, thin=5).n_retained == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_chains": 0},
            {"burn_in": -1},
            {"kept_iterations": 0},
            {"thin": 0},
            {"kept_iterations": 7, "thin": 2},
            {"proposal_mode": "hamiltonian"},
            {"adapt_window": -3},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(DataError):
            SamplerConfig(**kwargs)

    def test_json_dict_roundtrips(self):
        cfg = SamplerConfig(n_chains=2, burn_in=7, kept_iterations=12, thin=3, seed=5)
        assert SamplerConfig(**cfg.to_json_dict()) == cfg


class TestModelTargetBlocks:
    def test_blocks_partition_the_coordinates(self, small_dataset):
        spec = model.ModelSpec.for_dataset(small_dataset)
        target = sampler.ModelTarget(spec, small_dataset)
        covered = np.concatenate([b.idx for b in target.blocks])
        assert np.array_equal(np.sort(covered), np.arange(spec.dim))

    def test_block_layout(self, small_dataset):
        spec = model.ModelSpec.for_dataset(small_dataset)
        target = sampler.ModelTarget(spec, small_dataset)
        names = [b.name for b in target.blocks]
        assert names[0] == "mu"
        assert names[-4:] == [
            "log_sigma_mu",
            "log_sigma_beta",
            "log_sigma_gamma",
            "log_sigma_omega",
        ]
        by_name = {b.name: b for b in target.blocks}
        assert all(by_name[n].repeats == 8 for n in names[-4:])
        assert by_name["beta[1]"].repeats == 2  # multi-stage season
        assert by_name["gamma[1]"].scalar and len(by_name["gamma[1]"].idx) == 1


@pytest.fixture(scope="module", params=["small", "scalar_blocks", "mu_only"])
def target(request, small_dataset, golden):
    """ModelTarget on three shapes: the small season, an S=4 T=1 Z=2 season
    whose mu, beta and omega blocks are all scalar, and the golden reduced
    model."""
    if request.param == "small":
        return sampler.ModelTarget(model.ModelSpec.for_dataset(small_dataset), small_dataset)
    if request.param == "scalar_blocks":
        cfg = synth.SynthConfig(
            n_athletes=4, n_stages=1, schedule={1: ("individual", "sprint")}, seed=5
        )
        d, _ = synth.generate_synthetic(cfg)
        return sampler.ModelTarget(model.ModelSpec(S=4, T=1, Z=2), d)
    d, spec = golden
    return sampler.ModelTarget(spec, d)


class TestModelTargetMoves:
    """The delta-cached block moves agree with the model's own densities."""

    @staticmethod
    def _log_posterior(target, x):
        return model.log_posterior(model.from_vector(x, target.spec), target.dataset, target.spec)

    @staticmethod
    def _step(target, x, block, rng, scale=0.3):
        xp = x.copy()
        xp[block.idx] = x[block.idx] + scale * rng.standard_normal(len(block.idx))
        return xp

    def test_every_block_kind_is_covered(self, target):
        kinds = {b.kind for b in target.blocks}
        want = {"mu"} if target.spec.mu_only else {"mu", "beta", "gamma", "omega", "sigma"}
        assert kinds == want

    def test_delta_matches_log_posterior_difference(self, target):
        rng = np.random.default_rng(3)
        for block in target.blocks:
            x = target.initial_vector(rng)
            cache = target.make_cache(x)
            xp = self._step(target, x, block, rng)
            delta, _ = target.propose_delta(x, cache, block, xp[block.idx])
            want = self._log_posterior(target, xp) - self._log_posterior(target, x)
            assert delta == pytest.approx(want, abs=1e-9), block.name

    def test_commits_keep_the_cache_exact(self, target):
        rng = np.random.default_rng(4)
        x = target.initial_vector(rng)
        cache = target.make_cache(x)
        for _ in range(300):
            block = target.blocks[rng.integers(len(target.blocks))]
            prop = self._step(target, x, block, rng, scale=0.1)[block.idx]
            _, stash = target.propose_delta(x, cache, block, prop)
            target.commit(x, cache, block, prop, stash)
            x[block.idx] = prop
        fresh = target.make_cache(x)
        for field in ("eta", "ll", "ss"):
            np.testing.assert_allclose(getattr(cache, field), getattr(fresh, field), rtol=0, atol=1e-9)
        assert cache.ll_sum == pytest.approx(fresh.ll_sum, abs=1e-9)
        assert cache.logp == pytest.approx(fresh.logp, abs=1e-9)
        assert cache.logp == pytest.approx(self._log_posterior(target, x), abs=1e-9)

    def test_block_gradients_match_the_model_gradient(self, target):
        rng = np.random.default_rng(5)
        spec, d = target.spec, target.dataset
        for block in target.blocks:
            x = target.initial_vector(rng)
            cache = target.make_cache(x)
            xp = self._step(target, x, block, rng)
            _, stash = target.propose_delta(x, cache, block, xp[block.idx])
            g = model.grad_log_posterior(model.from_vector(x, spec), d, spec)
            gp = model.grad_log_posterior(model.from_vector(xp, spec), d, spec)
            np.testing.assert_allclose(
                target.block_grad(x, cache, block), g[block.idx], rtol=1e-9, atol=1e-9
            )
            np.testing.assert_allclose(
                target.block_grad_at(x, cache, block, xp[block.idx], stash),
                gp[block.idx],
                rtol=1e-9,
                atol=1e-9,
            )


def test_cache_drift_between_rebuilds_at_paper_scale(season_dataset):
    # run_chain rebuilds the running cache every _CACHE_REFRESH sweeps; in
    # between, every accepted move adds its rounding to eta, ll_sum and logp
    target = sampler.ModelTarget(model.ModelSpec.for_dataset(season_dataset), season_dataset)
    rng = np.random.default_rng(8)
    x = target.initial_vector(rng)
    cache = target.make_cache(x)
    for _ in range(sampler._CACHE_REFRESH):
        for block in target.blocks:
            prop = x[block.idx] + 0.05 * rng.standard_normal(len(block.idx))
            _, stash = target.propose_delta(x, cache, block, prop)
            target.commit(x, cache, block, prop, stash)
            x[block.idx] = prop
    fresh = target.make_cache(x)
    assert abs(cache.logp - fresh.logp) <= 1e-8
    assert abs(cache.ll_sum - fresh.ll_sum) <= 1e-9
    np.testing.assert_allclose(cache.eta, fresh.eta, rtol=0, atol=1e-9)


class TestRunChains:
    def test_draw_shapes_and_names(self, small_dataset):
        spec = model.ModelSpec.for_dataset(small_dataset)
        cfg = SamplerConfig(n_chains=2, burn_in=50, kept_iterations=10, thin=5, seed=1)
        samples = run_chains(spec, small_dataset, cfg, max_workers=1)
        assert samples.draws.shape == (2, 2, spec.dim)
        assert samples.param_names == model.param_names(spec)
        assert samples.source_digest == small_dataset.source_digest
        assert samples.wall_time_s is not None and samples.wall_time_s > 0.0

    def test_reruns_are_identical(self, small_dataset):
        spec = model.ModelSpec.for_dataset(small_dataset)
        cfg = SamplerConfig(n_chains=2, burn_in=100, kept_iterations=50, thin=5, seed=12)
        a = run_chains(spec, small_dataset, cfg, max_workers=1)
        b = run_chains(spec, small_dataset, cfg, max_workers=1)
        assert np.array_equal(a.draws, b.draws)
        assert a.acceptance_rates == b.acceptance_rates

    def test_worker_count_does_not_change_draws(self, small_dataset, monkeypatch):
        spec = model.ModelSpec.for_dataset(small_dataset)
        cfg = SamplerConfig(n_chains=2, burn_in=100, kept_iterations=50, thin=5, seed=12)
        monkeypatch.setenv("BIATHLON_BAYES_THREADS", "1")
        serial = run_chains(spec, small_dataset, cfg)
        monkeypatch.setenv("BIATHLON_BAYES_THREADS", "2")
        pooled = run_chains(spec, small_dataset, cfg)
        assert np.array_equal(serial.draws, pooled.draws)

    def test_each_chain_owns_its_stream(self, small_dataset):
        # chain c of a multi-chain run equals a standalone run of chain c
        spec = model.ModelSpec.for_dataset(small_dataset)
        cfg = SamplerConfig(n_chains=3, burn_in=60, kept_iterations=20, thin=5, seed=8)
        samples = run_chains(spec, small_dataset, cfg, max_workers=1)
        solo = run_chain(sampler.ModelTarget(spec, small_dataset), cfg, 1)
        assert np.array_equal(samples.draws[1], solo.draws)

    def test_small_fit_acceptance_rates(self, small_fit, small_dataset):
        target = sampler.ModelTarget(small_fit.spec, small_dataset)
        assert set(small_fit.acceptance_rates) == {b.name for b in target.blocks}
        for name, rates in small_fit.acceptance_rates.items():
            assert len(rates) == small_fit.n_chains
            for r in rates:
                assert 0.1 < r < 0.7, f"{name} acceptance {r}"

    def test_chain_draws_move(self, small_fit):
        # no coordinate may be frozen across the retained window
        pooled = small_fit.pooled()
        assert (pooled.std(axis=0) > 0).all()


class TestWorkerCap:
    def test_env_overrides_cpu_count(self, monkeypatch):
        monkeypatch.setenv("BIATHLON_BAYES_THREADS", "3")
        assert worker_cap() == 3
        assert worker_cap(max_workers=2) == 2

    def test_env_floor_is_one(self, monkeypatch):
        monkeypatch.setenv("BIATHLON_BAYES_THREADS", "0")
        assert worker_cap() == 1

    def test_bad_env_value(self, monkeypatch):
        monkeypatch.setenv("BIATHLON_BAYES_THREADS", "many")
        with pytest.raises(DataError):
            worker_cap()

    def test_unset_uses_cpu_count(self, monkeypatch):
        monkeypatch.delenv("BIATHLON_BAYES_THREADS", raising=False)
        assert worker_cap() >= 1


class TestPosteriorSamplesAccessors:
    def test_name_and_index_lookup(self, small_fit):
        j = small_fit.name_index("mu[1]")
        assert small_fit.name_index(j) == j
        assert small_fit.param_draws("mu[1]").shape == (
            small_fit.n_chains,
            small_fit.n_retained,
        )
        assert np.array_equal(
            small_fit.param_draws("mu[1]"), small_fit.param_draws(j)
        )

    def test_unknown_name_rejected(self, small_fit):
        with pytest.raises(DataError):
            small_fit.name_index("mu[999]")
        with pytest.raises(DataError):
            small_fit.name_index(small_fit.dim)

    def test_pooled_stacks_chains_in_order(self, small_fit):
        pooled = small_fit.pooled()
        assert pooled.shape == (small_fit.total_draws, small_fit.dim)
        assert np.array_equal(pooled[: small_fit.n_retained], small_fit.draws[0])


class TestDiagnostics:
    def test_rhat_near_one_for_iid(self):
        rng = np.random.default_rng(42)
        chains = rng.standard_normal((4, 1000))
        assert 0.99 < split_rhat(chains) < 1.02

    def test_rhat_flags_mean_shift(self):
        rng = np.random.default_rng(1)
        chains = np.stack([rng.standard_normal(1000), rng.standard_normal(1000) + 5.0])
        assert split_rhat(chains) > 2.0

    def test_rhat_degenerate_input(self):
        with pytest.raises(NumericalError):
            split_rhat(np.ones((2, 100)))
        with pytest.raises(NumericalError):
            split_rhat(np.random.default_rng(0).standard_normal((2, 3)))

    def test_ess_iid_near_sample_size(self):
        rng = np.random.default_rng(7)
        chains = rng.standard_normal((4, 1000))
        v = ess(chains)
        assert 3000.0 < v <= 4000.0  # capped at the iid-equivalent count

    def test_ess_tracks_ar1_autocorrelation(self):
        # stationary AR(1) with phi=0.9 has ESS ~ N(1-phi)/(1+phi) ~ N/19
        rng = np.random.default_rng(11)
        phi, n = 0.9, 2000
        chains = np.stack(
            [
                lfilter([np.sqrt(1 - phi**2)], [1.0, -phi], rng.standard_normal(n))
                for _ in range(4)
            ]
        )
        v = ess(chains)
        assert 220.0 < v < 750.0

    def test_ess_capped_for_anticorrelated_chains(self):
        rng = np.random.default_rng(13)
        phi, n = -0.5, 2000
        chains = np.stack(
            [
                lfilter([np.sqrt(1 - phi**2)], [1.0, -phi], rng.standard_normal(n))
                for _ in range(4)
            ]
        )
        assert ess(chains) <= 4 * n

    def test_ess_degenerate_input(self):
        with pytest.raises(NumericalError):
            ess(np.random.default_rng(0).standard_normal((2, 5)))
        with pytest.raises(NumericalError):
            ess(np.zeros((2, 100)))

    def test_matrix_input_validation(self):
        with pytest.raises(DataError):
            split_rhat(np.zeros((2, 3, 4)))

    def test_posterior_samples_need_param(self, small_fit):
        with pytest.raises(DataError):
            split_rhat(small_fit)
        by_name = split_rhat(small_fit, "mu[1]")
        by_matrix = split_rhat(small_fit.param_draws("mu[1]"))
        assert by_name == by_matrix
        assert ess(small_fit, "mu[1]") == ess(small_fit.param_draws("mu[1]"))


class TestSummarize:
    def test_rows_align_with_params(self, small_fit):
        rows = summarize(small_fit)
        assert [r.name for r in rows] == list(small_fit.param_names)
        for r in rows:
            assert np.isfinite([r.mean, r.sd, r.median, r.q025, r.q975, r.rhat, r.ess]).all()
            assert r.q025 <= r.median <= r.q975
            assert r.sd > 0.0
            assert r.ess > 0.0

    def test_moments_match_pooled_draws(self, small_fit):
        rows = summarize(small_fit)
        pooled = small_fit.pooled()
        j = small_fit.name_index("log_sigma_mu")
        assert rows[j].mean == pytest.approx(float(pooled[:, j].mean()))
        assert rows[j].sd == pytest.approx(float(pooled[:, j].std(ddof=1)))


class TestDrawsContainer:
    def test_binary_roundtrip_via_path(self, small_fit, tmp_path):
        path = tmp_path / "draws.bin"
        export_draws(small_fit, path)
        back = import_draws(path)
        assert np.array_equal(back.draws, small_fit.draws)
        assert back.param_names == small_fit.param_names
        assert back.config == small_fit.config
        assert back.source_digest == small_fit.source_digest
        assert back.spec == small_fit.spec
        assert back.acceptance_rates == small_fit.acceptance_rates

    def test_binary_roundtrip_via_buffer(self, small_fit):
        buf = io.BytesIO()
        export_draws(small_fit, buf)
        buf.seek(0)
        back = import_draws(buf)
        assert np.array_equal(back.draws, small_fit.draws)

    def test_export_is_deterministic(self, small_fit, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        export_draws(small_fit, a)
        export_draws(small_fit, b)
        assert a.read_bytes() == b.read_bytes()

    def test_truncated_file_rejected(self, small_fit, tmp_path):
        path = tmp_path / "draws.bin"
        export_draws(small_fit, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-100])
        with pytest.raises(DataError, match="checksum|truncated"):
            import_draws(path)

    def test_corrupted_payload_rejected(self, small_fit, tmp_path):
        path = tmp_path / "draws.bin"
        export_draws(small_fit, path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="checksum"):
            import_draws(path)

    def test_unrecognized_container(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a draws file" * 10)
        with pytest.raises(DataError, match="unrecognized"):
            import_draws(path)

    def test_csv_roundtrip_with_sidecar(self, small_fit, tmp_path):
        path = tmp_path / "draws.csv"
        export_draws(small_fit, path, fmt="csv")
        assert (tmp_path / "draws.csv.manifest.json").exists()
        back = import_draws(path)
        assert np.array_equal(back.draws, small_fit.draws)  # repr() is exact
        assert back.param_names == small_fit.param_names

    def test_csv_tamper_detected(self, small_fit, tmp_path):
        path = tmp_path / "draws.csv"
        export_draws(small_fit, path, fmt="csv")
        text = path.read_text()
        path.write_text(text.replace("\n1,1,", "\n1,1x,", 1))
        with pytest.raises(DataError, match="checksum"):
            import_draws(path)

    def test_csv_requires_a_path(self, small_fit):
        with pytest.raises(DataError):
            export_draws(small_fit, io.StringIO(), fmt="csv")

    def test_unknown_format(self, small_fit, tmp_path):
        with pytest.raises(DataError):
            export_draws(small_fit, tmp_path / "x", fmt="parquet")

    def test_manifest_dim_mismatch_rejected(self, small_fit, tmp_path):
        # shrink the payload while keeping the checksum valid: forge a file
        path = tmp_path / "draws.bin"
        export_draws(small_fit, path)
        raw = path.read_bytes()
        magic = sampler._MAGIC
        (mlen,) = struct.unpack_from("<Q", raw, len(magic))
        header_end = len(magic) + 8 + mlen
        import hashlib

        body = raw[:header_end] + raw[header_end:-32][:-8]  # drop one value
        path.write_bytes(body + hashlib.sha256(body).digest())
        with pytest.raises(DataError, match="payload"):
            import_draws(path)

    _BAD_MANIFESTS = [
        b"{not json",
        b"[]",
        b"\xff\xfe\x00\x81",
        b'{"n_chains": 1, "n_retained": 1}',
        b'{"n_chains": 1, "n_retained": "2", "dim": 3}',
    ]

    @pytest.mark.parametrize("bad", _BAD_MANIFESTS)
    def test_bad_csv_sidecar_is_a_data_error(self, small_fit, tmp_path, bad):
        path = tmp_path / "draws.csv"
        export_draws(small_fit, path, fmt="csv")
        (tmp_path / "draws.csv.manifest.json").write_bytes(bad)
        with pytest.raises(DataError, match="manifest"):
            import_draws(path)

    @pytest.mark.parametrize("bad", _BAD_MANIFESTS)
    def test_bad_binary_header_is_a_data_error(self, tmp_path, bad):
        import hashlib

        body = sampler._MAGIC + struct.pack("<Q", len(bad)) + bad
        path = tmp_path / "draws.bin"
        path.write_bytes(body + hashlib.sha256(body).digest())
        with pytest.raises(DataError, match="manifest"):
            import_draws(path)


_EDGE_VALUES = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1 / 3]


@pytest.fixture
def tiny_samples():
    """2 chains x 3 draws of 3 coordinates, two of whose names need quoting."""
    values = np.array(_EDGE_VALUES + [-v for v in _EDGE_VALUES] + _EDGE_VALUES[::-1])
    return PosteriorSamples(
        draws=values.reshape(2, 3, 3),
        param_names=("mu[1]", "beta[1,1]", "omega[1,individual]"),
        spec=model.ModelSpec(S=2, T=1, Z=2),
        config=SamplerConfig(n_chains=2, burn_in=0, kept_iterations=3, thin=1),
        source_digest="x",
        acceptance_rates={},
        proposal_scales={},
    )


def _forge_csv(path, text):
    """Rewrite a CSV container's body and give the sidecar its checksum."""
    body = text.encode()
    path.write_bytes(body)
    side = path.with_name(path.name + ".manifest.json")
    manifest = json.loads(side.read_text())
    manifest["csv_sha256"] = hashlib.sha256(body).hexdigest()
    side.write_text(json.dumps(manifest))


class TestCsvContainer:
    def test_long_layout_is_pinned(self, tiny_samples, tmp_path):
        ref = io.StringIO()
        writer = csv.writer(ref, lineterminator="\n")
        writer.writerow(["chain", "iter", "param", "value"])
        for c in range(2):
            for i in range(3):
                for j, name in enumerate(tiny_samples.param_names):
                    writer.writerow([c + 1, i + 1, name, repr(float(tiny_samples.draws[c, i, j]))])
        path = tmp_path / "draws.csv"
        export_draws(tiny_samples, path, fmt="csv")
        assert path.read_bytes() == ref.getvalue().encode()
        assert '1,1,"beta[1,1]",5e-324\n' in ref.getvalue()
        back = import_draws(path)
        assert back.draws.tobytes() == tiny_samples.draws.tobytes()  # keeps the sign of -0.0
        assert back.param_names == tiny_samples.param_names

    @pytest.mark.parametrize("edit, match", [
        (lambda t: re.sub(r"\n2,3,mu\[1\],[^\n]*", "\n0,3,mu[1],999.0", t), "outside"),
        (lambda t: t.replace("\n1,3,mu[1],", "\n1,0,mu[1],", 1), "outside"),
        (lambda t: t.replace("\n1,2,mu[1],", "\n1,4,mu[1],", 1), "outside"),
        (lambda t: t.replace("\n1,2,mu[1],", "\n1,1,mu[1],", 1), "missing or repeated"),
        (lambda t: t + t.splitlines(keepends=True)[1], "rows, expected"),
        (lambda t: "".join(t.splitlines(keepends=True)[:-1]), "rows, expected"),
    ], ids=["chain-0", "iter-0", "iter-past-end", "duplicate-cell", "extra-row", "missing-row"])
    def test_every_cell_exactly_once(self, tiny_samples, tmp_path, edit, match):
        path = tmp_path / "draws.csv"
        export_draws(tiny_samples, path, fmt="csv")
        _forge_csv(path, edit(path.read_text()))
        with pytest.raises(DataError, match=match):
            import_draws(path)

    @pytest.mark.parametrize("edit, match", [
        (lambda t: t.replace("\n1,1,mu[1],-0.0\n", "\n1,1,mu[1]\n"), "malformed row"),
        (lambda t: t.replace("\n1,1,mu[1],-0.0\n", "\n1,1,mu[1],-0.0,7\n"), "malformed row"),
        (lambda t: t.replace("\n1,1,mu[1],", "\n1,1,mu[9],"), "malformed row"),
        (lambda t: t.replace("\n1,1,mu[1],", "\n1x,1,mu[1],"), "malformed row"),
        (lambda t: t.replace("\n1,1,mu[1],-0.0\n", "\n1,1,mu[1],abc\n"), "malformed row"),
        (lambda t: t.replace("chain,iter,param,value", "chain,iter,name,value"), "header"),
        (lambda t: "", "header"),
        (lambda t: "chain,iter,param,value\n", "no rows"),
        (lambda t: "chain,iter,param,value\r\n\r\n", "no rows"),
    ], ids=["3-fields", "5-fields", "unknown-param", "chain-1x", "value-abc", "bad-header",
            "empty-file", "header-only", "blank-lines-only"])
    def test_malformed_body_is_a_data_error(self, tiny_samples, tmp_path, edit, match):
        path = tmp_path / "draws.csv"
        export_draws(tiny_samples, path, fmt="csv")
        _forge_csv(path, edit(path.read_text()))
        with pytest.raises(DataError, match=match):
            import_draws(path)
