"""Sampler tests: the chain runner and the Metropolis kernel on
analytically known targets, adaptation bookkeeping, convergence
diagnostics, and the draws container."""

import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import pickle
import re
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats
from scipy.signal import lfilter
from scipy.special import logsumexp

from biathlon_bayes import data, model, sampler, synth
from biathlon_bayes.data import Dataset
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
from biathlon_bayes.streams import rng_for


class _GaussTarget:
    """Correlated-normal toy target driven through the runner and kernel.

    ``block_mode`` picks one joint vector block or one scalar block per
    coordinate, so both adaptation targets get exercised.  Each block's
    ``payload`` is its conditional precision, and it proposes from that.
    """

    def __init__(self, mean, cov, block_mode="vector"):
        self.mean = np.asarray(mean, dtype=float)
        self.prec = np.linalg.inv(np.asarray(cov, dtype=float))
        self.dim = len(self.mean)
        if block_mode == "vector":
            named = [("xy", np.arange(self.dim))]
        else:
            named = [(f"x{i}", np.array([i])) for i in range(self.dim)]
        self.blocks = [Block(name, idx, payload=self.prec[np.ix_(idx, idx)])
                       for name, idx in named]

    def initial_vector(self, streams):
        return streams[0].standard_normal(self.dim)

    def proposal_transform(self, x, block):
        return np.linalg.inv(np.linalg.cholesky(block.payload)).T

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

    def draw_scales(self, x, cache, streams):
        pass  # every coordinate is in a block


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

    @pytest.mark.parametrize("block_mode", ["vector", "scalar"])
    def test_adapted_acceptance_is_reasonable(self, block_mode):
        target = _GaussTarget(_TOY_MEAN, _TOY_COV, block_mode)
        cfg = SamplerConfig(n_chains=1, burn_in=2000, kept_iterations=5000, thin=1, seed=9)
        res = run_chain(target, cfg, 0)
        for rate in res.acceptance:
            assert 0.15 < rate < 0.65

    def test_a_nonfinite_initial_log_posterior_is_a_numerical_error(self):
        # make_cache gives a finite logp at every finite x, so a chain draws
        # one initial vector and stops, naming itself, if the target does not
        class NanTarget(_GaussTarget):
            def make_cache(self, x):
                return SimpleNamespace(logp=np.nan)

        cfg = SamplerConfig(n_chains=1, burn_in=1, kept_iterations=1, thin=1, seed=3)
        with pytest.raises(NumericalError, match="chain 2: initial log-posterior is nan"):
            run_chain(NanTarget(_TOY_MEAN, _TOY_COV), cfg, 2)

    def test_adaptation_stops_at_burn_in(self):
        # scales reported at termination must be the ones frozen when
        # burn-in ended, however many kept sweeps follow
        target = _GaussTarget(_TOY_MEAN, _TOY_COV)
        cfg_short = SamplerConfig(n_chains=1, burn_in=500, kept_iterations=200, thin=1, seed=4)
        cfg_long = SamplerConfig(n_chains=1, burn_in=500, kept_iterations=2000, thin=1, seed=4)
        short = run_chain(target, cfg_short, 0)
        long = run_chain(target, cfg_long, 0)
        assert np.array_equal(long.scales, short.scales)

    def test_the_runner_keeps_every_thin_th_state_after_burn_in(self, monkeypatch):
        # a stub kernel writes its sweep count into x: the runner sweeps
        # burn_in + kept_iterations times, keeps the state after sweeps 5, 7
        # and 9, and hands the kernel one stream list, stream r keyed by
        # seeds[r]; a target of nothing but dim is all it reads
        handed = []

        class Stub:
            def __init__(self, target, burn_in, chain_idx):
                self.sweeps = 0

            def init(self, streams):
                handed.append(streams)
                return np.zeros(1)

            def sweep(self, x, streams):
                handed.append(streams)
                self.sweeps += 1
                x[0] = self.sweeps

            def record(self):
                return dict(acceptance=np.empty(0), scales=np.empty(0), block_names=())

        monkeypatch.setattr(sampler, "_Metropolis", Stub)
        cfg = SamplerConfig(n_chains=1, burn_in=3, kept_iterations=6, thin=2, seed=0)
        res = run_chain(SimpleNamespace(dim=1), cfg, 4, seeds=(11, 12))
        assert res.draws.tolist() == [[5.0], [7.0], [9.0]]
        assert len(handed) == 1 + 9 and all(s is handed[0] for s in handed)
        assert [g.bit_generator.state for g in handed[0]] == [
            rng_for(s, 4).bit_generator.state for s in (11, 12)]

    def test_the_cache_is_rebuilt_at_burn_in_and_every_refresh(self):
        # the first cache, the burn-in boundary and every _CACHE_REFRESH
        # sweeps; every move and scale draw after a rebuild reads the new one
        class Counting(_GaussTarget):
            def __init__(self, mean, cov):
                super().__init__(mean, cov)
                self.sweeps, self.rebuilt_at, self.latest = 0, [], None

            def make_cache(self, x):
                self.rebuilt_at.append(self.sweeps)
                self.latest = super().make_cache(x)
                return self.latest

            def propose_delta(self, x, cache, block, prop):
                assert cache is self.latest
                return super().propose_delta(x, cache, block, prop)

            def draw_scales(self, x, cache, streams):
                assert cache is self.latest
                self.sweeps += 1

        target = Counting(_TOY_MEAN, _TOY_COV)
        run_chain(target, SamplerConfig(n_chains=1, burn_in=300, kept_iterations=1200,
                                        thin=1, seed=5), 0)
        assert sampler._CACHE_REFRESH == 500
        assert target.rebuilt_at == [0, 300, 500, 1000, 1500]


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
        # the blocks cover the latent field, draw_scales the four log scales
        spec = model.ModelSpec.for_dataset(small_dataset)
        target = sampler.ModelTarget(spec, small_dataset)
        scales = np.arange(spec.dim)[target.lay.sigma]
        assert len(scales) == 4
        covered = np.concatenate([b.idx.ravel() for b in target.blocks] + [scales])
        assert np.array_equal(np.sort(covered), np.arange(spec.dim))

    def test_block_layout(self, small_dataset):
        # mu and each trajectory step alone; the position effects and the
        # race-effect rows, whose rows touch disjoint records, step as one
        # class block each; the scales are no blocks
        spec = model.ModelSpec.for_dataset(small_dataset)
        target = sampler.ModelTarget(spec, small_dataset)
        S, Z = spec.S, spec.Z
        names = [b.name for b in target.blocks]
        assert names == ["mu", *(f"beta[{s}]" for s in range(1, S)), "gamma", "omega"]
        by_name = {b.name: b for b in target.blocks}
        assert by_name["beta[1]"].repeats == 2  # multi-stage season
        assert {b.repeats for b in target.blocks} == {1, 2}
        assert by_name["gamma"].idx.shape == (S, 1) and by_name["gamma"].repeats == 1
        assert by_name["omega"].idx.shape == (S, Z - 1)
        assert target._classes[2][0].shape == (S, 1, 1)  # gamma's eigenbasis stack
        assert by_name["gamma"].payload[2] == slice(None)  # its slot: every row
        assert [by_name[f"beta[{s}]"].payload[2] for s in range(1, S)] == list(range(S - 1))
        assert [b.rows for b in target.blocks] == [1] * S + [S, S]
        rows = [n for b in target.blocks for n in b.row_names]
        assert rows[-1] == f"omega[{S}]" and rows[S] == "gamma[1]"


def _make_target(shape, small_dataset, golden):
    if shape == "small":
        return sampler.ModelTarget(model.ModelSpec.for_dataset(small_dataset), small_dataset)
    if shape == "scalar_blocks":
        cfg = synth.SynthConfig(
            n_athletes=4, n_stages=1, schedule={1: ("individual", "sprint")}, seed=5
        )
        d, _ = synth.generate_synthetic(cfg)
        return sampler.ModelTarget(model.ModelSpec(S=4, T=1, Z=2), d)
    d, spec = golden
    return sampler.ModelTarget(spec, d)


@pytest.fixture(scope="module", params=["small", "scalar_blocks", "mu_only"])
def target(request, small_dataset, golden):
    """ModelTarget on three shapes: the small season, an S=4 T=1 Z=2 season
    whose mu, beta and omega blocks are all scalar, and the golden reduced
    model."""
    return _make_target(request.param, small_dataset, golden)


def _log_posterior(target, x):
    return model.log_posterior(model.from_vector(x, target.spec), target.datasets[0], target.spec)


def _move(target, x, cache, block, prop, accept=None):
    """Commit a move of ``block`` to ``prop`` the way the kernel does: a
    row block whole, a class block's rows where ``accept`` (default: all)
    is true.  Returns the deltas ``propose_delta``/``propose_rows`` gave."""
    if block.idx.ndim == 1:
        delta, stash = target.propose_delta(x, cache, block, prop)
        target.commit(x, cache, block, prop, stash)
        x[block.idx] = prop
        return delta
    accept = np.ones(block.rows, bool) if accept is None else accept
    delta, stash = target.propose_rows(x, cache, block, prop)
    if accept.any():
        target.commit_rows(x, cache, block, prop, stash, accept)
        x[block.idx[accept]] = prop[accept]
    return delta


def _assert_cache_exact(target, cache, x):
    fresh = target.make_cache(x)
    for field in ("eta", "ll"):
        np.testing.assert_allclose(getattr(cache, field), getattr(fresh, field), rtol=0, atol=1e-9)
    assert cache.logp == pytest.approx(fresh.logp, abs=1e-9)
    assert cache.logp == pytest.approx(_log_posterior(target, x), abs=1e-9)
    # the shares are stored, never accumulated: a rebuild gives the same bits
    assert len(cache.share) == len(fresh.share)
    for k, (share, want) in enumerate(zip(cache.share, fresh.share)):
        assert np.array_equal(share, want), model.SIGMA_NAMES[k]
    ss = model.class_stats(model.from_vector(x, target.spec), target.spec)[1]
    np.testing.assert_allclose([s.sum() for s in cache.share], ss[:len(cache.share)],
                               rtol=0, atol=1e-9)


class TestModelTargetMoves:
    """The delta-cached block moves agree with the model's own densities."""

    @staticmethod
    def _step(target, x, block, rng, scale=0.3):
        xp = x.copy()
        xp[block.idx] = x[block.idx] + scale * rng.standard_normal(block.idx.shape)
        return xp

    def test_every_block_kind_is_covered(self, target):
        kinds = {b.kind for b in target.blocks}
        want = {"mu"} if target.spec.mu_only else {"mu", "beta", "gamma", "omega"}
        assert kinds == want

    def test_delta_matches_log_posterior_difference(self, target):
        rng = np.random.default_rng(3)
        for block in [b for b in target.blocks if b.idx.ndim == 1]:  # classes: TestClassStep
            x = target.initial_vector([rng])
            cache = target.make_cache(x)
            xp = self._step(target, x, block, rng)
            delta, _ = target.propose_delta(x, cache, block, xp[block.idx])
            want = _log_posterior(target, xp) - _log_posterior(target, x)
            assert delta == pytest.approx(want, abs=1e-9), block.name

    def test_commits_keep_the_cache_exact(self, target):
        rng = np.random.default_rng(4)
        x = target.initial_vector([rng])
        cache = target.make_cache(x)
        for _ in range(300):
            block = target.blocks[rng.integers(len(target.blocks))]
            prop = self._step(target, x, block, rng, scale=0.1)[block.idx]
            _move(target, x, cache, block, prop, rng.random(block.rows) < 0.5)
        _assert_cache_exact(target, cache, x)


class TestLogOddsMap:
    """``model.log_odds_jacobian`` is the derivative of the log-odds, and
    every latent block's group is exactly the non-zero rows of its cells,
    each cell read at its first session (``Dataset.cells``)."""

    @pytest.fixture(scope="class", params=["small", "scalar_blocks", "mu_only", "season"])
    def mapped(self, request, small_dataset, golden, season_dataset):
        if request.param == "season":
            spec = model.ModelSpec.for_dataset(season_dataset)
            return sampler.ModelTarget(spec, season_dataset)
        return _make_target(request.param, small_dataset, golden)

    @staticmethod
    def _eta(target, x):
        """The log-odds of each cell of the target's one dataset."""
        d = target.datasets[0]
        return model.linear_predictors(model.from_vector(x, target.spec), d,
                                       target.spec)[d.cells.first]

    def test_jacobian_is_the_log_odds_difference(self, mapped):
        spec, d = mapped.spec, mapped.datasets[0]
        m = model.log_odds_jacobian(d, spec, np.arange(spec.dim))
        assert m.shape == (d.n_records, spec.dim)
        assert set(np.unique(m)) <= {-1.0, 0.0, 1.0}
        rng = np.random.default_rng(5)
        x = mapped.initial_vector([rng])
        step = 0.3 * rng.standard_normal(spec.dim)
        want = self._eta(mapped, x + step) - self._eta(mapped, x)
        assert len(want) == len(mapped.hits)  # one row per cell
        np.testing.assert_allclose(m[d.cells.first] @ step, want, rtol=0, atol=1e-12)

    def test_block_groups_scatter_the_map_bit_for_bit(self, mapped):
        rng = np.random.default_rng(6)
        zero = np.zeros(mapped.dim)
        for block in mapped.blocks:
            d = rng.standard_normal(block.idx.shape)
            step = zero.copy()
            step[block.idx] = d
            want = self._eta(mapped, step) - self._eta(mapped, zero)
            g = block.payload[1]
            got = np.full(len(mapped.hits), np.nan)
            if block.idx.ndim == 1:
                assert g.owner is None, block.name
                got[g.rec] = g.m @ d
            else:
                got[g.rec] = (g.m * d[g.owner]).sum(axis=1)
                assert np.array_equal(g.rec, np.unique(g.rec)), block.name  # cell order
            touched = ~np.isnan(got)
            assert touched.sum() == len(g.hits), block.name  # each cell once
            for col in ("hits", "shots", "log_choose"):
                assert np.array_equal(getattr(g, col), getattr(mapped, col)[g.rec]), block.name
            assert np.array_equal(got[touched], want[touched]), block.name
            assert not want[~touched].any(), block.name  # untouched cells do not move

    def test_a_class_row_owns_exactly_the_records_its_move_shifts(self, mapped):
        zero = np.zeros(mapped.dim)
        for block in (b for b in mapped.blocks if b.idx.ndim == 2):
            g = block.payload[1]
            for r, idx in enumerate(block.idx):
                step = zero.copy()
                step[idx] = 1.0 + np.arange(len(idx))
                moved = np.flatnonzero(self._eta(mapped, step) - self._eta(mapped, zero))
                assert np.array_equal(g.rec[g.owner == r], moved), block.row_names[r]

    def test_latent_columns_at_paper_scale(self, season_dataset):
        spec = model.ModelSpec.for_dataset(season_dataset)
        lay = model.layout(spec)
        cells = season_dataset.cells
        m = model.log_odds_jacobian(season_dataset, spec, np.arange(lay.sigma.start))
        assert m.shape == (2088, 450)
        m = m[cells.first]
        assert m.shape == (1344, 450)
        a = season_dataset.arrays
        athlete, race = a.athlete[cells.first], a.race[cells.first]
        n = len(cells.first)
        n_last = int((athlete == spec.S - 1).sum())
        n_last_race = int((race == spec.Z - 1).sum())
        # mu and gamma: one entry per cell; beta: one for a free athlete's
        # cell, S - 1 for the constrained athlete's; omega: one for a free
        # race type, Z - 1 for the constrained one
        count = (2 * n + (n - n_last) + (spec.S - 1) * n_last
                 + (n - n_last_race) + (spec.Z - 1) * n_last_race)
        assert np.count_nonzero(m) == count == 7160


def test_a_target_has_one_row_per_cell(season_dataset):
    # paper scale: 2088 sessions in 1344 cells; the SBC shape: 84 in 48
    target = sampler.ModelTarget(model.ModelSpec.for_dataset(season_dataset), season_dataset)
    assert len(target.hits) == len(target.blocks[0].payload[1].hits) == 1344  # mu: every cell
    spec, seasons, _ = _seasons(3, 2, 2)
    stack = sampler.ModelTarget(spec, seasons)
    assert [d.n_records for d in seasons] == [84, 84]
    assert len(stack.hits) == len(stack.blocks[0].payload[1].hits) == 2 * 48
    x = target.initial_vector([np.random.default_rng(7)])
    assert target.make_cache(x).logp == pytest.approx(_log_posterior(target, x), abs=1e-9)


def test_cache_drift_between_rebuilds_at_paper_scale(season_dataset):
    # the kernel rebuilds the running cache every _CACHE_REFRESH sweeps; in
    # between, every accepted move and scale draw adds its rounding to eta
    # and logp, while the shares are stored and stay exact
    target = sampler.ModelTarget(model.ModelSpec.for_dataset(season_dataset), season_dataset)
    assert {b.name for b in target.blocks if b.idx.ndim == 2} == {"gamma", "omega"}
    rng = np.random.default_rng(8)
    x = target.initial_vector([rng])
    cache = target.make_cache(x)
    for _ in range(sampler._CACHE_REFRESH):
        for block in target.blocks:
            prop = x[block.idx] + 0.05 * rng.standard_normal(block.idx.shape)
            _move(target, x, cache, block, prop, rng.random(block.rows) < 0.5)
        target.draw_scales(x, cache, [rng])
    fresh = target.make_cache(x)
    assert abs(cache.logp - fresh.logp) <= 1e-8
    np.testing.assert_allclose(cache.eta, fresh.eta, rtol=0, atol=1e-9)
    assert len(cache.share) == len(fresh.share) == 4
    for k, name in enumerate(model.SIGMA_NAMES):
        assert np.array_equal(cache.share[k], fresh.share[k]), name



_GIG_LOG_GRID = np.linspace(-80.0, 80.0, 100_001)


def _gig_moments(p, w):
    """E[X^r], r = 1..4, of GIG(p, w, w) by quadrature on log x: there the
    density is proportional to exp(p u - w cosh u)."""
    u = _GIG_LOG_GRID
    lw = p * u - w * np.cosh(u)
    l0 = logsumexp(lw)
    return [float(np.exp(logsumexp(lw + r * u) - l0)) for r in (1, 2, 3, 4)]


# q = |p| >= 1 or w > 1: ratio of uniforms about the mode; moderate w:
# ratio of uniforms at 0; small w with q < 1: the dominating density
_GIG_P = [0.0, 0.3, -0.3, -0.5, -1.5, -4.5, -44.5, -159.0]
_GIG_W = [1e-3, 0.05, 0.3, 0.8, 2.0, 7.0]

_GIG_PINS = {  # (p, w): sha256 of 1000 draws of GIG(p, w, w), stream default_rng(11)
    (0.0, 0.001): "257862ad5808c3c21b295558bf8822afb05167764cbe1a96007c939bf51ca2e7",
    (0.0, 0.05): "925b80af5c4d7d9777afc03c9b93a168ae46b32bf4b43238085bf611592f6921",
    (0.0, 0.3): "9e7e8f3b933ebe7692a3138157ddbf1ec90519e00d8a07d6c3188d0034efa59c",
    (0.0, 0.8): "a554bfb20573e8c0424da48e18711074a9579c496121518c55e99ec26bcdc665",
    (0.0, 2.0): "190e141d278d51b017dd516e1656146e4c92ac8bcd39513179fc512a32373cb8",
    (0.0, 7.0): "31e6becce4c556afa53c3ad6c953167804e0405b3859750d7014f3e3db3f3157",
    (0.3, 0.001): "ea8e3ed0980ee9ebbd4454527183afaf96e6e80a3f036344c53dd6ee70c126e7",
    (0.3, 0.05): "fb4cff3a53d8d77aa23831bf351a1458a6d0f2912a6fa448f8f8f21034ecc93c",
    (0.3, 0.3): "2797b666be67d684890652380d7a727a91614997e74260bb791cb98727970564",
    (0.3, 0.8): "1501b6c85886b362283ed08bae2b4c14ba32b79b5c15ca4e6a440c593890c690",
    (0.3, 2.0): "09da06580e7f09e6babf429e213bb7f060fb3b65cded2fef998fe80bd79295a5",
    (0.3, 7.0): "14fafe3cc1193e13637dfa34e8747884880eb9ebe845fcad11669ff201d25023",
    (-0.3, 0.001): "beecc86596c199335d4c38974683e0ef17cc6e4927e0a9a0a0cfe2ce9b7d85b5",
    (-0.3, 0.05): "799f6e61fb8bd0dd2626a62a6c84f820fbbaac341c38ee2d8fae9e02905b2af8",
    (-0.3, 0.3): "0c2f7d067a53901a1ce96ad3fa2ccc9a8264eeca2ce15f62f24059ab441b1834",
    (-0.3, 0.8): "d1b3bd17c3ebd5f7925c4f10c82f8181987a9a6531fd2e7553e30902f81fc09a",
    (-0.3, 2.0): "dfe973be45fe4d7d7e6f0cdf93ee5f24252731ca9ac1e02e7320f3027cd5f61d",
    (-0.3, 7.0): "ccac75c815db3ae51ac545cf1c470a6e67009d6662a0f0c0a67697381f72bfc3",
    (-0.5, 0.001): "50de2af8ace446112dd0094bb434da92861bcc2d23e568e7164a4ddd32eb9ddf",
    (-0.5, 0.05): "9f9692ebfdf4269badcc3b54b97e81b99d2b52eb9478447962e554b860296b37",
    (-0.5, 0.3): "86b1efaece6cb40e21b2b7383234f5c0e2bbb3dbc8ffb4eb360265ba56a0566e",
    (-0.5, 0.8): "bff9185aac58013ceb11a7aa89a7832c5c4d34f4b6a33e71afce8d8cb0a878a5",
    (-0.5, 2.0): "3d9a0223ffc0d4903e7b00a79173300c80923e25b1a443e688eb256b09035965",
    (-0.5, 7.0): "7f4a2696531a452417e44d14fa78ad18bf5b43163f772079324f726157eeb6a1",
    (-1.5, 0.001): "eee266cd72017f5e260cdf7f12a79489dc06cd5d084662b964ec0b7514c02884",
    (-1.5, 0.05): "890f58265b2b20e2e7f0a875a0571c4b44bee37e41a2660dfd494d5d615a2794",
    (-1.5, 0.3): "2d70b99d91d0f542b45495eadbd54d85f6b4931e24d5a464de0027ade6a7b30f",
    (-1.5, 0.8): "73985c8d1e502fdfbea0bfeb810604f3ab187b468b7c5c4443b008df2ad1008a",
    (-1.5, 2.0): "12e454e41063119331088e9de7e53ed4417956ccc3dc273d48b3f7b313f8cb09",
    (-1.5, 7.0): "77b4aa207e95c4acc09415cfde480aa7cea4243bfb2eab14fb4f6b65e713743e",
    (-4.5, 0.001): "0c9f4e798ac2bb9a7262348d66f2d6319b10fb39ae895c0b4745ae13f6d55572",
    (-4.5, 0.05): "9519d739ccf25e9068949f0a78faa6e90220c7f03e579fffaeed75c7688a6d68",
    (-4.5, 0.3): "38d9e3537396fdcc86d4412d1ebeded8e6309f797f563e751cdd7854c7b7160e",
    (-4.5, 0.8): "e54d30477a4f0ae00e4353918d5e5b2e90340f9c51cac2f3a4b2581daa8396dd",
    (-4.5, 2.0): "3abdf2e5a9eec4e2dccda697d2592dccbf633bb9dad07748d7ec080dd7dd8106",
    (-4.5, 7.0): "cd45e7e6134acb6c7bdcba07e9a9c1778cfb7d888e71294bd7855cd8ab557725",
    (-44.5, 0.001): "87768e6567c52ebc619346fd38395d570263c4e563855002997abe7ded3a9362",
    (-44.5, 0.05): "d8274747dcf1617b75dc1c48f4d4189c0c1737db3eb85620188c1dc94fecadb5",
    (-44.5, 0.3): "7bd060f9170d9210d36719a96bc57915533c63e8f74da9d3aad600b6a6bbfc3c",
    (-44.5, 0.8): "5f422693c5d9ec084ee6dc47e0a16bbe65bee4258bf9cabe4c1b2253b15dabd0",
    (-44.5, 2.0): "1e42d6b52e65da58b65173d7040321bdccbc78d0b78608be570ee66a35a458ce",
    (-44.5, 7.0): "02e82d97024c3e560b4e1da607c8fab8febca9eef7f64775f0056a48eca8a34b",
    (-159.0, 0.001): "17b5fd2036145ebe02df3dce5608a2db3f746fef6b2c9b5828fa9a58ba643a12",
    (-159.0, 0.05): "1576b5436cbf85bd729526ef38fdbb0af9f26a6ad769768db719f32595422f19",
    (-159.0, 0.3): "cb1fb849ae4736ef181f52b7773099bea534a09896f56d85e4dfa1c22c2b7b80",
    (-159.0, 0.8): "75770826a561c0e3e5b6e5bb483c59ed97a52c1995692faefb8e7484aeb43b77",
    (-159.0, 2.0): "fdacb656bbfca6bc8a277830691fd9345033a2f8a61ccff4122b0ee429e88df4",
    (-159.0, 7.0): "447ef5ed1ba88235f45d6c2e1962e9595a94594b33e32f7a2cb73153e913ed3f",
}


class TestScaleDraws:
    """``_gig`` draws GIG(p, a, b), and ``draw_scales`` draws each log scale
    from its exact full conditional."""

    @pytest.mark.parametrize("p", _GIG_P)
    @pytest.mark.parametrize("w", _GIG_W)
    def test_gig_draws_are_pinned(self, p, w):
        # every draw of every fit's scale step comes from _gig: a rewrite or
        # a move of it must keep each sampler's bits
        rng = np.random.default_rng(11)
        x = np.array([sampler._gig(rng, p, w, w) for _ in range(1000)], dtype="<f8")
        assert hashlib.sha256(x.tobytes()).hexdigest() == _GIG_PINS[(p, w)]

    @pytest.mark.parametrize("p", _GIG_P)
    @pytest.mark.parametrize("w", _GIG_W)
    def test_gig_matches_scipy(self, p, w):
        n = 5000
        rng = np.random.default_rng(11)
        x = np.array([sampler._gig(rng, p, w, w) for _ in range(n)])
        ref = stats.geninvgauss(p, w)
        assert stats.ks_2samp(x, ref.rvs(size=n, random_state=rng)).pvalue > 1e-4
        m1, m2, m3, m4 = _gig_moments(p, w)
        mean, var = m1, m2 - m1 * m1
        with warnings.catch_warnings():  # scipy overflows at large |p| and small w
            warnings.simplefilter("ignore", RuntimeWarning)
            want = ref.stats("mv")
        if np.isfinite(want).all():
            np.testing.assert_allclose((mean, var), want, rtol=1e-6)
        mu4 = m4 - 4.0 * m3 * m1 + 6.0 * m2 * m1 * m1 - 3.0 * m1 ** 4
        assert abs(x.mean() - mean) < 5.0 * np.sqrt(var / n)
        assert abs(x.var() - var) < 5.0 * np.sqrt((mu4 - var * var) / n)

    def test_gig_scales_by_sqrt_b_over_a(self):
        rng = np.random.default_rng(12)
        x = np.array([sampler._gig(rng, -2.5, 4.0, 9.0) for _ in range(4000)])
        y = 1.5 * stats.geninvgauss(-2.5, 6.0).rvs(size=4000, random_state=rng)
        assert stats.ks_2samp(x, y).pvalue > 1e-3

    @pytest.fixture
    def scaled(self, small_dataset):
        target = sampler.ModelTarget(model.ModelSpec.for_dataset(small_dataset), small_dataset)
        x = target.initial_vector([np.random.default_rng(13)])
        return target, x, target.make_cache(x)

    def test_steps_follow_the_exact_conditional(self, scaled):
        target, x, cache = scaled
        c, n_steps = target.spec.sigma_scale, 20_000
        rng = np.random.default_rng(14)
        i = np.arange(target.dim)[target.lay.sigma]
        draws = np.empty((n_steps, 4))
        for j in range(n_steps):
            target.draw_scales(x, cache, [rng])
            draws[j] = x[i]
        v = np.linspace(-12.0, 8.0, 200_001)
        S, T, Z = target.spec.S, target.spec.T, target.spec.Z
        counts = [T, (S - 1) * T, S, S * (Z - 1)]  # each class's coordinates
        for k, name in enumerate(model.SIGMA_NAMES):
            # the log sigma_k conditional given the latent field, on a grid
            n, ss = counts[k], cache.share[k].sum()
            lw = model._gauss_class_logp(n, ss, v) + model._halfnormal_log_logp(v, c)
            w = np.exp(lw - lw.max())
            w /= w.sum()
            mean = float(w @ v)
            sd = float(np.sqrt(w @ (v - mean) ** 2))
            got = draws[:, k]
            assert abs(got.mean() - mean) < 4.0 * sd / np.sqrt(n_steps), name
            assert abs(got.std() / sd - 1.0) < 4.0 / np.sqrt(2.0 * n_steps), name
        # the draws moved logp by the exact change, and only the scales moved
        assert abs(cache.logp - target.make_cache(x).logp) <= 1e-9

    def test_mu_only_has_no_scales(self, golden):
        d, spec = golden
        target = sampler.ModelTarget(spec, d)
        rng = np.random.default_rng(15)
        x = target.initial_vector([rng])
        cache = target.make_cache(x)
        before, state = x.copy(), rng.bit_generator.state
        target.draw_scales(x, cache, [rng])
        assert np.array_equal(x, before)
        assert rng.bit_generator.state == state  # no draw taken

    def test_an_improper_conditional_is_a_numerical_error(self, scaled):
        target, x, cache = scaled
        x[target.lay.gamma] = 0.0  # every gamma term zero: ss = 0
        cache = target.make_cache(x)
        with pytest.raises(NumericalError, match="log_sigma_gamma"):
            target.draw_scales(x, cache, [np.random.default_rng(16)])
        assert np.isfinite(x).all()
        cache.share[1][0] = np.nan
        with pytest.raises(NumericalError, match="log_sigma_beta"):
            target.draw_scales(x, cache, [np.random.default_rng(16)])
        assert np.isfinite(x).all()

    @pytest.mark.parametrize("bad", [0.0, np.inf, np.nan])
    def test_a_draw_that_is_no_scale_is_a_numerical_error(self, scaled, monkeypatch, bad):
        target, x, cache = scaled
        before = x.copy()
        monkeypatch.setattr(sampler, "_gig", lambda rng, p, a, b: bad)
        with pytest.raises(NumericalError, match="log_sigma_mu"):
            target.draw_scales(x, cache, [np.random.default_rng(17)])
        assert np.array_equal(x, before)

    @pytest.fixture
    def stacked(self):
        spec, seasons, _ = _seasons(3, 2, 3)
        target = sampler.ModelTarget(spec, seasons)
        x = target.initial_vector([np.random.default_rng([18, r]) for r in range(3)])
        return target, x, target.make_cache(x)

    def test_an_improper_conditional_in_a_stack_changes_nothing(self, stacked):
        # replication 1's gamma sum of squares is zero: no scale of any
        # replication moves, though replication 0's four come first
        target, x, cache = stacked
        cache.share[2].reshape(3, -1)[1] = 0.0
        before, logp = x.copy(), cache.logp
        streams = [np.random.default_rng([19, r]) for r in range(3)]
        with pytest.raises(NumericalError, match="log_sigma_gamma: sum of squares 0.0"):
            target.draw_scales(x, cache, streams)
        assert np.array_equal(x, before)
        assert cache.logp == logp

    @pytest.mark.parametrize("bad", [0.0, np.inf, np.nan])
    def test_a_bad_draw_in_a_stack_changes_nothing(self, stacked, monkeypatch, bad):
        # the tenth draw is replication 2's beta scale (four a replication)
        target, x, cache = stacked
        real, calls = sampler._gig, []

        def failing(rng, p, a, b):
            calls.append(1)
            return bad if len(calls) == 10 else real(rng, p, a, b)

        monkeypatch.setattr(sampler, "_gig", failing)
        before, logp = x.copy(), cache.logp
        streams = [np.random.default_rng([20, r]) for r in range(3)]
        with pytest.raises(NumericalError, match="log_sigma_beta: scale draw"):
            target.draw_scales(x, cache, streams)
        assert len(calls) == 10
        assert np.array_equal(x, before)
        assert cache.logp == logp


def _three_race_season():
    """S=4 T=3 Z=3: mu, beta and omega are all vector blocks."""
    schedule = {t: ("individual", "sprint", "pursuit") for t in (1, 2, 3)}
    d, _ = synth.generate_synthetic(
        synth.SynthConfig(n_athletes=4, n_stages=3, schedule=schedule, seed=5)
    )
    return d, model.ModelSpec(S=4, T=3, Z=3)


def _cpu_has_avx512() -> bool:
    """Whether the CPU itself has AVX-512F.  numpy's ``__cpu_features__``
    would not tell: it reports AVX512F even with its AVX-512 targets
    disabled."""
    try:
        with open("/proc/cpuinfo") as fh:
            return any(line.startswith("flags") and "avx512f" in line.split() for line in fh)
    except OSError:
        return False


# numpy's SIMD paths and OpenBLAS's kernels of an AVX2-only CPU, set by
# environment alone on an AVX-512 one
_EMULATED_AVX2 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4,AVX512_ICL,AVX512_SPR",
                  "OPENBLAS_CORETYPE": "Haswell"}

# fit the pickled (spec, dataset, config), write the draws container, and
# print the SIMD targets numpy dispatched to
_FIT_IN_SUBPROCESS = """
import json, pickle, sys
from biathlon_bayes import cli, sampler
with open(sys.argv[1], "rb") as fh:
    spec, d, cfg = pickle.load(fh)
sampler.export_draws(sampler.run_chains(spec, d, cfg), sys.argv[2])
print(json.dumps(cli._numeric_environment()["numpy_cpu_dispatch"]))
"""


class TestPinnedDraws:
    """The sha256 of the draws of short fits.  A pure speed change must
    leave these hashes as they are.  A deliberate kernel change updates
    them, and the new kernel must then pass the oracles (quadrature,
    gradcheck and SBC).

    A pin holds for one numeric environment: the Python, numpy and scipy
    versions, numpy's SIMD targets and the OpenBLAS kernel, which
    ``fit_report.json`` records (but for the BLAS kernel).  These were made
    on Python 3.11.7, numpy 2.4.6 and scipy 1.17.1 on an AVX-512 CPU.  In
    another environment the draws agree to rounding until some
    accept/reject decision flips, and a pin may fail there."""

    @staticmethod
    def _sha(samples):
        draws = np.ascontiguousarray(samples.draws, dtype="<f8")
        return hashlib.sha256(draws.tobytes()).hexdigest()

    @pytest.mark.parametrize("digest", [
        "4f72553f6aba30ebf7c9ef19e89f65c1f15df8fe030b00aec279146e69c760d7",
    ], ids=["random_walk"])
    def test_multi_stage_fit(self, digest, monkeypatch):
        monkeypatch.setenv(sampler.THREADS_ENV, "1")
        d, spec = _three_race_season()
        cfg = SamplerConfig(n_chains=2, burn_in=50, kept_iterations=150, thin=2, seed=7)
        assert self._sha(run_chains(spec, d, cfg)) == digest

    @pytest.mark.skipif(not _cpu_has_avx512(), reason="emulating AVX2 needs an AVX-512 CPU")
    def test_multi_stage_fit_on_an_emulated_avx2_cpu(self, tmp_path, monkeypatch):
        # the pin above need not hold on an AVX2-only CPU, but the fit must
        # take the same accept/reject path and agree to rounding
        monkeypatch.setenv(sampler.THREADS_ENV, "1")
        d, spec = _three_race_season()
        cfg = SamplerConfig(n_chains=2, burn_in=50, kept_iterations=150, thin=2, seed=7)
        (tmp_path / "fit.pkl").write_bytes(pickle.dumps((spec, d, cfg)))
        src = str(Path(sampler.__file__).parents[1])
        env = dict(os.environ, **_EMULATED_AVX2,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", _FIT_IN_SUBPROCESS, str(tmp_path / "fit.pkl"),
                              str(tmp_path / "draws.bin")],
                             env=env, capture_output=True, text=True, timeout=600)
        assert run.returncode == 0, run.stderr
        dispatched = json.loads(run.stdout)
        assert "X86_V3" in dispatched and "X86_V4" not in dispatched  # the emulation took
        emulated, here = import_draws(tmp_path / "draws.bin"), run_chains(spec, d, cfg)
        assert emulated.acceptance_rates == here.acceptance_rates
        assert np.abs(emulated.draws - here.draws).max() <= 1e-12

    def test_golden_mu_only_fit(self, golden, monkeypatch):
        monkeypatch.setenv(sampler.THREADS_ENV, "1")
        d, spec = golden
        cfg = SamplerConfig(n_chains=2, burn_in=100, kept_iterations=300, thin=1, seed=7)
        assert self._sha(run_chains(spec, d, cfg)) == (
            "21ad0c025624245769efb7adc2322e3f0a6ef23c032b8119443a37bdd14f21e0"
        )


@pytest.fixture(params=["three_race", "season"])
def class_target(request, season_dataset):
    """A target whose four prior classes all have blocks."""
    if request.param == "three_race":
        d, spec = _three_race_season()
    else:
        d, spec = season_dataset, model.ModelSpec.for_dataset(season_dataset)
    return sampler.ModelTarget(spec, d)


def _row_factors(target, x, block):
    """``proposal_transform``'s matrices for ``block``, one per row."""
    A = target.proposal_transform(x, block)
    return A if block.idx.ndim == 2 else A[None]


class TestProposalShape:
    """``proposal_transform`` hands every row, scalar or vector, a matrix
    ``A`` with ``A @ A.T`` the inverse of ``fisher + e^{-2v} P_k`` at its
    class's current scale: a row block one matrix, a class block the stack
    of its rows'.  It reads an eigenbasis fixed at build and changes no
    state."""

    @staticmethod
    def _precisions(target, x, block):
        """Each row's precision, its Fisher matrix taken from the model's
        log-odds map at the pooled hit rate (clipped to [0.1, 0.9])."""
        hits = target.datasets[0].arrays.hits
        pbar = np.clip(hits.sum() / (model.SHOTS_PER_BOUT * len(hits)), 0.1, 0.9)
        w = model.SHOTS_PER_BOUT * pbar * (1.0 - pbar)
        k = model.SIGMA_NAMES.index(block.kind)
        n = block.idx.shape[-1]
        prior = model.rw_precision(n) if block.kind in ("mu", "beta") else np.eye(n)
        lam = np.exp(-2.0 * x[target.lay.sigma.start + k])
        for idx in block.idx.reshape(-1, n):
            m = model.log_odds_jacobian(target.datasets[0], target.spec, idx)
            yield w * (m.T @ m) + lam * prior

    @pytest.mark.parametrize("log_scale", [-4.0, 0.0, 3.0, None],
                             ids=["v=-4", "v=0", "v=3", "initial"])
    def test_a_at_inverts_the_precision(self, class_target, log_scale):
        target = class_target
        x = target.initial_vector([np.random.default_rng(2)])
        if log_scale is not None:
            x[target.lay.sigma] = log_scale
        assert {b.kind for b in target.blocks} == {"mu", "beta", "gamma", "omega"}
        for block in target.blocks:
            factors = _row_factors(target, x, block)
            precisions = list(self._precisions(target, x, block))
            assert len(factors) == len(precisions) == block.rows, block.name
            for A, precision, name in zip(factors, precisions, block.row_names):
                # A @ A.T is the inverse precision: the covariance of the step A @ z
                np.testing.assert_allclose(A @ A.T @ precision, np.eye(len(A)),
                                           rtol=0, atol=1e-9, err_msg=name)

    def test_is_pure(self, class_target):
        # the same bits whatever was asked before, and after a chain ran
        target = class_target
        x = target.initial_vector([np.random.default_rng(3)])
        other = target.initial_vector([np.random.default_rng(4)])
        blocks = target.blocks
        first = [target.proposal_transform(x, b) for b in blocks]
        twin = sampler.ModelTarget(target.spec, target.datasets[0])
        for b in reversed(twin.blocks):
            twin.proposal_transform(other, b)
        again = [twin.proposal_transform(x, b) for b in reversed(twin.blocks)][::-1]
        run_chain(target, SamplerConfig(n_chains=1, burn_in=10, kept_iterations=10,
                                        thin=1, seed=5), 0)
        after = [target.proposal_transform(x, b) for b in blocks]
        for block, A, B, C in zip(blocks, first, again, after):
            assert np.array_equal(A, B) and np.array_equal(A, C), block.name

    def test_a_row_without_fisher_information_stays_finite(self):
        # one athlete shot individual races only: its race-effect row's
        # sprint column touches no record (no sprint, no pursuit)
        d, spec = _three_race_season()
        first = d.athletes[0]
        d = Dataset.from_records([r for r in d.records
                                  if r.athlete != first or r.race_type == "individual"])
        target = sampler.ModelTarget(spec, d)
        omega = next(b for b in target.blocks if b.kind == "omega")
        ms = [model.log_odds_jacobian(d, spec, idx) for idx in omega.idx]
        assert any(not m[:, 1].any() for m in ms) and all(m[:, 0].any() for m in ms)
        x = target.initial_vector([np.random.default_rng(6)])
        x[target.lay.sigma] = 10.0
        assert np.isfinite(target.proposal_transform(x, omega)).all()


class TestBlockShares:
    """Every row prices its prior as ``v @ P_k @ v``, its share of its
    class's sum of squares; the cache keeps one share per row of each
    class, and they add up to the ss that ``model.class_stats`` computes
    from the random-walk increments or the squares."""

    def test_shares_sum_to_the_class_ss(self, class_target):
        target = class_target
        for seed in range(3):
            x = target.initial_vector([np.random.default_rng(seed)])
            cache = target.make_cache(x)
            ss = model.class_stats(model.from_vector(x, target.spec), target.spec)[1]
            for k, kind in enumerate(model.SIGMA_NAMES):
                rows = sum(b.rows for b in target.blocks if b.kind == kind)
                assert cache.share[k].shape == (rows,), kind
                assert cache.share[k].sum() == pytest.approx(ss[k], rel=1e-12, abs=0), kind


class TestClassStep:
    """A class block (the position effects, the race-effect rows) proposes
    every row at once and accepts each on its own.  That is exact only
    because its rows are conditionally independent: they touch disjoint
    records and their priors are independent."""

    @staticmethod
    def _classes(target):
        classes = [b for b in target.blocks if b.idx.ndim == 2]
        assert classes  # gamma and omega (test_block_layout)
        return classes

    @staticmethod
    def _prop(x, block, rng, scale=0.3):
        return x[block.idx] + scale * rng.standard_normal(block.idx.shape)

    def test_each_row_delta_is_that_row_moved_alone(self, class_target):
        target = class_target
        rng = np.random.default_rng(21)
        for block in self._classes(target):
            x = target.initial_vector([rng])
            cache = target.make_cache(x)
            prop = self._prop(x, block, rng)
            delta, _ = target.propose_rows(x, cache, block, prop)
            assert delta.shape == (block.rows,)
            base = _log_posterior(target, x)
            for r, idx in enumerate(block.idx):
                xp = x.copy()
                xp[idx] = prop[r]
                want = _log_posterior(target, xp) - base
                assert delta[r] == pytest.approx(want, abs=1e-9), block.row_names[r]

    def test_accepted_rows_add_up_to_the_joint_change(self, class_target):
        target = class_target
        rng = np.random.default_rng(22)
        x = target.initial_vector([rng])
        cache = target.make_cache(x)
        for _ in range(3):
            for block in self._classes(target):
                prop = self._prop(x, block, rng)
                accept = rng.random(block.rows) < 0.5
                accept[rng.integers(block.rows)] = True
                before = _log_posterior(target, x)
                delta = _move(target, x, cache, block, prop, accept)
                joint = _log_posterior(target, x) - before
                assert delta[accept].sum() == pytest.approx(joint, abs=1e-9), block.name
                assert np.array_equal(x[block.idx[accept]], prop[accept])
                _assert_cache_exact(target, cache, x)

    def test_a_non_finite_row_is_rejected_alone(self, class_target):
        target = class_target
        rng = np.random.default_rng(23)
        for block in self._classes(target):
            x = target.initial_vector([rng])
            cache = target.make_cache(x)
            prop = self._prop(x, block, rng, scale=0.01)  # every other row is accepted
            prop[1, 0] = np.nan
            with np.errstate(invalid="ignore"):
                delta, stash = target.propose_rows(x, cache, block, prop)
            assert np.isnan(delta[1]) and np.isfinite(np.delete(delta, 1)).all(), block.name
            with np.errstate(divide="ignore"):
                accept = (delta >= 0.0) | (np.log(0.0) < delta)  # u = 0 in the kernel's test
            assert np.flatnonzero(~accept).tolist() == [1], block.name
            target.commit_rows(x, cache, block, prop, stash, accept)
            x[block.idx[accept]] = prop[accept]
            assert np.isfinite(x).all()
            _assert_cache_exact(target, cache, x)


class TestRunChains:
    def test_draw_shapes_and_names(self, small_dataset, monkeypatch):
        monkeypatch.setenv("BIATHLON_BAYES_THREADS", "1")
        spec = model.ModelSpec.for_dataset(small_dataset)
        cfg = SamplerConfig(n_chains=2, burn_in=50, kept_iterations=10, thin=5, seed=1)
        samples = run_chains(spec, small_dataset, cfg)
        assert samples.draws.shape == (2, 2, spec.dim)
        assert samples.param_names == model.param_names(spec)
        assert samples.source_digest == small_dataset.source_digest
        assert samples.wall_time_s is not None and samples.wall_time_s > 0.0

    def test_reruns_are_identical(self, small_dataset, monkeypatch):
        monkeypatch.setenv("BIATHLON_BAYES_THREADS", "1")
        spec = model.ModelSpec.for_dataset(small_dataset)
        cfg = SamplerConfig(n_chains=2, burn_in=100, kept_iterations=50, thin=5, seed=12)
        a = run_chains(spec, small_dataset, cfg)
        b = run_chains(spec, small_dataset, cfg)
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

    def test_each_chain_owns_its_stream(self, small_dataset, monkeypatch):
        # chain c of a multi-chain run equals a standalone run of chain c
        monkeypatch.setenv("BIATHLON_BAYES_THREADS", "1")
        spec = model.ModelSpec.for_dataset(small_dataset)
        cfg = SamplerConfig(n_chains=3, burn_in=60, kept_iterations=20, thin=5, seed=8)
        samples = run_chains(spec, small_dataset, cfg)
        solo = run_chain(sampler.ModelTarget(spec, small_dataset), cfg, 1)
        assert np.array_equal(samples.draws[1], solo.draws)

    def test_one_target_serves_every_in_process_chain(self, small_dataset, monkeypatch):
        monkeypatch.setenv("BIATHLON_BAYES_THREADS", "1")
        built = []
        init = sampler.ModelTarget.__init__

        def counting(self, spec, dataset):
            built.append(1)
            init(self, spec, dataset)

        monkeypatch.setattr(sampler.ModelTarget, "__init__", counting)
        spec = model.ModelSpec.for_dataset(small_dataset)
        cfg = SamplerConfig(n_chains=3, burn_in=10, kept_iterations=10, thin=5, seed=1)
        run_chains(spec, small_dataset, cfg)
        assert len(built) == 1

    def test_small_fit_acceptance_rates(self, small_fit, small_dataset):
        target = sampler.ModelTarget(small_fit.spec, small_dataset)
        # one rate per row: the class blocks report gamma[s] and omega[s]
        assert list(small_fit.acceptance_rates) == [n for b in target.blocks for n in b.row_names]
        assert list(small_fit.proposal_scales) == list(small_fit.acceptance_rates)
        for name, rates in small_fit.acceptance_rates.items():
            assert len(rates) == small_fit.n_chains
            for r in rates:
                assert 0.1 < r < 0.7, f"{name} acceptance {r}"

    def test_chain_draws_move(self, small_fit):
        # no coordinate may be frozen across the retained window
        pooled = small_fit.pooled()
        assert (pooled.std(axis=0) > 0).all()


def _seasons(S, T, R, seed=0):
    """R seasons simulated from prior draws of ``ModelSpec(S, T)`` with
    every race type at every stage, and R fit seeds."""
    spec = model.ModelSpec(S=S, T=T)
    schedule = {t: data.RACE_TYPES for t in range(1, T + 1)}
    seasons = []
    for r in range(R):
        truth = model.sample_prior(spec, np.random.default_rng([seed, r]))
        cfg = synth.SynthConfig(n_athletes=S, n_stages=T, schedule=schedule,
                                true_params=truth, seed=1000 + r)
        seasons.append(synth.generate_synthetic(cfg)[0])
    return spec, seasons, [77 + 3 * r for r in range(R)]


_STACK_CFG = SamplerConfig(n_chains=1, burn_in=30, kept_iterations=40, thin=2)


def _stack_draws(spec, datasets, cfg, seeds):
    """Every chain of ``sampler.run_stack`` as ``(datasets, chains, retained, dim)``."""
    return np.stack(list(sampler.run_stack(spec, datasets, cfg, seeds)), axis=1)


class TestStack:
    """A stack of seasons of one spec is one target: every block of the
    single-season layout steps as one class block across the stack, and
    replication r draws from the streams of its own seed."""

    @pytest.fixture(scope="class")
    def stacked(self):
        spec, seasons, _ = _seasons(3, 2, 4)
        return sampler.ModelTarget(spec, seasons), [sampler.ModelTarget(spec, d) for d in seasons]

    def test_layout(self, stacked):
        target, parts = stacked
        R, dim = len(parts), target.spec.dim
        assert target.dim == R * dim
        assert [b.name for b in target.blocks] == [b.name for b in parts[0].blocks]
        for j, b in enumerate(target.blocks):
            assert b.idx.ndim == 2 and b.rows == R * parts[0].blocks[j].rows
            assert b.repeats == parts[0].blocks[j].repeats
            # rows in replication-major order, each part's coordinates shifted by its offset
            want = [np.atleast_2d(p.blocks[j].idx) + r * dim for r, p in enumerate(parts)]
            assert np.array_equal(b.idx, np.concatenate(want))
            # and its records: every part's, shifted by the records before it,
            # each owned by its part's row, shifted by the rows before it
            k, g, slot = b.payload
            groups = [p.blocks[j].payload[1] for p in parts]
            first = np.cumsum([0] + [len(p.hits) for p in parts[:-1]])
            rec = [h.rec + f for h, f in zip(groups, first)]
            assert np.array_equal(g.rec, np.concatenate(rec))
            assert np.array_equal(g.hits, np.concatenate([h.hits for h in groups]))
            assert np.array_equal(g.m, np.concatenate([h.m for h in groups]))
            rows = parts[0].blocks[j].rows
            owner = [np.zeros(len(h.rec), int) if h.owner is None else h.owner for h in groups]
            owner = [o + r * rows for r, o in enumerate(owner)]
            assert np.array_equal(g.owner, np.concatenate(owner))
            # its slot: a row's in every part (every n-th row of the class), or every row
            part_slot = parts[0].blocks[j].payload[2]
            assert all(p.blocks[j].payload[2] == part_slot for p in parts)
            n_rows = len(parts[0]._classes[k][0])
            assert slot == (slice(None) if rows > 1 else slice(part_slot, None, n_rows))
        # each class's eigenbases and eigenvalues are the parts', part by part
        for k, (basis, e, cls) in enumerate(target._classes):
            assert np.array_equal(basis, np.concatenate([p._classes[k][0] for p in parts]))
            assert np.array_equal(e, np.concatenate([p._classes[k][1] for p in parts]))
            assert cls is parts[0]._classes[k][2]

    def test_each_row_sees_its_own_replications_scale(self, stacked):
        target, parts = stacked
        x = target.initial_vector([np.random.default_rng(r) for r in range(len(parts))])
        xs = x.reshape(len(parts), -1)
        for j, block in enumerate(target.blocks):
            A = target.proposal_transform(x, block)
            want = [np.reshape(p.proposal_transform(xr, p.blocks[j]),
                               (-1,) + A.shape[1:]) for p, xr in zip(parts, xs)]
            np.testing.assert_allclose(A, np.concatenate(want), rtol=1e-14, atol=0)

    def test_commits_keep_the_cache_exact(self, stacked):
        target, parts = stacked
        rng = np.random.default_rng(5)
        x = target.initial_vector([np.random.default_rng(r) for r in range(len(parts))])
        cache = target.make_cache(x)
        for _ in range(200):
            block = target.blocks[rng.integers(len(target.blocks))]
            prop = x[block.idx] + 0.1 * rng.standard_normal(block.idx.shape)
            _move(target, x, cache, block, prop, rng.random(block.rows) < 0.5)
        fresh = target.make_cache(x)
        np.testing.assert_allclose(cache.eta, fresh.eta, rtol=0, atol=1e-9)
        np.testing.assert_allclose(cache.ll, fresh.ll, rtol=0, atol=1e-9)
        for share, want in zip(cache.share, fresh.share):
            assert np.array_equal(share, want)
        # the stack's log-posterior is the sum of its replications'
        xs = x.reshape(len(parts), -1)
        joint = sum(model.log_posterior(model.from_vector(xr, target.spec), p.datasets[0],
                                        target.spec) for p, xr in zip(parts, xs))
        assert cache.logp == pytest.approx(joint, abs=1e-9)
        assert fresh.logp == pytest.approx(joint, abs=1e-9)

    def test_scale_draws_follow_each_replications_stream(self, stacked):
        target, parts = stacked
        x = target.initial_vector([np.random.default_rng(r) for r in range(len(parts))])
        cache = target.make_cache(x)
        solo = [x.reshape(len(parts), -1)[r].copy() for r in range(len(parts))]
        target.draw_scales(x, cache, [np.random.default_rng([9, r]) for r in range(len(parts))])
        for r, (p, xr) in enumerate(zip(parts, solo)):
            p.draw_scales(xr, p.make_cache(xr), [np.random.default_rng([9, r])])
            np.testing.assert_allclose(x.reshape(len(parts), -1)[r], xr, rtol=1e-12, atol=0)
        assert cache.logp == pytest.approx(target.make_cache(x).logp, abs=1e-9)

    @pytest.mark.parametrize("S, T", [(3, 2), (4, 3)])
    def test_draws_do_not_depend_on_the_rest_of_the_stack(self, S, T):
        spec, seasons, seeds = _seasons(S, T, 20)
        whole = _stack_draws(spec, seasons, _STACK_CFG, seeds)
        first = _stack_draws(spec, seasons[:10], _STACK_CFG, seeds[:10])
        assert whole.shape == (20, 1, _STACK_CFG.n_retained, spec.dim)
        assert whole[:10].tobytes() == first.tobytes()

    def test_another_replications_seed_leaves_the_draws_unchanged(self):
        spec, seasons, seeds = _seasons(3, 2, 6)
        base = _stack_draws(spec, seasons, _STACK_CFG, seeds)
        other = _stack_draws(spec, seasons, _STACK_CFG, seeds[:3] + [5] + seeds[4:])
        assert np.array_equal(np.delete(base, 3, axis=0), np.delete(other, 3, axis=0))
        assert not np.array_equal(base[3], other[3])

    def test_pinned_draws(self, monkeypatch):
        # the sha256 of a stack's draws, as TestPinnedDraws pins single fits'
        monkeypatch.setenv(sampler.THREADS_ENV, "1")
        spec, seasons, seeds = _seasons(3, 2, 20)
        draws = _stack_draws(spec, seasons, dataclasses.replace(_STACK_CFG, n_chains=2), seeds)
        assert draws.shape == (20, 2, _STACK_CFG.n_retained, spec.dim)
        assert hashlib.sha256(np.ascontiguousarray(draws, "<f8").tobytes()).hexdigest() == (
            "f5d9c0f5f801552e0dbb9490d865729a7bfec94ef01d3a1f2dc05655fbb36a0d"
        )

    def test_a_mu_only_stack_runs(self):
        # the quadrature oracle's model: every stacked row has a unit scale
        _, seasons, seeds = _seasons(3, 2, 6)
        spec = model.ModelSpec(S=3, T=2, mu_only=True)
        whole = _stack_draws(spec, seasons, _STACK_CFG, seeds)
        first = _stack_draws(spec, seasons[:4], _STACK_CFG, seeds[:4])
        assert whole.shape == (6, 1, _STACK_CFG.n_retained, spec.dim)
        assert whole[:4].tobytes() == first.tobytes()
        assert np.isfinite(whole).all() and (whole.std(axis=2) > 0).all()

    def test_chains_come_one_at_a_time(self, monkeypatch):
        # the second chain runs only when the first one's draws are taken
        monkeypatch.setenv(sampler.THREADS_ENV, "1")
        spec, seasons, seeds = _seasons(3, 2, 3)
        cfg = dataclasses.replace(_STACK_CFG, n_chains=2)
        ran = []
        real = sampler.run_chain
        monkeypatch.setattr(sampler, "run_chain", lambda *a: ran.append(a[2]) or real(*a))
        chains = sampler.run_stack(spec, seasons, cfg, seeds)
        assert ran == []
        first = next(chains)
        assert ran == [0] and first.shape == (3, cfg.n_retained, spec.dim)
        assert np.array_equal(np.stack([first, *chains], axis=1),
                              _stack_draws(spec, seasons, cfg, seeds))
        assert ran == [0, 1, 0, 1]

    def test_a_stack_of_one_is_run_chains(self, small_dataset, monkeypatch):
        monkeypatch.setenv(sampler.THREADS_ENV, "1")
        spec = model.ModelSpec.for_dataset(small_dataset)
        cfg = dataclasses.replace(_STACK_CFG, n_chains=2, seed=4)
        one = _stack_draws(spec, [small_dataset], cfg, [4])
        assert one[0].tobytes() == run_chains(spec, small_dataset, cfg).draws.tobytes()

    def test_seasons_of_another_layout_do_not_stack(self):
        spec, seasons, seeds = _seasons(3, 2, 2)
        # the last athlete shoots nowhere, so the trajectories share no
        # record and step as one class block: another layout
        short = Dataset.from_records([r for r in seasons[1].records if r.athlete != "ath03"])
        with pytest.raises(DataError, match="block layouts"):
            sampler.ModelTarget(spec, [seasons[0], short])
        with pytest.raises(DataError, match="2 datasets but 1 seeds"):
            sampler.run_stack(spec, seasons, _STACK_CFG, seeds[:1])


class TestWorkerCap:
    def test_env_overrides_cpu_count(self, monkeypatch):
        monkeypatch.setenv("BIATHLON_BAYES_THREADS", "3")
        assert worker_cap() == 3

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
    @pytest.mark.parametrize("fmt", ["binary", "csv"])
    def test_export_returns_the_sha256_of_the_written_bytes(self, small_fit, tmp_path, fmt):
        path = tmp_path / f"draws.{fmt}"
        digest = export_draws(small_fit, path, fmt=fmt)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()

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

    @staticmethod
    def _with_sampler_keys(path, fmt, extra):
        """Rewrite a container's manifest with ``extra`` in its sampler block,
        keeping its checksums valid."""
        if fmt == "csv":
            side = path.with_name(path.name + ".manifest.json")
            manifest = json.loads(side.read_text())
            manifest["sampler"].update(extra)
            side.write_text(json.dumps(manifest, sort_keys=True, indent=2))
            return
        raw = path.read_bytes()
        magic = sampler._MAGIC
        (mlen,) = struct.unpack_from("<Q", raw, len(magic))
        head = len(magic) + 8
        manifest = json.loads(raw[head : head + mlen])
        manifest["sampler"].update(extra)
        text = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
        body = magic + struct.pack("<Q", len(text)) + text + raw[head + mlen : -32]
        path.write_bytes(body + hashlib.sha256(body).digest())

    @pytest.mark.parametrize("fmt", ["binary", "csv"])
    def test_older_sampler_settings_are_dropped(self, small_fit, tmp_path, fmt):
        # draws-v1 files written while the sampler had a second kernel name
        # it and its adaptation window
        path = tmp_path / "draws"
        export_draws(small_fit, path, fmt=fmt)
        self._with_sampler_keys(path, fmt, {"proposal_mode": "random_walk", "adapt_window": None})
        back = import_draws(path)
        assert back.config == small_fit.config
        assert np.array_equal(back.draws, small_fit.draws)

    @pytest.mark.parametrize("fmt", ["binary", "csv"])
    def test_other_unknown_sampler_settings_are_a_data_error(self, small_fit, tmp_path, fmt):
        path = tmp_path / "draws"
        export_draws(small_fit, path, fmt=fmt)
        self._with_sampler_keys(path, fmt, {"proposal_mode": "random_walk", "frobnicate": 1})
        with pytest.raises(DataError, match="frobnicate"):
            import_draws(path)

    def test_failed_write_keeps_the_old_file_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "draws.bin"
        path.write_bytes(b"old bytes")

        def write(fh):
            fh.write(b"partial")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            sampler._write_atomic(path, write)
        assert path.read_bytes() == b"old bytes"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["draws.bin"]

    @pytest.mark.parametrize("fmt", ["binary", "csv"])
    def test_import_makes_one_draws_sized_array(self, tmp_path, fmt):
        # neither the file's bytes nor a second copy of the draws is held
        spec = model.ModelSpec(S=8, T=4)
        draws = np.random.default_rng(3).normal(size=(2, 1500, spec.dim))
        samples = PosteriorSamples(
            draws=draws,
            param_names=model.param_names(spec),
            spec=spec,
            config=SamplerConfig(n_chains=2, burn_in=0, kept_iterations=1500, thin=1),
            source_digest="x",
            acceptance_rates={},
            proposal_scales={},
        )
        path = tmp_path / "draws"
        export_draws(samples, path, fmt=fmt)
        tracemalloc.start()
        try:
            back = import_draws(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.draws.tobytes() == draws.tobytes()
        assert peak <= 1.25 * draws.nbytes

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

    @pytest.mark.parametrize("empty, fmt", [
        (np.s_[:0], "binary"), (np.s_[:, :0], "binary"),
        (np.s_[..., :0], "binary"), (np.s_[..., :0], "csv"),
    ], ids=["no_chains", "no_draws", "no_params", "no_params_csv"])
    def test_a_container_without_draws_is_a_data_error(self, small_fit, tmp_path, empty, fmt):
        path = tmp_path / "draws"
        draws = small_fit.draws[empty]
        export_draws(dataclasses.replace(small_fit, draws=draws,
                                         param_names=small_fit.param_names[:draws.shape[2]]),
                     path, fmt=fmt)
        with pytest.raises(DataError, match="must be a positive integer"):
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
    """2 chains x 3 draws of the 10 coordinates of an S=2, T=1, Z=2 model,
    three of whose names need quoting ("beta[1,1]", "omega[s,individual]"),
    holding every edge value of each sign."""
    spec = model.ModelSpec(S=2, T=1, Z=2)
    values = np.array((_EDGE_VALUES + [-v for v in _EDGE_VALUES]) * 5)
    return PosteriorSamples(
        draws=values.reshape(2, 3, spec.dim),
        param_names=model.param_names(spec),
        spec=spec,
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


_WIDE_TEXT = (
    'chain,iter,mu[1],"beta[1,1]",gamma_prone[1],gamma_prone[2],"omega[1,individual]",'
    '"omega[2,individual]",log_sigma_mu,log_sigma_beta,log_sigma_gamma,log_sigma_omega\n'
    "1,1,-0.0,5e-324,2.2250738585072014e-308,1.7976931348623157e+308,0.1,0.3333333333333333,"
    "0.0,-5e-324,-2.2250738585072014e-308,-1.7976931348623157e+308\n"
    "1,2,-0.1,-0.3333333333333333,-0.0,5e-324,2.2250738585072014e-308,1.7976931348623157e+308,"
    "0.1,0.3333333333333333,0.0,-5e-324\n"
    "1,3,-2.2250738585072014e-308,-1.7976931348623157e+308,-0.1,-0.3333333333333333,-0.0,"
    "5e-324,2.2250738585072014e-308,1.7976931348623157e+308,0.1,0.3333333333333333\n"
    "2,1,0.0,-5e-324,-2.2250738585072014e-308,-1.7976931348623157e+308,-0.1,"
    "-0.3333333333333333,-0.0,5e-324,2.2250738585072014e-308,1.7976931348623157e+308\n"
    "2,2,0.1,0.3333333333333333,0.0,-5e-324,-2.2250738585072014e-308,-1.7976931348623157e+308,"
    "-0.1,-0.3333333333333333,-0.0,5e-324\n"
    "2,3,2.2250738585072014e-308,1.7976931348623157e+308,0.1,0.3333333333333333,0.0,-5e-324,"
    "-2.2250738585072014e-308,-1.7976931348623157e+308,-0.1,-0.3333333333333333\n"
)
_ROW_1_1 = _WIDE_TEXT[_WIDE_TEXT.index("\n1,1,"):_WIDE_TEXT.index("\n1,2,") + 1]


class TestCsvContainer:
    def test_wide_layout_is_pinned(self, tiny_samples, tmp_path):
        path = tmp_path / "draws.csv"
        export_draws(tiny_samples, path, fmt="csv")
        assert path.read_text() == _WIDE_TEXT
        back = import_draws(path)
        assert back.draws.tobytes() == tiny_samples.draws.tobytes()
        assert np.signbit(back.draws[0, 0, 0]) and np.signbit(back.draws[1, 1, 8])  # -0.0
        assert not np.signbit(back.draws[0, 0, 6])  # +0.0
        assert back.param_names == tiny_samples.param_names

    @pytest.mark.parametrize("edit, match", [
        (lambda t: t.replace("\n2,3,", "\n0,3,"), "each draw once"),
        (lambda t: t.replace("\n1,3,", "\n1,0,"), "each draw once"),
        (lambda t: t.replace("\n1,2,", "\n1,4,"), "each draw once"),
        (lambda t: t.replace("\n1,2,", "\n1,1,"), "each draw once"),
        (lambda t: t + t.splitlines(keepends=True)[1], "more than 6 rows of 12 columns, expected 6 of 12"),
        (lambda t: "".join(t.splitlines(keepends=True)[:-1]), "5 rows of 12 columns"),
        (lambda t: t.replace("\n1,1,", "\n1,x,").replace("\n1,2,", "\n1,1,")
                    .replace("\n1,x,", "\n1,2,"), "each draw once"),
    ], ids=["chain-0", "iter-0", "iter-past-end", "duplicate-cell", "extra-row", "missing-row",
            "rows-swapped"])
    def test_every_cell_exactly_once(self, tiny_samples, tmp_path, edit, match):
        path = tmp_path / "draws.csv"
        export_draws(tiny_samples, path, fmt="csv")
        _forge_csv(path, edit(path.read_text()))
        with pytest.raises(DataError, match=match):
            import_draws(path)

    def test_surplus_rows_are_refused_from_one_read(self, tiny_samples, tmp_path):
        # the refusal names the expected count without parsing the surplus
        path = tmp_path / "draws.csv"
        export_draws(tiny_samples, path, fmt="csv")
        text = path.read_text()
        surplus = 20_000
        _forge_csv(path, text + text.splitlines(keepends=True)[1] * surplus)
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="more than 6 rows of 12 columns, expected 6 of"):
                import_draws(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * surplus * tiny_samples.dim * 8

    @pytest.mark.parametrize("edit, match", [
        (lambda t: t.replace(_ROW_1_1, "\n1,1,-0.0\n"), "malformed row"),
        (lambda t: t.replace(_ROW_1_1, "\n1,1,-0.0,5e-324,0.1,7,8\n"), "malformed row"),
        (lambda t: t.replace(_ROW_1_1, _ROW_1_1[:-1] + ",7,8\n"), "malformed row"),
        (lambda t: t.replace("mu[1]", "mu[9]", 1), "header"),
        (lambda t: t.replace("\n1,1,", "\n1x,1,"), "malformed row"),
        (lambda t: t.replace("\n1,1,-0.0,", "\n1,1,abc,"), "malformed row"),
        (lambda t: t.replace("chain,iter,", "chain,iteration,", 1), "header"),
        (lambda t: "", "header"),
        (lambda t: t.splitlines(keepends=True)[0], "no rows"),
        (lambda t: t.splitlines()[0] + "\r\n\r\n", "no rows"),
    ], ids=["3-fields", "7-fields", "14-fields", "unknown-param", "chain-1x", "value-abc", "bad-header",
            "empty-file", "header-only", "blank-lines-only"])
    def test_malformed_body_is_a_data_error(self, tiny_samples, tmp_path, edit, match):
        path = tmp_path / "draws.csv"
        export_draws(tiny_samples, path, fmt="csv")
        _forge_csv(path, edit(path.read_text()))
        with pytest.raises(DataError, match=match):
            import_draws(path)

    def test_long_layout_of_earlier_versions_is_a_data_error(self, tiny_samples, tmp_path):
        # one value per row under a chain,iter,param,value header
        long = io.StringIO()
        writer = csv.writer(long, lineterminator="\n")
        writer.writerow(["chain", "iter", "param", "value"])
        for (c, i, j), v in np.ndenumerate(tiny_samples.draws):
            writer.writerow([c + 1, i + 1, tiny_samples.param_names[j], repr(float(v))])
        path = tmp_path / "draws.csv"
        export_draws(tiny_samples, path, fmt="csv")
        _forge_csv(path, long.getvalue())
        expected = ("the columns ['chain', 'iter', 'mu[1]', 'beta[1,1]', 'gamma_prone[1]'] "
                    "and 7 more")
        with pytest.raises(DataError, match=re.escape(expected)):
            import_draws(path)

    @pytest.mark.parametrize("edit, match", [
        ({"S": 4.0}, "S must be an integer"),
        ({"T": 2}, r"model dim \(28\) does not match draw dim \(32\)"),
        ({"sigma_scale": math.nan}, "sigma_scale must be a finite positive number"),
    ], ids=["float-S", "T-of-another-fit", "nan-sigma_scale"])
    def test_sidecar_model_must_fit_the_draws(self, tmp_path, edit, match):
        spec = model.ModelSpec(S=4, T=3)
        samples = PosteriorSamples(
            draws=np.zeros((1, 2, spec.dim)),
            param_names=model.param_names(spec),
            spec=spec,
            config=SamplerConfig(n_chains=1, burn_in=0, kept_iterations=2, thin=1),
            source_digest="x",
            acceptance_rates={},
            proposal_scales={},
        )
        path = tmp_path / "draws.csv"
        export_draws(samples, path, fmt="csv")
        side = path.with_name(path.name + ".manifest.json")
        manifest = json.loads(side.read_text())
        manifest["model"].update(edit)
        side.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match=match):
            import_draws(path)

    def test_param_names_must_be_the_models(self, tiny_samples, tmp_path):
        # mu[1] and beta[1,1] swapped in the header and the sidecar alike: the
        # container is self-consistent, but diagnose would misname both columns
        path = tmp_path / "draws.csv"
        export_draws(tiny_samples, path, fmt="csv")
        _forge_csv(path, path.read_text().replace('mu[1],"beta[1,1]"', '"beta[1,1]",mu[1]', 1))
        side = path.with_name(path.name + ".manifest.json")
        manifest = json.loads(side.read_text())
        names = manifest["param_names"]
        names[0], names[1] = names[1], names[0]
        side.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="param_names are not the model's names"):
            import_draws(path)

    @pytest.mark.parametrize("patch", [
        lambda m: m.pop("param_names"),
        lambda m: m.update(param_names=None),
        lambda m: m.update(param_names="mu[1]"),
        lambda m: m.update(param_names={"mu[1]": 0}),
    ], ids=["missing", "null", "string", "object"])
    def test_param_names_must_be_a_list(self, tiny_samples, tmp_path, patch):
        path = tmp_path / "draws.csv"
        export_draws(tiny_samples, path, fmt="csv")
        side = path.with_name(path.name + ".manifest.json")
        manifest = json.loads(side.read_text())
        patch(manifest)
        side.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="param_names"):
            import_draws(path)
