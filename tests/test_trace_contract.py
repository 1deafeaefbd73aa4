"""The benchmark traces the package from outside (``bench/spans.py``): it
wraps ``ModelTarget`` methods by name, reads their arguments by position,
and counts ``model.bout_log_likelihoods`` calls through the module.  These
tests keep a kernel refactor from silently emptying its per-layer metrics."""

import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from biathlon_bayes import model, oracles, sampler, synth

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import spans  # noqa: E402

# the ModelTarget methods the tracer wraps, with the arguments its span
# names and counters read
WRAPPED = {
    "__init__": ("self", "spec", "dataset"),
    "propose_delta": ("self", "x", "cache", "block", "prop"),
    "commit": ("self", "x", "cache", "block", "prop", "stash"),
    "proposal_transform": ("self", "x", "block"),
    "make_cache": ("self", "x"),
}


def test_wrapped_methods_keep_their_arguments():
    for name, params in WRAPPED.items():
        method = sampler.ModelTarget.__dict__[name]  # the tracer patches the class dict
        assert tuple(inspect.signature(method).parameters) == params, name
    assert tuple(inspect.signature(sampler.run_chain).parameters)[:2] == ("target", "cfg")


@pytest.fixture
def short_chain(small_dataset):
    spec = model.ModelSpec.for_dataset(small_dataset)
    cfg = sampler.SamplerConfig(n_chains=1, burn_in=20, kept_iterations=30, thin=5, seed=3)
    return sampler.ModelTarget(spec, small_dataset), cfg


def _per_sweep(target):
    """(traced tries, log-likelihood calls, rows) per sweep: every block
    step reads its one group of cells with one call.  The tracer counts a try
    per ``propose_delta`` call, which a class step does not make
    (``propose_rows``), and the scale draws make no try and touch no
    record."""
    tries = calls = records = 0
    for block in target.blocks:
        if block.idx.ndim == 1:
            tries += block.repeats
        calls += block.repeats
        records += block.repeats * len(block.payload[1].hits)
    return tries, calls, records


def test_one_loglik_call_per_touched_group(short_chain, monkeypatch):
    target, cfg = short_chain
    spec = target.spec
    S, repeats = spec.S, 2  # T > 1: two tries per trajectory visit
    tries, calls, records = _per_sweep(target)
    # mu, one group per trajectory try, and one class step each for gamma
    # and omega
    assert calls == 1 + (S - 1) * repeats + 2
    assert tries == 1 + (S - 1) * repeats
    # the small season's 4 athletes shoot two race types at each of 3
    # stages: 12 (stage, position, race type) cells each, 48 in all, and
    # the tracer counts cells, not its 72 sessions
    n = len(target.hits)
    assert (n, target.datasets[0].n_records) == (48, 72)
    # mu, gamma and omega touch every cell once; a trajectory try touches
    # its athlete's and the constrained last athlete's
    assert records == 3 * 48 + repeats * (S - 1) * (12 + 12) == 288

    seen, rebuilds = [], []
    original = model.bout_log_likelihoods
    make_cache = target.make_cache

    def counting(hits, eta, *shots):
        seen.append(len(hits))
        return original(hits, eta, *shots)

    def rebuilding(x):
        rebuilds.append(1)
        return make_cache(x)

    monkeypatch.setattr(model, "bout_log_likelihoods", counting)
    monkeypatch.setattr(target, "make_cache", rebuilding)
    sampler.run_chain(target, cfg, 0)
    sweeps = cfg.burn_in + cfg.kept_iterations
    assert len(rebuilds) == 2  # the first cache and the burn-in boundary
    assert len(seen) == sweeps * calls + len(rebuilds)
    assert sum(seen) == sweeps * records + len(rebuilds) * n


def test_the_tracer_sees_every_layer_of_a_fit(short_chain):
    target, cfg = short_chain
    tracer = spans.Tracer()
    spans.instrument(tracer)
    try:
        root = tracer.open("bench.round")
        sampler.run_chain(target, cfg, 0)
        tracer.close(root)
    finally:
        tracer.uninstall()
    m = spans.layer_metrics(tracer)
    tries, calls, records = _per_sweep(target)
    sweeps = cfg.burn_in + cfg.kept_iterations
    rebuilds = 2  # the first cache and the burn-in boundary
    n = len(target.hits)
    assert m["sampler.tries_per_sweep"] == tries
    assert m["model.loglik_calls_per_sweep"] == pytest.approx(calls + rebuilds / sweeps)
    assert m["model.loglik_records_per_sweep"] == pytest.approx(records + rebuilds * n / sweeps)
    for kind in spans.KINDS:
        # the scales are drawn exactly, and gamma and omega step as classes
        # (propose_rows, commit_rows): none of them calls propose_delta or
        # commit, so the tracer sees none of their tries
        if kind in ("gamma", "omega", "sigma"):
            assert m[f"sampler.propose_us.{kind}"] == 0, kind
            assert m[f"sampler.commit_us.{kind}"] == 0, kind
            assert m[f"sampler.accept_rate.{kind}"] == 0, kind
        else:
            assert m[f"sampler.propose_us.{kind}"] > 0, kind
            assert m[f"sampler.commit_us.{kind}"] > 0, kind
            assert m[f"sampler.accept_rate.{kind}"] > 0, kind
    assert m["sampler.transform_us"] > 0
    assert m["sampler.sweep_ms"] > 0
    assert tracer.counts["sampler.sweeps"] == sweeps


def test_the_tracer_reads_a_stacked_sbc(monkeypatch):
    # a stack steps by class moves only (propose_rows, commit_rows), and
    # its cache.logp is one number, the sum over its replications; the
    # tracer sees only its own process, so the fit runs on one worker, as
    # the benchmark's do
    monkeypatch.setenv(sampler.THREADS_ENV, "1")
    spec = model.ModelSpec(S=3, T=2)
    synth_cfg = synth.SynthConfig(n_athletes=3, n_stages=2,
                                  schedule={1: ("sprint",), 2: ("pursuit", "individual")})
    cfg = sampler.SamplerConfig(n_chains=1, burn_in=10, kept_iterations=10, thin=1)
    tracer = spans.Tracer()
    spans.instrument(tracer)
    try:
        root = tracer.open("bench.round")
        report = oracles.sbc(spec, synth_cfg, replications=20, sampler_cfg=cfg, seed=1)
        tracer.close(root)
    finally:
        tracer.uninstall()
    m = spans.layer_metrics(tracer)
    assert report.replications == 20
    assert tracer.counts["sampler.sweeps"] == cfg.burn_in + cfg.kept_iterations  # one chain
    assert m["sampler.sweep_ms"] > 0 and m["oracles.sbc_self_s"] > 0
