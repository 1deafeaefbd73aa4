"""Span tracing of ``biathlon_bayes`` from outside the package.

:class:`Tracer` replaces public functions and methods of each layer with
thin wrappers that record a span (name, start, end, parent) per call, plus
a few counters, into compact in-memory arrays.  Nothing inside ``src/`` is
edited: a function is wrapped wherever a package module binds it, so
``cli.run_chains`` and ``sampler.run_chains`` record the same span.
:meth:`Tracer.uninstall` restores every original.

:func:`layer_metrics` turns the spans of one traced round into the
per-layer metrics the benchmark reports.  A span's self time is its
duration minus the time its child spans cover; summed by layer (the span
name up to the first dot), self times add up to the round's wall time,
and whatever no layer span covers is the benchmark's own ``bench`` share.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter
from functools import cached_property
from pathlib import Path

import numpy as np

LAYERS = ("cli", "data", "synth", "explore", "model", "sampler", "predict", "oracles", "bench")
KINDS = ("mu", "beta", "gamma", "omega", "sigma")


class Tracer:
    """In-memory span recorder with install/uninstall of wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.drift_max = 0.0
        self._last_cache = None
        self._patches: list[tuple[object, str, object]] = []

    # ---- spans -----------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int):
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, after=None, before=None):
        """``fn`` recording a span named ``name`` (a string, or a callable
        of the call's arguments).  ``before(args, kwargs)`` runs before the
        span opens; ``after(result, args, kwargs)`` runs inside the span
        once ``fn`` returns."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            sid = tracer.open(name if isinstance(name, str) else name(*args, **kwargs))
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, args, kwargs)
                return result
            finally:
                tracer.close(sid)

        return traced

    # ---- installing wrappers ----------------------------------------------

    def _set(self, owner, attr: str, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, module, attr: str, name, after=None, before=None):
        """Wrap ``module.attr`` in every package module that binds it."""
        original = getattr(module, attr)
        wrapped = self.wrap(original, name, after, before)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "biathlon_bayes" and mod.__dict__.get(attr) is original:
                self._set(mod, attr, wrapped)

    def patch_method(self, cls, attr: str, name, after=None):
        self._set(cls, attr, self.wrap(cls.__dict__[attr], name, after))

    def patch_cached_property(self, cls, attr: str, name):
        prop = cached_property(self.wrap(cls.__dict__[attr].func, name))
        prop.__set_name__(cls, attr)
        self._set(cls, attr, prop)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ---- reading back ---------------------------------------------------

    def arrays(self):
        """(names, name_id, parent, start, end) as numpy arrays."""
        return (
            self.names,
            np.frombuffer(self.name_id, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int64).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
        )

    def write(self, path: Path):
        """Write every span and counter (spans as .npz, counters as JSON)."""
        names, nid, parent, start, end = self.arrays()
        np.savez(path.with_suffix(".npz"), name_id=nid, parent=parent, start=start, end=end)
        path.with_suffix(".json").write_text(
            json.dumps({"names": names, "counts": dict(self.counts), "drift_max": self.drift_max},
                       indent=1, sort_keys=True)
        )


# ---------------------------------------------------------------------------
# what gets wrapped


def _argv_name(argv=None, *_a, **_k) -> str:
    words = [str(a) for a in (argv or ()) if not str(a).startswith("-")]
    return "cli." + (words[0] if words else "main")


def instrument(tracer: Tracer):
    """Wrap the public calls of every layer the benchmark drives."""
    from biathlon_bayes import cli, data, explore, model, oracles, predict, sampler, synth

    t = tracer
    t.patch_function(cli, "main", _argv_name)

    for attr in ("load_sessions", "parse_sessions", "serialize_sessions", "validate_dataset"):
        t.patch_function(data, attr, f"data.{attr}")
    t.patch_cached_property(data.Dataset, "arrays", "data.arrays")

    t.patch_function(synth, "generate_synthetic", "synth.generate_synthetic")

    for attr in ("accuracy_summary", "favorite_race_counts", "stage_deviation_matrix",
                 "cluster_athletes", "summary_csv_rows", "favorite_csv_rows",
                 "deviation_csv_rows", "merges_csv_rows", "format_pct"):
        t.patch_function(explore, attr, f"explore.{attr}")

    def count_records(result, args, kwargs):
        t.counts["model.loglik_calls"] += 1
        t.counts["model.loglik_records"] += len(args[0])

    t.patch_function(model, "bout_log_likelihoods", "model.bout_log_likelihoods", count_records)
    for attr in ("linear_predictors", "log_prior", "expand"):
        t.patch_function(model, attr, f"model.{attr}")

    def chain_starts(args, kwargs):
        cfg = args[1]
        t.counts["sampler.sweeps"] += cfg.burn_in + cfg.kept_iterations
        t._last_cache = None  # a chain's first make_cache is no rebuild

    def proposed(result, args, kwargs):
        t._last_cache = args[2]
        t.counts[f"sampler.tries.{args[3].kind}"] += 1
        if not np.isfinite(result[0]):
            t.counts["sampler.nonfinite_tries"] += 1

    def committed(result, args, kwargs):
        t.counts[f"sampler.accepts.{args[3].kind}"] += 1

    def rebuilt(result, args, kwargs):
        if t._last_cache is not None:
            t.drift_max = max(t.drift_max, abs(t._last_cache.logp - result.logp))
        t._last_cache = None

    t.patch_function(sampler, "run_chains", "sampler.run_chains")
    t.patch_function(sampler, "run_chain", "sampler.run_chain", before=chain_starts)
    target = sampler.ModelTarget
    t.patch_method(target, "__init__", "sampler.target_build")
    t.patch_method(target, "propose_delta",
                   lambda self, x, cache, block, prop: "sampler.propose." + block.kind, proposed)
    t.patch_method(target, "commit",
                   lambda self, x, cache, block, prop, stash: "sampler.commit." + block.kind,
                   committed)
    t.patch_method(target, "proposal_transform", "sampler.transform")
    t.patch_method(target, "make_cache", "sampler.make_cache", rebuilt)
    for attr in ("summarize", "ess", "split_rhat"):
        t.patch_function(sampler, attr, f"sampler.{attr}")
    t.patch_function(sampler, "export_draws",
                     lambda samples, sink, fmt="binary": "sampler.export." + fmt)
    t.patch_function(sampler, "import_draws",
                     lambda source: "sampler.import."
                     + ("csv" if str(source).endswith(".csv") else "binary"))

    def streams(result, args, kwargs):
        t.counts["predict.rng_streams"] += len(args[1])

    for attr in ("expand_draws", "mu_summary", "beta_trajectories", "position_effects",
                 "race_effects", "simulate_schedule", "stage_totals_ppc",
                 "race_position_ppc", "cumulative_hits"):
        t.patch_function(predict, attr, f"predict.{attr}")
    t.patch_function(predict, "predictive_draws", "predict.predictive_draws", streams)

    t.patch_function(oracles, "sbc", "oracles.sbc")
    t.patch_function(oracles, "quadrature_posterior", "oracles.quadrature_posterior")
    t.patch_function(oracles, "golden_quadrature_dataset", "oracles.golden_quadrature_dataset")


# ---------------------------------------------------------------------------
# spans -> per-layer metrics


def _self_times(parent: np.ndarray, dur: np.ndarray) -> np.ndarray:
    has = parent >= 0
    child = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
    return dur - child


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of the spans under the last ``bench.round`` span
    (``synth.generate_s`` also counts the ``bench.setup`` spans)."""
    names, nid, parent, start, end = tracer.arrays()
    ids = {n: i for i, n in enumerate(names)}
    roots = np.flatnonzero(nid == ids["bench.round"])
    root = int(roots[-1])
    sel = np.arange(root, nid.size)
    sel = sel[start[sel] <= end[root]]
    dur = end - start
    self_t = _self_times(parent, dur)
    k = len(names)
    dur_by = np.bincount(nid[sel], weights=dur[sel], minlength=k)
    self_by = np.bincount(nid[sel], weights=self_t[sel], minlength=k)
    n_by = np.bincount(nid[sel], minlength=k)
    dur_all = np.bincount(nid, weights=dur, minlength=k)

    def total(name, by=dur_by):
        return float(by[ids[name]]) if name in ids else 0.0

    def count(name):
        return int(n_by[ids[name]]) if name in ids else 0

    def mean_us(name):
        n = count(name)
        return 1e6 * total(name) / n if n else 0.0

    def layer_self(layer):
        return float(sum(self_by[i] for n, i in ids.items() if n.startswith(layer + ".")))

    c = tracer.counts
    sweeps = c["sampler.sweeps"]

    def per_sweep(v):
        return v / sweeps if sweeps else 0.0

    m: dict[str, float] = {}
    m["data.parse_s"] = total("data.parse_sessions")
    m["data.arrays_s"] = total("data.arrays")
    m["synth.generate_s"] = total("synth.generate_synthetic", dur_all)
    m["explore.summary_s"] = layer_self("explore")

    m["model.loglik_calls_per_sweep"] = per_sweep(c["model.loglik_calls"])
    m["model.loglik_records_per_sweep"] = per_sweep(c["model.loglik_records"])
    m["model.loglik_ms_per_sweep"] = per_sweep(1e3 * total("model.bout_log_likelihoods"))

    m["sampler.sweep_ms"] = per_sweep(1e3 * total("sampler.run_chain"))
    m["sampler.tries_per_sweep"] = per_sweep(sum(c[f"sampler.tries.{k}"] for k in KINDS))
    for kind in KINDS:
        m[f"sampler.propose_us.{kind}"] = mean_us(f"sampler.propose.{kind}")
        m[f"sampler.commit_us.{kind}"] = mean_us(f"sampler.commit.{kind}")
    m["sampler.transform_us"] = mean_us("sampler.transform")
    m["sampler.kernel_self_ms_per_sweep"] = per_sweep(1e3 * total("sampler.run_chain", self_by))
    m["sampler.cache_rebuild_ms"] = 1e-3 * mean_us("sampler.make_cache")
    m["sampler.target_build_ms"] = 1e-3 * mean_us("sampler.target_build")
    for kind in KINDS:
        n = c[f"sampler.tries.{kind}"]
        m[f"sampler.accept_rate.{kind}"] = c[f"sampler.accepts.{kind}"] / n if n else 0.0
    m["sampler.nonfinite_tries"] = float(c["sampler.nonfinite_tries"])
    m["sampler.cache_drift_max"] = tracer.drift_max
    m["sampler.summarize_s"] = total("sampler.summarize")
    m["sampler.ess_s"] = total("sampler.ess")
    for fmt in ("binary", "csv"):
        m[f"sampler.export_s.{fmt}"] = total(f"sampler.export.{fmt}")
        m[f"sampler.import_s.{fmt}"] = total(f"sampler.import.{fmt}")

    m["predict.expand_draws_s"] = total("predict.expand_draws")
    m["predict.expand_draws_calls"] = float(count("predict.expand_draws"))
    m["predict.effects_s"] = sum(
        total(f"predict.{f}")
        for f in ("mu_summary", "beta_trajectories", "position_effects", "race_effects")
    )
    m["predict.simulate_schedule_s"] = total("predict.simulate_schedule")
    # predictive_draws outside simulate_schedule is the --future-schedule forecast
    m["predict.forecast_s"] = 0.0
    if "predict.predictive_draws" in ids:
        pd = sel[nid[sel] == ids["predict.predictive_draws"]]
        inner = nid[parent[pd]] == ids.get("predict.simulate_schedule", -1)
        m["predict.forecast_s"] = float(dur[pd[~inner]].sum())
    m["predict.ppc_s"] = total("predict.stage_totals_ppc") + total("predict.race_position_ppc")
    m["predict.cumulative_s"] = total("predict.cumulative_hits")
    m["predict.rng_streams"] = float(c["predict.rng_streams"])

    for sub in ("fit", "diagnose", "predict"):
        m[f"cli.{sub}_self_s"] = total(f"cli.{sub}", self_by)
    m["oracles.sbc_self_s"] = total("oracles.sbc", self_by)
    m["oracles.quadrature_s"] = total("oracles.quadrature_posterior")

    for layer in LAYERS:
        m[f"self_s.{layer}"] = layer_self(layer)
    m["trace.spans"] = float(sel.size)
    return m
