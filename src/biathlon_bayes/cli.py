"""Command-line pipeline: ingest -> explore -> fit -> diagnose -> predict.

Every subcommand writes a ``manifest.json`` (effective configuration, seeds,
input digests, tool version) into the output directory before any other
output, and all files are written atomically (temp file + rename).  Exit
codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.

A JSON config file can stand in for flags (``--config run/manifest.json``
accepts either a plain flag mapping or a previously written manifest, whose
embedded ``config`` block is used); explicitly passed flags always win, so
replaying a manifest reproduces a run bit-for-bit.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__
from .data import (
    RACE_TYPES,
    Dataset,
    load_sessions,
    serialize_sessions,
    validate_dataset,
)
from .errors import DataError, NumericalError
from .explore import (
    accuracy_summary,
    cluster_athletes,
    correlations_csv_rows,
    deviation_csv_rows,
    favorite_csv_rows,
    favorite_race_counts,
    format_pct,
    labels_csv_rows,
    load_ranks,
    merges_csv_rows,
    rank_correlations,
    stage_deviation_matrix,
    summary_csv_rows,
)
from .intervals import summary
from .model import ModelSpec
from .oracles import (
    gradient_check,
    golden_quadrature_dataset,
    quadrature_posterior,
    sbc,
)
from .predict import (
    beta_trajectories,
    cumulative_hits,
    mu_summary,
    position_effects,
    predictive_draws,
    race_effects,
    race_position_ppc,
    simulate_schedule,
    stage_totals_ppc,
)
from .sampler import (
    SamplerConfig,
    ess,
    export_draws,
    import_draws,
    run_chains,
    summarize,
)
from .synth import SEASON_SCHEDULE, SynthConfig, generate_synthetic

__all__ = ["main"]


# ---------------------------------------------------------------------------
# argument parsing (usage errors must exit 1, not argparse's default 2)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise _UsageError(f"{self.prog}: error: {message}\n{self.format_usage()}")


def _add_sampler_flags(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p.add_argument("--chains", type=int, default=4, help="number of chains")
    p.add_argument("--burnin", type=int, default=1000, help="burn-in sweeps per chain")
    p.add_argument("--keep", type=int, default=5000, help="post-burn-in sweeps per chain")
    p.add_argument("--thin", type=int, default=5, help="retain every k-th sweep")
    p.add_argument(
        "--proposal",
        choices=("random_walk", "gradient_assisted"),
        default="random_walk",
        help="proposal family",
    )


def _build_parser() -> _Parser:
    parser = _Parser(prog="biathlon-bayes", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="JSON file of flag defaults (flags win)")
    parser.add_argument("--version", action="version", version=__version__)
    subactions = parser.add_subparsers(dest="subcommand", metavar="subcommand")

    class _Sub:
        """add_parser shim: every subcommand also accepts --config."""

        def add_parser(self, name, **kw):
            p = subactions.add_parser(name, **kw)
            p.add_argument("--config", help="JSON file of flag defaults (flags win)")
            return p

    sub = _Sub()

    p = sub.add_parser("ingest", help="parse and validate a sessions file")
    p.add_argument("--data", required=True, help="sessions CSV path")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("explore", help="descriptive summaries and clustering")
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=".")
    p.add_argument("--ranks", help="optional athlete,final_rank CSV")
    p.add_argument("--clusters", type=int, metavar="K", help="emit K cluster labels")
    p.add_argument("--standardize", action="store_true", help="z-score cluster features")
    p.set_defaults(func=_cmd_explore)

    p = sub.add_parser("fit", help="sample the posterior")
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=".")
    _add_sampler_flags(p)
    p.add_argument("--format", choices=("binary", "csv"), default="binary", dest="fmt",
                   help="draws container format")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("diagnose", help="convergence diagnostics for a fit")
    p.add_argument("--fit", required=True, help="output directory of a previous fit")
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("predict", help="effect summaries and predictive checks")
    p.add_argument("--fit", required=True, help="output directory of a previous fit")
    p.add_argument("--data", required=True, help="the dataset the model was fitted to")
    p.add_argument("--out", default=".")
    p.add_argument("--seed", type=int, default=0, help="predictive seed")
    p.add_argument("--reps", type=int, help="predictive replicates (default: all draws)")
    p.add_argument("--athlete", action="append", default=None,
                   help="athlete for cumulative paths (repeatable; default all)")
    p.add_argument("--future-schedule", dest="future_schedule",
                   help="sessions CSV of races to forecast (hits ignored)")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("validate", help="independent correctness oracles")
    p.add_argument("which", choices=("oracle", "gradcheck", "sbc"))
    p.add_argument("--out", default=".")
    _add_sampler_flags(p)
    p.add_argument("--points", type=int, default=100, help="gradcheck points per shape")
    p.add_argument("--reps", type=int, default=100, help="sbc replications")
    p.add_argument("--athletes", type=int, default=5, help="sbc athletes")
    p.add_argument("--stages", type=int, default=4, help="sbc stages")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("simulate", help="generate a synthetic season")
    p.add_argument("--out", default=".")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--athletes", type=int, default=30)
    p.add_argument("--stages", type=int, default=11)
    p.add_argument("--participation", type=float, default=1.0)
    p.set_defaults(func=_cmd_simulate)

    return parser


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as e:
        raise DataError(f"cannot read config file: {e}") from None
    except json.JSONDecodeError as e:
        raise DataError(f"config file is not valid JSON: {e}") from None
    if not isinstance(obj, dict):
        raise DataError("config file must hold a JSON object")
    # A manifest written by this tool doubles as a config file.
    if isinstance(obj.get("config"), dict):
        obj = obj["config"]
    return obj


def _apply_config(parser: _Parser, cfg: dict):
    """Install config values as per-subcommand defaults.

    Explicit flags still win (argparse overwrites defaults with parsed
    values); required flags supplied by the config stop being required, so
    a fit manifest can be replayed with just ``--config``.  Positional
    arguments (the subcommand, validate's check name) must still be typed.
    """
    applied: set[str] = set()
    positional: set[str] = set()
    for spa in parser._actions:
        if not isinstance(spa, argparse._SubParsersAction):
            continue
        for sp in spa.choices.values():
            for a in sp._actions:
                if not a.option_strings:
                    positional.add(a.dest)
                    continue
                if a.dest not in cfg:
                    continue
                value = cfg[a.dest]
                if a.type is not None and isinstance(value, str):
                    try:
                        value = a.type(value)
                    except ValueError:
                        raise DataError(
                            f"config key {a.dest!r}: bad value {cfg[a.dest]!r}"
                        ) from None
                a.default = value
                a.required = False
                applied.add(a.dest)
    unknown = set(cfg) - applied - positional
    if unknown:
        raise DataError(f"unknown config keys: {', '.join(sorted(unknown))}")


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    argv = list(sys.argv[1:]) if argv is None else [str(a) for a in argv]
    parser = _build_parser()
    try:
        # Pre-scan for --config so its values become subcommand defaults,
        # which explicit flags then override.
        cfg_path = None
        for i, a in enumerate(argv):
            if a == "--config" and i + 1 < len(argv):
                cfg_path = argv[i + 1]
            elif a.startswith("--config="):
                cfg_path = a.split("=", 1)[1]
        if cfg_path is not None:
            _apply_config(parser, _load_config(cfg_path))
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(e, file=sys.stderr)
        return 1
    except DataError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SystemExit as e:  # --help / --version
        return int(e.code or 0)
    if getattr(args, "func", None) is None:
        print(parser.format_usage(), file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except DataError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


# ---------------------------------------------------------------------------
# output plumbing


def _atomic_write(path: str, data: bytes):
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _write_json(path: str, obj):
    _atomic_write(path, (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode())


def _write_csv(path: str, rows):
    body = io.StringIO()
    writer = csv.writer(body, lineterminator="\n")
    writer.writerows(rows)
    _atomic_write(path, body.getvalue().encode())


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_manifest(args, inputs: dict):
    """Write manifest.json to the output directory before any other output;
    its ``config`` is every argument of the subcommand, for ``--config``."""
    os.makedirs(args.out, exist_ok=True)
    manifest = {
        "tool": "biathlon-bayes",
        "version": __version__,
        "subcommand": args.subcommand,
        "config": {k: v for k, v in vars(args).items()
                   if k not in ("subcommand", "func", "config")},
        "inputs": inputs,
    }
    _write_json(os.path.join(args.out, "manifest.json"), manifest)


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", name) or "_"


def _find_draws(fit_dir: str) -> str:
    for candidate in ("draws.bin", "draws.csv"):
        path = os.path.join(fit_dir, candidate)
        if os.path.exists(path):
            return path
    raise DataError(f"no draws file (draws.bin or draws.csv) in {fit_dir!r}")


def _check_digest(samples, dataset: Dataset):
    if samples.source_digest and samples.source_digest != dataset.source_digest:
        raise DataError(
            "dataset does not match the fitted draws (source digest mismatch)"
        )


# ---------------------------------------------------------------------------
# subcommands


def _cmd_ingest(args) -> int:
    d = load_sessions(args.data)
    _write_manifest(args, {"data": {"path": args.data, "sha256": d.source_digest}})
    report = validate_dataset(d)
    _atomic_write(os.path.join(args.out, "sessions.csv"), serialize_sessions(d))
    _write_json(os.path.join(args.out, "validation.json"), report.to_json_dict())
    for line in report.warnings:
        print(f"warning: {line}", file=sys.stderr)
    print(
        f"{len(d.records)} sessions, {d.n_athletes} athletes, "
        f"{d.n_stages} stages, {5 * len(d.records)} shots"
    )
    return 0


def _cmd_explore(args) -> int:
    d = load_sessions(args.data)
    _write_manifest(args, {"data": {"path": args.data, "sha256": d.source_digest}})
    table = accuracy_summary(d)
    out = args.out

    _write_csv(os.path.join(out, "summary.csv"), summary_csv_rows(table))
    counts = favorite_race_counts(table)
    _write_csv(os.path.join(out, "favorites.csv"), favorite_csv_rows(counts))
    _write_csv(
        os.path.join(out, "deviations.csv"),
        deviation_csv_rows(stage_deviation_matrix(d)),
    )

    # The merge tree is always useful when computable; an explicit --clusters
    # makes an incomplete-profile failure fatal, otherwise it is just skipped.
    try:
        clustering = cluster_athletes(table, args.clusters or 1, standardize=args.standardize)
    except DataError:
        if args.clusters is not None:
            raise
        print("warning: clustering skipped (incomplete accuracy profiles)", file=sys.stderr)
    else:
        _write_csv(os.path.join(out, "merges.csv"), merges_csv_rows(clustering))
        if args.clusters is not None:
            _write_csv(os.path.join(out, "labels.csv"), labels_csv_rows(clustering))

    if args.ranks:
        with open(args.ranks, encoding="utf-8") as fh:
            ranks = load_ranks(fh)
        rho = rank_correlations(table, ranks)
        _write_csv(os.path.join(out, "correlations.csv"), correlations_csv_rows(rho))

    print(
        f"{d.n_athletes} athletes; overall accuracy {format_pct(table.overall.total.accuracy)}"
        f" (prone {format_pct(table.overall.position['prone'].accuracy)},"
        f" standing {format_pct(table.overall.position['standing'].accuracy)})"
    )
    return 0


def _sampler_config(args) -> SamplerConfig:
    return SamplerConfig(
        n_chains=args.chains,
        burn_in=args.burnin,
        kept_iterations=args.keep,
        thin=args.thin,
        seed=args.seed,
        proposal_mode=args.proposal,
    )


def _cmd_fit(args) -> int:
    d = load_sessions(args.data)
    spec = ModelSpec.for_dataset(d)
    cfg = _sampler_config(args)
    _write_manifest(args, {"data": {"path": args.data, "sha256": d.source_digest}})

    samples = run_chains(spec, d, cfg)

    draws_name = "draws.bin" if args.fmt == "binary" else "draws.csv"
    draws_path = os.path.join(args.out, draws_name)
    export_draws(samples, draws_path, fmt=args.fmt)

    report = {
        "draws_file": draws_name,
        "draws_sha256": _sha256(draws_path),
        "source_digest": d.source_digest,
        "model": {"S": spec.S, "T": spec.T, "Z": spec.Z, "dim": spec.dim},
        "sampler": cfg.to_json_dict(),
        "n_retained_per_chain": cfg.n_retained,
        "pooled_draws": cfg.n_chains * cfg.n_retained,
        "acceptance_rates": {
            k: list(v) for k, v in sorted(samples.acceptance_rates.items())
        },  # keep key order stable for byte-identical reruns
    }
    _write_json(os.path.join(args.out, "fit_report.json"), report)
    wall = f" in {samples.wall_time_s:.1f}s" if samples.wall_time_s is not None else ""
    print(
        f"fit: {cfg.n_chains} chains x {cfg.n_retained} retained -> "
        f"{cfg.n_chains * cfg.n_retained} draws over {spec.dim} parameters{wall}; "
        f"wrote {draws_name}"
    )
    return 0


def _cmd_diagnose(args) -> int:
    draws_path = _find_draws(args.fit)
    samples = import_draws(draws_path)
    _write_manifest(args, {"draws": {"path": draws_path, "sha256": _sha256(draws_path)}})

    rows = [["param", "mean", "sd", "q2.5", "median", "q97.5", "rhat", "ess"]]
    max_rhat = (-math.inf, "")
    min_ess = (math.inf, "")
    for s in summarize(samples):
        rows.append(
            [s.name] + [_fmt(v) for v in (s.mean, s.sd, s.q025, s.median, s.q975, s.rhat, s.ess)]
        )
        if s.rhat > max_rhat[0]:
            max_rhat = (s.rhat, s.name)
        if s.ess < min_ess[0]:
            min_ess = (s.ess, s.name)
    _write_csv(os.path.join(args.out, "diagnostics.csv"), rows)
    summary = {
        "n_params": len(samples.param_names),
        "n_chains": samples.n_chains,
        "n_retained": samples.n_retained,
        "max_rhat": max_rhat[0],
        "max_rhat_param": max_rhat[1],
        "min_ess": min_ess[0],
        "min_ess_param": min_ess[1],
        "converged": bool(max_rhat[0] < 1.05 and min_ess[0] > 100),
    }
    _write_json(os.path.join(args.out, "diagnostics.json"), summary)
    print(
        f"diagnose: max split-Rhat {max_rhat[0]:.4f} ({max_rhat[1]}), "
        f"min ESS {min_ess[0]:.0f} ({min_ess[1]})"
    )
    return 0


_INTERVAL_FIELDS = ["n_draws", "mean", "median", "lower", "upper", "observed", "tail_prob"]


def _interval_rows(label_header, labelled):
    """A PPC table: one row per ``(label tuple, PredictiveSummary)`` pair."""
    return [label_header + _INTERVAL_FIELDS] + [
        [_fmt(v) for v in label] + [_fmt(getattr(s, f)) for f in _INTERVAL_FIELDS]
        for label, s in labelled
    ]


def _effect_rows(axes: dict, effects):
    """An effect table: a row per element of the dataclass's arrays, labelled
    from ``axes`` ({column: labels along that axis}), a column per array."""
    names = [f.name for f in dataclasses.fields(effects)
             if isinstance(getattr(effects, f.name), np.ndarray)]
    arrays = [getattr(effects, name) for name in names]
    return [list(axes) + names] + [
        [_fmt(labels[i]) for labels, i in zip(axes.values(), idx)]
        + [_fmt(float(a[idx])) for a in arrays]
        for idx in np.ndindex(arrays[0].shape)
    ]


def _replicate_rows(columns, summaries):
    """A draws matrix: one row per predictive replicate, one column per summary."""
    matrix = np.column_stack([s.draws for s in summaries])
    return [["rep"] + columns] + [
        [str(i + 1)] + [_fmt(float(v)) for v in row] for i, row in enumerate(matrix)
    ]


def _cmd_predict(args) -> int:
    draws_path = _find_draws(args.fit)
    samples = import_draws(draws_path)
    d = load_sessions(args.data)
    _check_digest(samples, d)
    _write_manifest(
        args,
        {
            "draws": {"path": draws_path, "sha256": _sha256(draws_path)},
            "data": {"path": args.data, "sha256": d.source_digest},
        },
    )
    out = args.out
    files: list[str] = []

    def emit_csv(name: str, rows):
        _write_csv(os.path.join(out, name), rows)
        files.append(name)

    # --- effect summaries -------------------------------------------------
    mu = [[_fmt(v) for v in dataclasses.astuple(s)] for s in mu_summary(samples, d)]
    emit_csv("mu_summary.csv", [["stage", "mean", "median", "lower", "upper", "observed"]] + mu)
    stages = range(1, samples.spec.T + 1)
    emit_csv("beta_or.csv",
             _effect_rows({"athlete": d.athletes, "stage": stages}, beta_trajectories(samples)))
    emit_csv("gamma_or.csv", _effect_rows({"athlete": d.athletes}, position_effects(samples)))
    race = race_effects(samples)
    emit_csv("omega_or.csv",
             _effect_rows({"athlete": d.athletes, "race_type": race.race_types}, race))

    # --- posterior predictive checks (one joint draw set) -----------------
    joint = simulate_schedule(samples, d, n_rep=args.reps, seed=args.seed)

    stage_ppc = stage_totals_ppc(samples, d, joint_draws=joint)
    emit_csv("ppc_stage_totals.csv",
             _interval_rows(["stage"], (((t,), s) for t, s in stage_ppc.items())))
    emit_csv("ppc_stage_totals_draws.csv",
             _replicate_rows([f"stage_{t}" for t in stage_ppc], stage_ppc.values()))

    cell_ppc = race_position_ppc(samples, d, joint_draws=joint)
    emit_csv("ppc_race_position.csv", _interval_rows(["race_type", "position"], cell_ppc.items()))
    emit_csv("ppc_race_position_draws.csv",
             _replicate_rows([f"{rt}_{posn}" for rt, posn in cell_ppc], cell_ppc.values()))

    for name in args.athlete or d.athletes:
        path = cumulative_hits(samples, d, name, joint_draws=joint)
        races = zip(path.races, path.summaries)
        emit_csv(f"cumulative_{_safe_name(name)}.csv",
                 _interval_rows(["stage", "race_seq", "race_type"], races))
        if args.athlete:
            emit_csv(f"cumulative_{_safe_name(name)}_draws.csv",
                     _replicate_rows([f"s{stage}r{seq}" for stage, seq, _ in path.races],
                                     path.summaries))

    if args.future_schedule:
        future = load_sessions(args.future_schedule)
        fdraws = predictive_draws(
            samples, future.records, d, n_rep=args.reps, seed=args.seed
        )
        # integer hit counts: the column sums are exact in any order
        columns = summary(fdraws)
        emit_csv("forecast.csv", [
            ["athlete", "stage", "race_type", "position", "race_seq", "bout_seq",
             "mean", "median", "lower", "upper"]
        ] + [
            [rec.athlete, str(rec.stage), rec.race_type, rec.position,
             str(rec.race_seq), str(rec.bout_seq)] + [_fmt(float(c[j])) for c in columns]
            for j, rec in enumerate(future.records)
        ])

    report = {
        "draws_file": draws_path,
        "draws_sha256": _sha256(draws_path),
        "source_digest": d.source_digest,
        "seed": args.seed,
        "n_rep": joint.shape[0],
        "files": {name: _sha256(os.path.join(out, name)) for name in sorted(files)},
    }
    _write_json(os.path.join(out, "report.json"), report)
    print(f"predict: wrote {len(files)} files + report.json ({joint.shape[0]} replicates)")
    return 0


def _cmd_validate(args) -> int:
    if args.which == "oracle":
        return _validate_oracle(args)
    if args.which == "gradcheck":
        return _validate_gradcheck(args)
    return _validate_sbc(args)


def _validate_oracle(args) -> int:
    d, spec = golden_quadrature_dataset()
    _write_manifest(args, {})
    quad = quadrature_posterior(spec, d)
    cfg = _sampler_config(args)
    samples = run_chains(spec, d, cfg)
    pooled = samples.pooled()[:, 0]
    mean_mcmc = float(pooled.mean())
    sd_mcmc = float(pooled.std(ddof=1))
    n_eff = ess(samples, samples.param_names[0])
    mcse = sd_mcmc / math.sqrt(n_eff)
    mean_ok = abs(mean_mcmc - quad.mean) <= 3.0 * mcse
    sd_ok = abs(sd_mcmc / quad.sd - 1.0) <= 0.10
    result = {
        "pass": bool(mean_ok and sd_ok),
        "quadrature": {"mean": quad.mean, "sd": quad.sd, "n_nodes": quad.n_nodes},
        "sampler": {"mean": mean_mcmc, "sd": sd_mcmc, "ess": n_eff, "mcse": mcse},
        "mean_within_3_mcse": bool(mean_ok),
        "sd_within_10pct": bool(sd_ok),
    }
    _write_json(os.path.join(args.out, "oracle.json"), result)
    print(
        f"oracle: quadrature mean {quad.mean:.6f} sd {quad.sd:.6f}; "
        f"sampler mean {mean_mcmc:.6f} sd {sd_mcmc:.6f} (ess {n_eff:.0f}) -> "
        f"{'PASS' if result['pass'] else 'FAIL'}"
    )
    return 0 if result["pass"] else 3


def _validate_gradcheck(args) -> int:
    _write_manifest(args, {})
    shapes = ((2, 1, 2), (3, 4, 3), (30, 11, 4))
    results = []
    for S, T, Z in shapes:
        schedule = {t: RACE_TYPES[:Z] for t in range(1, T + 1)}
        cfg = SynthConfig(
            n_athletes=S, n_stages=T, schedule=schedule, seed=args.seed + S
        )
        d, _ = generate_synthetic(cfg)
        spec = ModelSpec(S=S, T=T, Z=Z)
        res = gradient_check(spec, d, n_points=args.points, seed=args.seed)
        results.append(
            {
                "shape": [S, T, Z],
                "max_rel_error": res.max_rel_error,
                "worst_coordinate": res.coordinate_name,
                "n_points": res.n_points,
            }
        )
    passed = all(r["max_rel_error"] <= 1e-6 for r in results)
    _write_json(os.path.join(args.out, "gradcheck.json"), {"pass": passed, "shapes": results})
    for r in results:
        print(
            f"gradcheck {tuple(r['shape'])}: max rel err {r['max_rel_error']:.3e} "
            f"at {r['worst_coordinate']}"
        )
    print(f"gradcheck: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 3


def _validate_sbc(args) -> int:
    _write_manifest(args, {})
    S, T = args.athletes, args.stages
    spec = ModelSpec(S=S, T=T, Z=4)
    schedule = {t: RACE_TYPES for t in range(1, T + 1)}
    synth_cfg = SynthConfig(n_athletes=S, n_stages=T, schedule=schedule, seed=0)
    report = sbc(spec, synth_cfg, replications=args.reps,
                 sampler_cfg=_sampler_config(args), seed=args.seed)
    payload = report.to_json_dict()
    payload["pass"] = bool(report.uniform_ok and payload["coverage90_ok"])
    _write_json(os.path.join(args.out, "sbc.json"), payload)
    print(
        f"sbc: {report.replications}/{report.attempted} replications, "
        f"uniformity {'ok' if report.uniform_ok else 'REJECTED'}, "
        f"90% coverage {'ok' if payload['coverage90_ok'] else 'OUTSIDE the Binomial band'} -> "
        f"{'PASS' if payload['pass'] else 'FAIL'}"
    )
    return 0 if payload["pass"] else 3


def _cmd_simulate(args) -> int:
    if args.stages > len(SEASON_SCHEDULE):
        raise DataError(
            f"built-in season schedule covers at most {len(SEASON_SCHEDULE)} stages"
        )
    schedule = {t: SEASON_SCHEDULE[t] for t in range(1, args.stages + 1)}
    cfg = SynthConfig(
        n_athletes=args.athletes,
        n_stages=args.stages,
        schedule=schedule,
        participation_rate=args.participation,
        seed=args.seed,
    )
    d, truth = generate_synthetic(cfg)
    _write_manifest(args, {})
    _atomic_write(os.path.join(args.out, "sessions.csv"), serialize_sessions(d))
    _write_json(
        os.path.join(args.out, "true_params.json"),
        {
            "mu": truth.mu.tolist(),
            "beta_free": truth.beta_free.tolist(),
            "gamma_free": truth.gamma_free.tolist(),
            "omega_free": truth.omega_free.tolist(),
            "log_sigma": truth.log_sigma.tolist(),
            "seed": args.seed,
        },
    )
    if not d.records:
        print("warning: simulated dataset is empty (participation too low)", file=sys.stderr)
        return 2
    print(f"simulate: {len(d.records)} sessions, {d.n_athletes} athletes, {d.n_stages} stages")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
