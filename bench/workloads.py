"""The benchmark's three workloads: inputs, measured rounds and checks.

Each workload builds its inputs from the workload seed in :meth:`setup`,
runs one *round* of operations in :meth:`run_round` (the measured part,
repeated whole), and compares the program's outputs with the reference
computations of :mod:`checkers` in :meth:`check`.  The program is driven
only through ``cli.main`` and the public functions of ``data``, ``synth``,
``sampler``, ``predict`` and ``oracles``; it receives generated inputs,
never the seed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import struct
import time
from pathlib import Path

import numpy as np
from scipy.special import expit

import checkers
from biathlon_bayes import ModelSpec, ParameterState, cli, data, oracles, sampler, synth

RACE_TYPES = data.RACE_TYPES

# season_fit: the default kernel at paper scale, as long as a run allows
FIT_CHAINS, FIT_BURNIN, FIT_KEEP, FIT_THIN = 2, 300, 700, 2
# season_report: a default-size posterior made by the benchmark
POST_CHAINS, POST_DRAWS, POST_RHO, POST_SD = 4, 1000, 0.6, 0.1
# calibration: SBC shape; 199 draws give 200 rank values, a multiple of
# every bin count used below
SBC_S, SBC_T, SBC_Z, SBC_REPS = 3, 2, 4, 20
SBC_BURNIN, SBC_KEEP, SBC_THIN = 100, 398, 2
# false-alarm rates of the statistical checks, per round
ALPHA = 1e-3


def _cli(argv: list) -> int:
    """Run one CLI command in-process; its stdout is kept out of ours."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def make_season(seed: int):
    """A paper-scale season: 30 athletes, 11 stages, the standard calendar,
    with 108 seeded (athlete, 4-bout race) entries dropped so it holds 2088
    sessions.  Returns ``(dataset, truth)`` where ``truth`` is the
    generating state in synth's athlete order."""
    rng = np.random.default_rng([seed, 0])
    truth = ParameterState(
        mu=1.7 + np.cumsum(rng.normal(0.0, 0.15, 11)),
        beta_free=np.cumsum(rng.normal(0.0, 0.18, (29, 11)), axis=1),
        gamma_free=rng.normal(0.0, 0.25, 30),
        omega_free=rng.normal(0.0, 0.2, (30, 3)),
        log_sigma=np.log(np.array([0.15, 0.18, 0.25, 0.2])),
    )
    full, _ = synth.generate_synthetic(synth.season_config(seed=seed, true_params=truth))
    keys = sorted({(r.athlete, r.stage, r.race_seq) for r in full.records
                   if r.race_type != "sprint"})
    drop_idx = np.random.default_rng([seed, 1]).choice(len(keys), 108, replace=False)
    dropped = {keys[i] for i in drop_idx}
    records = [r for r in full.records if (r.athlete, r.stage, r.race_seq) not in dropped]
    return data.Dataset.from_records(records), truth


def truth_vector(dataset, truth: ParameterState) -> np.ndarray:
    """The generating state as free coordinates in the *dataset's* athlete
    order (first appearance), which a dropped first race can change."""
    ids = synth.athlete_ids(len(dataset.athletes))
    order = [ids.index(a) for a in dataset.athletes]
    beta = np.vstack([truth.beta_free, -truth.beta_free.sum(axis=0)])[order]
    omega = np.hstack([truth.omega_free, -truth.omega_free.sum(axis=1, keepdims=True)])[order]
    return np.concatenate([truth.mu, beta[:-1].ravel(), truth.gamma_free[order],
                           omega[:, :-1].ravel(), truth.log_sigma])


def coordinate_names(S: int, T: int, Z: int) -> tuple[str, ...]:
    """Names of the free coordinates in the program's vector order."""
    names = [f"mu[{t}]" for t in range(1, T + 1)]
    names += [f"beta[{s},{t}]" for s in range(1, S) for t in range(1, T + 1)]
    names += [f"gamma_prone[{s}]" for s in range(1, S + 1)]
    names += [f"omega[{s},{r}]" for s in range(1, S + 1) for r in RACE_TYPES[: Z - 1]]
    return tuple(names + [f"log_sigma_{k}" for k in ("mu", "beta", "gamma", "omega")])


def record_eta(draws: np.ndarray, records, athletes, S: int, T: int, Z: int) -> np.ndarray:
    """Log-odds of every record under every draw, from free coordinates
    (draws x dim) by the model's sum-to-zero expansion."""
    m = draws.shape[0]
    mu = draws[:, :T]
    beta = draws[:, T:T + (S - 1) * T].reshape(m, S - 1, T)
    beta = np.concatenate([beta, -beta.sum(axis=1, keepdims=True)], axis=1)
    off = T + (S - 1) * T
    gamma = draws[:, off:off + S]
    omega = draws[:, off + S:off + S + S * (Z - 1)].reshape(m, S, Z - 1)
    omega = np.concatenate([omega, -omega.sum(axis=2, keepdims=True)], axis=2)
    index = {a: i for i, a in enumerate(athletes)}
    s = np.array([index[r.athlete] for r in records])
    t = np.array([r.stage - 1 for r in records])
    z = np.array([RACE_TYPES.index(r.race_type) for r in records])
    sign = np.array([1.0 if r.position == "prone" else -1.0 for r in records])
    return mu[:, t] + beta[:, s, t] + sign * gamma[:, s] + omega[:, s, z]


def read_binary_draws(path: Path) -> tuple[dict, np.ndarray, bool]:
    """Parse a binary draws container independently: (manifest, draws,
    trailer checksum ok)."""
    raw = path.read_bytes()
    body, trailer = raw[:-32], raw[-32:]
    off = body.index(b"\n") + 1
    (mlen,) = struct.unpack_from("<Q", body, off)
    manifest = json.loads(body[off + 8:off + 8 + mlen])
    shape = (manifest["n_chains"], manifest["n_retained"], manifest["dim"])
    draws = np.frombuffer(body[off + 8 + mlen:], dtype="<f8").reshape(shape)
    return manifest, draws, hashlib.sha256(body).digest() == trailer


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class Workload:
    """Common plumbing: a work directory and per-round bookkeeping."""

    name = ""
    ops_per_round = 0

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.timings: list[dict[str, float]] = []

    def fresh(self, sub: str) -> Path:
        path = self.work / sub
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def output_mb(self) -> float:
        """Size of everything the last round's CLI calls wrote."""
        out = self.work / "out"
        return sum(p.stat().st_size for p in out.rglob("*") if p.is_file()) / 1e6


# ---------------------------------------------------------------------------


class SeasonFit(Workload):
    """CLI ``ingest`` then ``fit`` of a paper-scale season."""

    name = "season_fit"
    ops_per_round = 2

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.shas: list[str] = []  # draws sha256 of each round

    def setup(self):
        self.dataset, truth = make_season(self.seed)
        self.truth = truth_vector(self.dataset, truth)
        self.csv = self.fresh("in") / "sessions.csv"
        self.csv.write_bytes(data.serialize_sessions(self.dataset))

    def run_round(self) -> int:
        out = self.fresh("out")
        codes = [_cli(["ingest", "--data", self.csv, "--out", out / "ingest"])]
        t1 = time.perf_counter()
        codes.append(_cli([
            "fit", "--data", out / "ingest" / "sessions.csv", "--out", out / "fit",
            "--seed", self.seed, "--chains", FIT_CHAINS, "--burnin", FIT_BURNIN,
            "--keep", FIT_KEEP, "--thin", FIT_THIN, "--format", "binary",
        ]))
        t2 = time.perf_counter()
        sweeps = FIT_CHAINS * (FIT_BURNIN + FIT_KEEP)
        self.timings.append({"fit_s": t2 - t1, "sweeps_per_s": sweeps / (t2 - t1)})
        if codes[1] == 0:
            self.shas.append(_sha256(out / "fit" / "draws.bin"))
        return sum(c != 0 for c in codes)

    def check(self, ledger: dict) -> tuple[list[str], dict[str, float]]:
        errors: list[str] = []
        fit = self.work / "out" / "fit"
        manifest, draws, trailer_ok = read_binary_draws(fit / "draws.bin")
        report = json.loads((fit / "fit_report.json").read_text())
        if not trailer_ok:
            errors.append("draws.bin trailer is not the sha256 of its body")
        if _sha256(fit / "draws.bin") != report["draws_sha256"]:
            errors.append("draws.bin sha256 differs from fit_report.json")
        imported = sampler.import_draws(fit / "draws.bin")
        if not np.array_equal(imported.draws, draws):
            errors.append("import_draws disagrees with an independent parse of draws.bin")
        if len(set(self.shas)) != 1:
            errors.append(f"rounds of one run gave {len(set(self.shas))} different draws")
        key = f"{self.name}:{self.seed}"
        if ledger.setdefault(key, self.shas[-1]) != self.shas[-1]:
            errors.append("draws sha256 differs from an earlier run of this source tree")

        pooled = draws.reshape(-1, draws.shape[2])
        lo = np.array([checkers.type1_quantile(c, 0.025) for c in pooled.T])
        hi = np.array([checkers.type1_quantile(c, 0.975) for c in pooled.T])
        inside = int(np.sum((lo <= self.truth) & (self.truth <= hi)))
        # Misses cluster along an athlete's trajectory, so the floor counts
        # independent units (athletes + stages + scales), not coordinates.
        spec = manifest["model"]
        units = spec["S"] + spec["T"] + 4
        floor = checkers.binomial_band(units, 0.95, ALPHA)[0] / units
        share = inside / self.truth.size
        if share < floor:
            errors.append(f"95% intervals cover {share:.3f} of the truth, floor {floor:.3f}")

        bulk = np.array([checkers.bulk_ess(draws[:, :, j]) for j in range(draws.shape[2])])
        tail = np.array([checkers.tail_ess(draws[:, :, j]) for j in range(draws.shape[2])])
        rhat = np.array([checkers.rank_rhat(draws[:, :, j]) for j in range(draws.shape[2])])
        names = manifest["param_names"]
        diag = {
            "sampler.min_bulk_ess": float(bulk.min()),
            "sampler.min_tail_ess": float(tail.min()),
            "sampler.max_rank_rhat": float(rhat.max()),
            "coverage95": share,
            "min_bulk_ess_at": names[int(bulk.argmin())],
            "program_min_ess": float(min(sampler.ess(draws[:, :, j])
                                         for j in range(draws.shape[2]))),
        }
        return errors, diag


# ---------------------------------------------------------------------------


class SeasonReport(Workload):
    """Draws container round trips, then CLI explore, diagnose and predict
    on a posterior the benchmark made itself."""

    name = "season_report"
    ops_per_round = 7

    def setup(self):
        self.dataset, truth = make_season(self.seed)
        S, T, Z = self.dataset.n_athletes, self.dataset.n_stages, 4
        self.centre = truth_vector(self.dataset, truth)
        rng = np.random.default_rng([self.seed, 2])
        noise = checkers.ar1_chains(rng, (POST_CHAINS, self.centre.size, POST_DRAWS), POST_RHO)
        draws = self.centre + POST_SD * noise.transpose(0, 2, 1)
        self.samples = sampler.PosteriorSamples(
            draws=np.ascontiguousarray(draws),
            param_names=coordinate_names(S, T, Z),
            spec=ModelSpec(S=S, T=T, Z=Z),
            config=sampler.SamplerConfig(n_chains=POST_CHAINS, burn_in=0,
                                         kept_iterations=POST_DRAWS, thin=1),
            source_digest=self.dataset.source_digest,
            acceptance_rates={},
            proposal_scales={},
        )
        inp = self.fresh("in")
        self.csv = inp / "sessions.csv"
        self.csv.write_bytes(data.serialize_sessions(self.dataset))
        # the forecast schedule: every athlete's races of the last stage again
        future = [r for r in self.dataset.records if r.stage == T]
        self.future = data.Dataset.from_records(
            [data.SessionRecord(r.athlete, r.stage, r.race_type, r.position, r.race_seq,
                                r.bout_seq, 0) for r in future])
        self.future_csv = inp / "future.csv"
        self.future_csv.write_bytes(data.serialize_sessions(self.future))

    def run_round(self) -> int:
        self.back_binary = self.back_csv = None  # peak memory must not grow with rounds
        out = self.fresh("out")
        fit, raw = self.fresh("draws/fit"), self.fresh("draws/csv")
        t0 = time.perf_counter()
        sampler.export_draws(self.samples, fit / "draws.bin", fmt="binary")
        self.back_binary = sampler.import_draws(fit / "draws.bin")
        t1 = time.perf_counter()
        sampler.export_draws(self.samples, raw / "draws.csv", fmt="csv")
        self.back_csv = sampler.import_draws(raw / "draws.csv")
        t2 = time.perf_counter()
        codes = [
            _cli(["explore", "--data", self.csv, "--out", out / "explore"]),
            _cli(["diagnose", "--fit", fit, "--out", out / "diagnose"]),
            _cli(["predict", "--fit", fit, "--data", self.csv, "--out", out / "predict",
                  "--seed", self.seed, "--future-schedule", self.future_csv]),
        ]
        t3 = time.perf_counter()
        self.timings.append({"binary_s": t1 - t0, "draws_csv_s": t2 - t1, "report_s": t3 - t2})
        return sum(c != 0 for c in codes)

    def check(self, ledger: dict) -> tuple[list[str], dict[str, float]]:
        errors: list[str] = []
        want = self.samples.draws.tobytes()
        for fmt, back in (("binary", self.back_binary), ("csv", self.back_csv)):
            if back.draws.tobytes() != want or back.param_names != self.samples.param_names:
                errors.append(f"{fmt} draws round trip is not bit-identical")

        out = self.work / "out"
        pooled = self.samples.pooled()  # the draws the container round trips carried
        rows = _read_csv(out / "diagnose" / "diagnostics.csv")
        n = POST_CHAINS * POST_DRAWS
        worst = 0.0
        for j, row in enumerate(rows):
            col = pooled[:, j]
            mean = math.fsum(col) / n
            sd = math.sqrt(math.fsum((col - mean) ** 2) / (n - 1))
            worst = max(worst, abs(float(row["mean"]) - mean) / sd,
                        abs(float(row["sd"]) / sd - 1.0))
            for key, q in (("q2.5", 0.025), ("median", 0.5), ("q97.5", 0.975)):
                if float(row[key]) != checkers.type1_quantile(col, q):
                    errors.append(f"diagnostics.csv {row['param']} {key}: not the type-1 quantile")
        if len(rows) != pooled.shape[1] or worst > 1e-9:
            errors.append(f"diagnostics.csv means/sds off by {worst:.2e} (relative)")

        # Geyer's estimate of each AR(1) coordinate: ~10% sd per coordinate
        # at this length, so the median over 454 coordinates sits within 5%.
        expected = POST_CHAINS * checkers.ar1_ess(POST_DRAWS, POST_RHO)
        ratio = np.array([float(r["ess"]) for r in rows]) / expected
        if not 0.95 <= np.median(ratio) <= 1.05 or ratio.min() < 0.5 or ratio.max() > 1.6:
            errors.append(f"diagnose ESS/(n(1-rho)/(1+rho)) median {np.median(ratio):.3f}, "
                          f"range {ratio.min():.2f}..{ratio.max():.2f}")

        errors += self._check_predictions(out / "predict", pooled)
        return errors, {}

    def _check_predictions(self, pred: Path, pooled: np.ndarray) -> list[str]:
        errors: list[str] = []
        ds, S, T = self.dataset, self.dataset.n_athletes, self.dataset.n_stages
        report = json.loads((pred / "report.json").read_text())
        written = sorted(p.name for p in pred.glob("*.csv"))
        if sorted(report["files"]) != written:
            errors.append("report.json does not list exactly the files written")
        for name, digest in report["files"].items():
            if _sha256(pred / name) != digest:
                errors.append(f"report.json digest of {name} does not match the file")

        # observed totals straight from the sessions file
        stage_obs: dict[int, int] = {}
        athlete_obs: dict[str, int] = {}
        for r in _read_csv(self.csv):
            stage_obs[int(r["stage"])] = stage_obs.get(int(r["stage"]), 0) + int(r["hits"])
            athlete_obs[r["athlete"]] = athlete_obs.get(r["athlete"], 0) + int(r["hits"])
        stage_rows = _read_csv(pred / "ppc_stage_totals.csv")
        if {int(r["stage"]): float(r["observed"]) for r in stage_rows} != stage_obs:
            errors.append("ppc_stage_totals.csv observed totals differ from the sessions file")
        for athlete, total in athlete_obs.items():
            path = pred / f"cumulative_{athlete}.csv"
            if float(_read_csv(path)[-1]["observed"]) != total:
                errors.append(f"{path.name}: final observed total is not {total}")

        # predictive means against sum 5*E[expit(eta)] over the same draws;
        # the difference is binomial noise with variance sum 5p(1-p)/M
        m = pooled.shape[0]
        p = expit(record_eta(pooled, ds.records, ds.athletes, S, T, 4))
        stage = np.array([r.stage for r in ds.records])
        for row in stage_rows:
            cols = stage == int(row["stage"])
            mean = 5.0 * p[:, cols].sum(axis=1).mean()
            se = math.sqrt(5.0 * (p[:, cols] * (1 - p[:, cols])).sum(axis=1).mean() / m)
            if abs(float(row["mean"]) - mean) > 5.0 * se:
                errors.append(f"stage {row['stage']} PPC mean {row['mean']} vs {mean:.3f}")
        pf = expit(record_eta(pooled, self.future.records, ds.athletes, S, T, 4))
        for j, row in enumerate(_read_csv(pred / "forecast.csv")):
            mean = 5.0 * pf[:, j].mean()
            se = math.sqrt(5.0 * (pf[:, j] * (1 - pf[:, j])).mean() / m)
            if abs(float(row["mean"]) - mean) > 5.0 * se:
                errors.append(f"forecast row {j} mean {row['mean']} vs {mean:.3f}")
        return errors


# ---------------------------------------------------------------------------


class Calibration(Workload):
    """A real-sampler SBC at S=3, T=2, Z=4, then CLI ``validate oracle``."""

    name = "calibration"
    ops_per_round = SBC_REPS + 1

    def setup(self):
        golden, _ = oracles.golden_quadrature_dataset()
        self.golden_hits = [r.hits for r in golden.records]
        self.quad = checkers.golden_quadrature(self.golden_hits)
        self.spec = ModelSpec(S=SBC_S, T=SBC_T, Z=SBC_Z)
        schedule = {t: RACE_TYPES[:SBC_Z] for t in range(1, SBC_T + 1)}
        self.synth_cfg = synth.SynthConfig(n_athletes=SBC_S, n_stages=SBC_T,
                                           schedule=schedule, seed=0)
        self.sampler_cfg = sampler.SamplerConfig(n_chains=1, burn_in=SBC_BURNIN,
                                                 kept_iterations=SBC_KEEP, thin=SBC_THIN)

    def run_round(self) -> int:
        out = self.fresh("out")
        t0 = time.perf_counter()
        self.sbc = oracles.sbc(self.spec, self.synth_cfg, replications=SBC_REPS,
                               sampler_cfg=self.sampler_cfg, seed=self.seed)
        t1 = time.perf_counter()
        # the oracle keeps the CLI's own defaults, seed included: its data
        # are fixed, so its result is too
        code = _cli(["validate", "oracle", "--out", out / "oracle"])
        t2 = time.perf_counter()
        oracle_cfg = sampler.SamplerConfig()  # what the CLI's defaults amount to
        sweeps = (SBC_REPS * (SBC_BURNIN + SBC_KEEP)
                  + oracle_cfg.n_chains * (oracle_cfg.burn_in + oracle_cfg.kept_iterations))
        self.timings.append({"sbc_s": t1 - t0, "oracle_s": t2 - t1,
                             "sweeps_per_s": sweeps / (t2 - t0)})
        return len(self.sbc.failures) + (code != 0)

    def check(self, ledger: dict) -> tuple[list[str], dict[str, float]]:
        errors: list[str] = []
        rep = self.sbc
        if rep.failures or rep.replications != SBC_REPS:
            errors.append(f"SBC replications that did not fit: {list(rep.failures)}")
        n_draws = rep.n_pooled
        dim = rep.ranks.shape[1]
        pooled_p = checkers.uniform_ranks_pvalue(rep.ranks, n_draws, 10)
        per_param = [checkers.uniform_ranks_pvalue(rep.ranks[:, j], n_draws, 4)
                     for j in range(dim)]
        if pooled_p < ALPHA or min(per_param) < ALPHA / dim:
            errors.append(f"SBC ranks not uniform: pooled p={pooled_p:.2e}, "
                          f"min per-parameter p={min(per_param):.2e}")
        lo, hi = checkers.binomial_band(rep.replications, 0.9, ALPHA / dim)
        counts = np.rint(rep.coverage90 * rep.replications)
        if ((counts < lo) | (counts > hi)).any():
            errors.append(f"90% coverage outside the Binomial({rep.replications}, 0.9) "
                          f"band [{lo}, {hi}]")

        result = json.loads((self.work / "out" / "oracle" / "oracle.json").read_text())
        golden, spec = oracles.golden_quadrature_dataset()
        refit = sampler.run_chains(spec, golden, sampler.SamplerConfig())
        chains = refit.draws[:, :, 0]
        flat = chains.ravel()
        mean, sd = float(flat.mean()), float(flat.std(ddof=1))
        if (mean, sd) != (result["sampler"]["mean"], result["sampler"]["sd"]):
            errors.append("oracle.json sampler moments differ from a rerun of the same fit")
        mcse = sd / math.sqrt(checkers.mean_ess(chains))
        q_mean, q_sd = self.quad
        if abs(mean - q_mean) > 3.0 * mcse:
            errors.append(f"oracle mean {mean:.5f} vs quadrature {q_mean:.5f} (mcse {mcse:.5f})")
        if abs(sd / q_sd - 1.0) > 0.10:
            errors.append(f"oracle sd {sd:.5f} vs quadrature {q_sd:.5f}")
        if abs(result["quadrature"]["mean"] - q_mean) > 1e-6:
            errors.append("the program's quadrature mean differs from the benchmark's")
        return errors, {"sbc_pooled_p": pooled_p, "oracle_z": (mean - q_mean) / mcse}


WORKLOADS = {w.name: w for w in (SeasonFit, SeasonReport, Calibration)}
