"""End-to-end command-line tests: every subcommand on a small synthetic
season, exit-code conventions, config replay, and determinism."""

import csv
import dataclasses
import hashlib
import io
import json
import os
import platform
import re

import numpy as np
import pytest
import scipy

from biathlon_bayes import cli, model, oracles, sampler, synth
from biathlon_bayes.data import Dataset, load_sessions, serialize_sessions


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Workspace with a simulated 4-athlete season and a finished fit."""
    root = tmp_path_factory.mktemp("cli")
    sim = root / "sim"
    assert cli.main(["simulate", "--out", str(sim), "--athletes", "4",
                     "--stages", "3", "--seed", "21"]) == 0
    fit = root / "fit"
    assert cli.main(["fit", "--data", str(sim / "sessions.csv"), "--out", str(fit),
                     "--chains", "2", "--burnin", "150", "--keep", "300",
                     "--thin", "5", "--seed", "7"]) == 0
    return root


def _data(ws):
    return str(ws / "sim" / "sessions.csv")


class TestSimulate:
    def test_outputs_and_determinism(self, ws, tmp_path):
        again = tmp_path / "again"
        assert cli.main(["simulate", "--out", str(again), "--athletes", "4",
                         "--stages", "3", "--seed", "21"]) == 0
        assert (again / "sessions.csv").read_bytes() == (ws / "sim" / "sessions.csv").read_bytes()
        truth = json.loads((again / "true_params.json").read_text())
        assert set(truth) >= {"mu", "beta_free", "gamma_free", "omega_free", "log_sigma"}

    def test_seed_changes_output(self, ws, tmp_path):
        other = tmp_path / "other"
        assert cli.main(["simulate", "--out", str(other), "--athletes", "4",
                         "--stages", "3", "--seed", "22"]) == 0
        assert (other / "sessions.csv").read_bytes() != (ws / "sim" / "sessions.csv").read_bytes()

    def test_empty_season_exits_2(self, tmp_path, capsys):
        rc = cli.main(["simulate", "--out", str(tmp_path / "e"), "--athletes", "2",
                       "--stages", "1", "--participation", "0.0"])
        assert rc == 2
        assert "empty" in capsys.readouterr().err
        assert not (tmp_path / "e").exists()  # nothing written

    def test_too_many_stages(self, tmp_path):
        assert cli.main(["simulate", "--out", str(tmp_path / "x"), "--stages", "99"]) == 2


class TestIngest:
    def test_happy_path(self, ws, tmp_path, capsys):
        out = tmp_path / "ing"
        assert cli.main(["ingest", "--data", _data(ws), "--out", str(out)]) == 0
        assert (out / "sessions.csv").exists()
        assert (out / "validation.json").exists()
        assert (out / "manifest.json").exists()
        printed = capsys.readouterr().out
        assert "72 sessions, 4 athletes" in printed and printed.endswith(", 360 shots\n")

    def test_normalized_roundtrip(self, ws, tmp_path):
        out = tmp_path / "ing"
        cli.main(["ingest", "--data", _data(ws), "--out", str(out)])
        d1 = load_sessions(_data(ws))
        d2 = load_sessions(out / "sessions.csv")
        assert d1.records == d2.records

    def test_missing_file(self, tmp_path, capsys):
        assert cli.main(["ingest", "--data", str(tmp_path / "no.csv"),
                         "--out", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_corrupt_file(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("athlete,stage\nx,nope\n")
        assert cli.main(["ingest", "--data", str(bad), "--out", str(tmp_path)]) == 2


class TestExplore:
    def test_core_outputs(self, ws, tmp_path, capsys):
        out = tmp_path / "exp"
        assert cli.main(["explore", "--data", _data(ws), "--out", str(out)]) == 0
        for name in ("summary.csv", "favorites.csv", "deviations.csv"):
            assert (out / name).exists(), name
        captured = capsys.readouterr()
        assert "overall accuracy" in captured.out
        # 3 stages lack mass starts, so profiles are incomplete and the
        # implicit merge tree is skipped with a warning instead of failing
        assert "clustering skipped" in captured.err
        assert not (out / "merges.csv").exists()

    def test_explicit_clusters_need_complete_profiles(self, ws, tmp_path):
        rc = cli.main(["explore", "--data", _data(ws), "--out", str(tmp_path / "x"),
                       "--clusters", "2"])
        assert rc == 2

    @pytest.fixture(scope="class")
    def complete_season(self, tmp_path_factory):
        """A 4-athlete season in which every athlete has a complete profile."""
        sim = tmp_path_factory.mktemp("complete")
        assert cli.main(["simulate", "--out", str(sim), "--athletes", "4",
                         "--stages", "5", "--seed", "3"]) == 0
        return str(sim / "sessions.csv")

    def test_clusters_on_complete_season(self, complete_season, tmp_path):
        out = tmp_path / "exp5"
        assert cli.main(["explore", "--data", complete_season,
                         "--out", str(out), "--clusters", "2"]) == 0
        assert (out / "merges.csv").exists()
        labels = (out / "labels.csv").read_text().strip().splitlines()
        assert len(labels) == 1 + 4  # header + one row per athlete

    @pytest.mark.parametrize("k", ["0", "-2", "5"], ids=["zero", "negative", "n+1"])
    def test_cluster_count_outside_1_to_n_exits_2_before_writing(self, complete_season,
                                                                 tmp_path, k, capsys):
        out = tmp_path / "exp"
        rc = cli.main(["explore", "--data", complete_season, "--out", str(out),
                       "--clusters", k])
        assert rc == 2
        assert f"k={k} outside 1..4" in capsys.readouterr().err
        assert not out.exists()

    def test_rank_correlations(self, ws, tmp_path):
        d = load_sessions(_data(ws))
        ranks = tmp_path / "ranks.csv"
        ranks.write_text(
            "athlete,final_rank\n"
            + "".join(f"{a},{i + 1}\n" for i, a in enumerate(d.athletes))
        )
        out = tmp_path / "expr"
        assert cli.main(["explore", "--data", _data(ws), "--out", str(out),
                         "--ranks", str(ranks)]) == 0
        assert (out / "correlations.csv").exists()

    def test_a_rank_that_is_not_finite_exits_2_before_writing(self, ws, tmp_path, capsys):
        d = load_sessions(_data(ws))
        ranks = tmp_path / "ranks.csv"
        ranks.write_text("athlete,final_rank\n" + f"{d.athletes[0]},nan\n"
                         + "".join(f"{a},{i + 2}\n" for i, a in enumerate(d.athletes[1:])))
        out = tmp_path / "expr"
        assert cli.main(["explore", "--data", _data(ws), "--out", str(out),
                         "--ranks", str(ranks)]) == 2
        assert "not finite" in capsys.readouterr().err
        assert not out.exists()


class TestFit:
    def test_outputs(self, ws):
        fit = ws / "fit"
        assert (fit / "draws.bin").exists()
        report = json.loads((fit / "fit_report.json").read_text())
        assert report["pooled_draws"] == 2 * 60
        assert report["model"]["S"] == 4
        assert report["source_digest"]
        assert list(report["acceptance_rates"]) == sorted(report["acceptance_rates"])

    def test_report_records_the_numeric_environment(self, ws):
        # what a pinned draw's bits depend on beyond the inputs
        report = json.loads((ws / "fit" / "fit_report.json").read_text())
        env = report["numeric_environment"]
        assert set(env) == {"python", "numpy", "scipy", "numpy_cpu_baseline",
                            "numpy_cpu_dispatch"}
        assert env["python"] == platform.python_version()
        assert (env["numpy"], env["scipy"]) == (np.__version__, scipy.__version__)
        assert all(isinstance(f, str)
                   for f in env["numpy_cpu_baseline"] + env["numpy_cpu_dispatch"])
        assert report["draws_sha256"] == hashlib.sha256(
            (ws / "fit" / "draws.bin").read_bytes()).hexdigest()

    def test_rerun_is_byte_identical(self, ws, tmp_path):
        fit2 = tmp_path / "fit2"
        assert cli.main(["fit", "--data", _data(ws), "--out", str(fit2),
                         "--chains", "2", "--burnin", "150", "--keep", "300",
                         "--thin", "5", "--seed", "7"]) == 0
        assert (fit2 / "draws.bin").read_bytes() == (ws / "fit" / "draws.bin").read_bytes()
        assert (fit2 / "fit_report.json").read_bytes() == (
            ws / "fit" / "fit_report.json"
        ).read_bytes()

    def test_worker_env_does_not_change_draws(self, ws, tmp_path, monkeypatch):
        monkeypatch.setenv("BIATHLON_BAYES_THREADS", "2")
        fit2 = tmp_path / "fit_mp"
        assert cli.main(["fit", "--data", _data(ws), "--out", str(fit2),
                         "--chains", "2", "--burnin", "150", "--keep", "300",
                         "--thin", "5", "--seed", "7"]) == 0
        assert (fit2 / "draws.bin").read_bytes() == (ws / "fit" / "draws.bin").read_bytes()

    def test_csv_format(self, ws, tmp_path):
        out = tmp_path / "fitcsv"
        assert cli.main(["fit", "--data", _data(ws), "--out", str(out),
                         "--chains", "1", "--burnin", "50", "--keep", "50",
                         "--thin", "5", "--seed", "1", "--format", "csv"]) == 0
        assert (out / "draws.csv").exists()
        assert (out / "draws.csv.manifest.json").exists()

    def test_invalid_protocol(self, ws, tmp_path):
        rc = cli.main(["fit", "--data", _data(ws), "--out", str(tmp_path / "x"),
                       "--keep", "7", "--thin", "2"])
        assert rc == 2


class TestDiagnose:
    def test_happy_path(self, ws, tmp_path, capsys):
        out = tmp_path / "diag"
        assert cli.main(["diagnose", "--fit", str(ws / "fit"), "--out", str(out)]) == 0
        summary = json.loads((out / "diagnostics.json").read_text())
        assert summary["n_params"] == 32
        assert summary["max_rhat"] > 0 and summary["min_ess"] > 0
        lines = (out / "diagnostics.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 32
        assert "max split-Rhat" in capsys.readouterr().out

    def test_missing_fit_dir(self, tmp_path):
        assert cli.main(["diagnose", "--fit", str(tmp_path / "nope"),
                         "--out", str(tmp_path)]) == 2

    def test_degenerate_draws_exit_3(self, ws, tmp_path):
        # constant chains make split-Rhat undefined -> numerical failure
        spec = model.ModelSpec(S=2, T=1, Z=2)
        cfg = sampler.SamplerConfig(n_chains=2, burn_in=0, kept_iterations=20, thin=1)
        frozen = sampler.PosteriorSamples(
            draws=np.zeros((2, 20, spec.dim)),
            param_names=model.param_names(spec),
            spec=spec,
            config=cfg,
            source_digest="x",
            acceptance_rates={},
            proposal_scales={},
        )
        fitdir = tmp_path / "flatfit"
        fitdir.mkdir()
        sampler.export_draws(frozen, fitdir / "draws.bin")
        out = tmp_path / "diag"
        assert cli.main(["diagnose", "--fit", str(fitdir), "--out", str(out)]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["binary", "csv"])
    def test_a_fit_without_parameters_exit_2(self, ws, tmp_path, capsys, fmt):
        samples = sampler.import_draws(ws / "fit" / "draws.bin")
        empty = dataclasses.replace(samples, draws=samples.draws[..., :0], param_names=())
        fitdir = tmp_path / "emptyfit"
        fitdir.mkdir()
        sampler.export_draws(empty, fitdir / ("draws.bin" if fmt == "binary" else "draws.csv"),
                             fmt=fmt)
        out = tmp_path / "diag"
        assert cli.main(["diagnose", "--fit", str(fitdir), "--out", str(out)]) == 2
        assert "dim must be a positive integer" in capsys.readouterr().err
        assert not out.exists()

    def test_too_short_fit_writes_nothing(self, tmp_path, capsys):
        # 2 draws per chain: too few for split-Rhat, found before any output
        sim, fit, out = tmp_path / "sim", tmp_path / "fit", tmp_path / "diag"
        assert cli.main(["simulate", "--out", str(sim), "--athletes", "3",
                         "--stages", "2", "--seed", "5"]) == 0
        assert cli.main(["fit", "--data", str(sim / "sessions.csv"), "--out", str(fit),
                         "--chains", "2", "--burnin", "10", "--keep", "10",
                         "--thin", "5", "--seed", "1"]) == 0
        assert cli.main(["diagnose", "--fit", str(fit), "--out", str(out)]) == 3
        assert "insufficient draws for split-rhat" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sidecar", ["{not json", "[]"])
    def test_malformed_csv_sidecar_exit_2(self, ws, tmp_path, capsys, sidecar):
        fitdir = tmp_path / "csvfit"
        fitdir.mkdir()
        samples = sampler.import_draws(ws / "fit" / "draws.bin")
        sampler.export_draws(samples, fitdir / "draws.csv", fmt="csv")
        (fitdir / "draws.csv.manifest.json").write_text(sidecar)
        assert cli.main(["diagnose", "--fit", str(fitdir), "--out", str(tmp_path)]) == 2
        assert "manifest" in capsys.readouterr().err

    def test_malformed_csv_body_exit_2(self, ws, tmp_path, capsys):
        fitdir = tmp_path / "csvfit"
        fitdir.mkdir()
        samples = sampler.import_draws(ws / "fit" / "draws.bin")
        sampler.export_draws(samples, fitdir / "draws.csv", fmt="csv")
        body = (fitdir / "draws.csv").read_bytes().replace(b"\n1,1,", b"\n1x,1,", 1)
        (fitdir / "draws.csv").write_bytes(body)
        side = fitdir / "draws.csv.manifest.json"
        manifest = json.loads(side.read_text())
        manifest["csv_sha256"] = hashlib.sha256(body).hexdigest()  # a valid forged checksum
        side.write_text(json.dumps(manifest))
        assert cli.main(["diagnose", "--fit", str(fitdir), "--out", str(tmp_path)]) == 2
        assert "malformed row" in capsys.readouterr().err

    def test_long_layout_csv_of_earlier_versions_exit_2(self, ws, tmp_path, capsys):
        fitdir = tmp_path / "csvfit"
        fitdir.mkdir()
        samples = sampler.import_draws(ws / "fit" / "draws.bin")
        sampler.export_draws(samples, fitdir / "draws.csv", fmt="csv")
        long = io.StringIO()  # one value per row, as earlier versions wrote
        writer = csv.writer(long, lineterminator="\n")
        writer.writerow(["chain", "iter", "param", "value"])
        for (c, i, j), v in np.ndenumerate(samples.draws):
            writer.writerow([c + 1, i + 1, samples.param_names[j], repr(float(v))])
        body = long.getvalue().encode()
        (fitdir / "draws.csv").write_bytes(body)
        side = fitdir / "draws.csv.manifest.json"
        manifest = json.loads(side.read_text())
        manifest["csv_sha256"] = hashlib.sha256(body).hexdigest()  # a valid checksum
        side.write_text(json.dumps(manifest))
        assert cli.main(["diagnose", "--fit", str(fitdir), "--out", str(tmp_path / "d")]) == 2
        err = capsys.readouterr().err
        assert "the columns ['chain', 'iter', 'mu[1]', 'mu[2]', 'mu[3]'] and 29 more" in err

    def test_fit_report_names_the_draws_file(self, ws, tmp_path):
        # a csv refit into a binary fit's directory leaves a stale draws.bin
        fit = tmp_path / "refit"
        for keep, fmt in (("50", "binary"), ("100", "csv")):
            assert cli.main(["fit", "--data", _data(ws), "--out", str(fit), "--chains", "1",
                             "--burnin", "20", "--keep", keep, "--thin", "5",
                             "--format", fmt]) == 0
        assert (fit / "draws.bin").exists()
        out = tmp_path / "diag"
        assert cli.main(["diagnose", "--fit", str(fit), "--out", str(out)]) == 0
        assert json.loads((out / "diagnostics.json").read_text())["n_retained"] == 20
        inputs = json.loads((out / "manifest.json").read_text())["inputs"]
        assert inputs["draws"]["path"] == os.path.join(str(fit), "draws.csv")

    @pytest.mark.parametrize("report", [b"{not json", b"[]", b'{"draws_file": 3}',
                                        b'{"draws_file": "../draws.bin"}', b"\xff\xfe"])
    def test_malformed_fit_report_exit_2(self, ws, tmp_path, capsys, report):
        fitdir = tmp_path / "fit"
        fitdir.mkdir()
        (fitdir / "draws.bin").write_bytes((ws / "fit" / "draws.bin").read_bytes())
        (fitdir / "fit_report.json").write_bytes(report)
        assert cli.main(["diagnose", "--fit", str(fitdir), "--out", str(tmp_path)]) == 2
        assert "fit report" in capsys.readouterr().err


class TestPredict:
    def test_full_output_set(self, ws, tmp_path, capsys):
        out = tmp_path / "pred"
        assert cli.main(["predict", "--fit", str(ws / "fit"), "--data", _data(ws),
                         "--out", str(out), "--reps", "40", "--seed", "3"]) == 0
        d = load_sessions(_data(ws))
        expected = [
            "mu_summary.csv",
            "beta_or.csv",
            "gamma_or.csv",
            "omega_or.csv",
            "ppc_stage_totals.csv",
            "ppc_stage_totals_draws.csv",
            "ppc_race_position.csv",
            "ppc_race_position_draws.csv",
        ] + [f"cumulative_{a}.csv" for a in d.athletes]
        for name in expected:
            assert (out / name).exists(), name
        report = json.loads((out / "report.json").read_text())
        assert report["n_rep"] == 40
        assert set(report["files"]) == set(expected)
        assert "40 replicates" in capsys.readouterr().out

    def test_single_athlete_gets_draw_matrix(self, ws, tmp_path):
        d = load_sessions(_data(ws))
        out = tmp_path / "pred1"
        assert cli.main(["predict", "--fit", str(ws / "fit"), "--data", _data(ws),
                         "--out", str(out), "--reps", "20",
                         "--athlete", d.athletes[0]]) == 0
        assert (out / f"cumulative_{d.athletes[0]}.csv").exists()
        assert (out / f"cumulative_{d.athletes[0]}_draws.csv").exists()
        assert not (out / f"cumulative_{d.athletes[1]}.csv").exists()

    def test_future_schedule_forecast(self, ws, tmp_path):
        out = tmp_path / "fc"
        assert cli.main(["predict", "--fit", str(ws / "fit"), "--data", _data(ws),
                         "--out", str(out), "--reps", "20",
                         "--future-schedule", _data(ws)]) == 0
        lines = (out / "forecast.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 72

    def test_an_empty_draws_container_writes_nothing(self, ws, tmp_path, capsys):
        samples = sampler.import_draws(ws / "fit" / "draws.bin")
        fitdir = tmp_path / "emptyfit"
        fitdir.mkdir()
        sampler.export_draws(dataclasses.replace(samples, draws=samples.draws[:, :0]),
                             fitdir / "draws.bin")
        out = tmp_path / "pred"
        assert cli.main(["predict", "--fit", str(fitdir), "--data", _data(ws),
                         "--out", str(out), "--reps", "20"]) == 2
        assert "n_retained must be a positive integer" in capsys.readouterr().err
        assert not out.exists()

    def test_digest_mismatch_rejected(self, ws, tmp_path, capsys):
        other = tmp_path / "othersim"
        assert cli.main(["simulate", "--out", str(other), "--athletes", "4",
                         "--stages", "3", "--seed", "99"]) == 0
        rc = cli.main(["predict", "--fit", str(ws / "fit"),
                       "--data", str(other / "sessions.csv"), "--out", str(tmp_path)])
        assert rc == 2
        assert "digest" in capsys.readouterr().err

    def test_colliding_cumulative_file_names_exit_2(self, ws, tmp_path, capsys):
        d = load_sessions(_data(ws))
        rename = {d.athletes[0]: "Anna Smith", d.athletes[1]: "Anna_Smith"}
        renamed = Dataset.from_records(
            [dataclasses.replace(r, athlete=rename.get(r.athlete, r.athlete)) for r in d.records]
        )
        data = tmp_path / "sessions.csv"
        data.write_bytes(serialize_sessions(renamed))
        fit, out = tmp_path / "fit", tmp_path / "pred"
        assert cli.main(["fit", "--data", str(data), "--out", str(fit), "--chains", "1",
                         "--burnin", "20", "--keep", "20", "--thin", "5"]) == 0
        rc = cli.main(["predict", "--fit", str(fit), "--data", str(data), "--out", str(out),
                       "--reps", "10"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "'Anna Smith'" in err and "'Anna_Smith'" in err
        assert not list(out.glob("cumulative_*"))

    def test_repeated_athlete_counts_once(self, ws, tmp_path, capsys):
        d = load_sessions(_data(ws))
        out = tmp_path / "pred"
        name = d.athletes[0]
        assert cli.main(["predict", "--fit", str(ws / "fit"), "--data", _data(ws),
                         "--out", str(out), "--reps", "20",
                         "--athlete", name, "--athlete", name]) == 0
        csvs = sorted(p.name for p in out.glob("*.csv"))
        assert len(csvs) == 8 + 2  # the tables plus one cumulative pair
        assert sorted(json.loads((out / "report.json").read_text())["files"]) == csvs
        assert "wrote 10 files" in capsys.readouterr().out
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config["athlete"] == [name]

    def test_unknown_athlete_writes_nothing(self, ws, tmp_path, capsys):
        d = load_sessions(_data(ws))
        out = tmp_path / "pred"
        rc = cli.main(["predict", "--fit", str(ws / "fit"), "--data", _data(ws),
                       "--out", str(out), "--reps", "10",
                       "--athlete", d.athletes[0], "--athlete", "nobody"])
        assert rc == 2
        assert "'nobody'" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_future_schedule_writes_nothing(self, ws, tmp_path):
        bad = tmp_path / "future.csv"
        bad.write_text("athlete,stage\nx,nope\n")
        out = tmp_path / "pred"
        rc = cli.main(["predict", "--fit", str(ws / "fit"), "--data", _data(ws),
                       "--out", str(out), "--reps", "10", "--future-schedule", str(bad)])
        assert rc == 2
        assert not out.exists()

    @pytest.fixture(scope="class")
    def two_race_fit(self, tmp_path_factory):
        """A 1-stage fit of a model with Z=2 race types, and its sessions file."""
        root = tmp_path_factory.mktemp("z2")
        d, _ = synth.generate_synthetic(synth.SynthConfig(
            n_athletes=3, n_stages=1, schedule={1: ("individual", "sprint")}, seed=5))
        data = root / "sessions.csv"
        data.write_bytes(serialize_sessions(d))
        d = load_sessions(data)
        cfg = sampler.SamplerConfig(n_chains=1, burn_in=20, kept_iterations=20, thin=1)
        (root / "fit").mkdir()
        sampler.export_draws(sampler.run_chains(model.ModelSpec(S=3, T=1, Z=2), d, cfg),
                             root / "fit" / "draws.bin")
        return root, d.athletes[0]

    @pytest.mark.parametrize("row, message", [
        ("nobody,1,individual,prone,1,1,0", "'nobody' not in the fitted dataset"),
        ("{a},2,individual,prone,1,1,0", "stage 2 outside the fitted range 1..1"),
        ("{a},1,pursuit,prone,1,1,0", "'pursuit' not included in the fitted model"),
    ], ids=["athlete", "stage", "race_type"])
    def test_future_schedule_outside_the_fit_writes_nothing(self, two_race_fit, tmp_path,
                                                           row, message, capsys):
        root, athlete = two_race_fit
        future = tmp_path / "future.csv"
        future.write_text("athlete,stage,race_type,position,race_seq,bout_seq,hits\n"
                          + row.format(a=athlete) + "\n")
        out = tmp_path / "pred"
        rc = cli.main(["predict", "--fit", str(root / "fit"),
                       "--data", str(root / "sessions.csv"), "--out", str(out),
                       "--reps", "10", "--future-schedule", str(future)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_replicates_are_deterministic(self, ws, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert cli.main(["predict", "--fit", str(ws / "fit"), "--data", _data(ws),
                             "--out", str(out), "--reps", "30", "--seed", "5"]) == 0
        assert (a / "ppc_stage_totals_draws.csv").read_bytes() == (
            b / "ppc_stage_totals_draws.csv"
        ).read_bytes()


@pytest.mark.parametrize("fmt", ["binary", "csv"])
@pytest.mark.parametrize("command", ["diagnose", "predict"])
def test_a_report_reads_its_draws_file_once(ws, tmp_path, monkeypatch, command, fmt):
    # the digest in the manifest (and predict's report.json) comes from the
    # read that imports the draws, not from a second pass over the file
    fitdir = tmp_path / "fit"
    fitdir.mkdir()
    draws = fitdir / ("draws.bin" if fmt == "binary" else "draws.csv")
    sampler.export_draws(sampler.import_draws(ws / "fit" / "draws.bin"), draws, fmt=fmt)
    real_open, opened = open, []

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and os.path.abspath(file) == str(draws):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    out = tmp_path / "out"
    extra = ["--data", _data(ws), "--reps", "10"] if command == "predict" else []
    assert cli.main([command, "--fit", str(fitdir), "--out", str(out)] + extra) == 0
    monkeypatch.undo()
    assert len(opened) == 1
    want = hashlib.sha256(draws.read_bytes()).hexdigest()
    assert json.loads((out / "manifest.json").read_text())["inputs"]["draws"]["sha256"] == want
    if command == "predict":
        assert json.loads((out / "report.json").read_text())["draws_sha256"] == want


class TestValidate:
    def test_oracle_passes(self, tmp_path, capsys):
        out = tmp_path / "oracle"
        rc = cli.main(["validate", "oracle", "--out", str(out), "--chains", "2",
                       "--burnin", "300", "--keep", "1000", "--thin", "2", "--seed", "0"])
        assert rc == 0
        result = json.loads((out / "oracle.json").read_text())
        assert result["pass"] is True
        assert result["quadrature"]["mean"] == pytest.approx(1.0525225531422362, abs=1e-9)
        assert "PASS" in capsys.readouterr().out

    def test_gradcheck_passes(self, tmp_path):
        out = tmp_path / "gc"
        rc = cli.main(["validate", "gradcheck", "--out", str(out), "--points", "1"])
        assert rc == 0
        result = json.loads((out / "gradcheck.json").read_text())
        assert result["pass"] is True
        assert [r["shape"] for r in result["shapes"]] == [[2, 1, 2], [3, 4, 3], [30, 11, 4]]
        assert all(r["max_rel_error"] <= 1e-6 for r in result["shapes"])

    _SBC = ["--reps", "20", "--athletes", "3", "--stages", "2", "--chains", "1",
            "--burnin", "100", "--keep", "200", "--thin", "2", "--seed", "0"]

    def test_sbc_passes_for_the_real_sampler(self, tmp_path, capsys):
        out = tmp_path / "sbc"
        assert cli.main(["validate", "sbc", "--out", str(out)] + self._SBC) == 0
        result = json.loads((out / "sbc.json").read_text())
        assert result["pass"] is True
        assert result["uniform_ok"] is True and result["coverage90_ok"] is True
        assert "PASS" in capsys.readouterr().out

    def test_sbc_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        # a sampler defect: every draw shifted off the posterior
        real = oracles.run_stack

        def shifted(*args, **kwargs):
            return (draws + 0.5 for draws in real(*args, **kwargs))

        monkeypatch.setattr(oracles, "run_stack", shifted)
        out = tmp_path / "sbc"
        rc = cli.main(["validate", "sbc", "--out", str(out), "--reps", "20",
                       "--athletes", "2", "--stages", "1", "--chains", "1",
                       "--burnin", "60", "--keep", "60", "--thin", "1", "--seed", "0"])
        assert rc == 3
        result = json.loads((out / "sbc.json").read_text())
        assert result["pass"] is False
        assert result["replications"] == 20
        assert "FAIL" in capsys.readouterr().out


class TestCountsCheckedBeforeOutput:
    """A count the library refuses exits 2 before manifest.json is written."""

    @pytest.mark.parametrize("argv", [
        ["predict", "--fit", "{fit}", "--data", "{data}", "--reps", "0"],
        ["predict", "--fit", "{fit}", "--data", "{data}", "--reps", "-3"],
        ["validate", "oracle", "--chains", "0"],
        ["validate", "sbc", "--chains", "0"],
        ["validate", "sbc", "--reps", "5"],
        ["validate", "gradcheck", "--points", "0"],
    ], ids=["predict-reps-0", "predict-reps-neg", "oracle-chains-0", "sbc-chains-0",
            "sbc-reps-5", "gradcheck-points-0"])
    def test_bad_count_exits_2_before_writing(self, ws, tmp_path, argv, capsys):
        out = tmp_path / "out"
        argv = [a.format(fit=ws / "fit", data=_data(ws)) for a in argv]
        assert cli.main(argv + ["--out", str(out)]) == 2
        assert "error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["fit", "--data", "{data}"],
        ["validate", "oracle"],
        ["validate", "sbc", "--reps", "20"],
    ], ids=["fit", "oracle", "sbc"])
    def test_bad_worker_env_exits_2_before_writing(self, ws, tmp_path, argv, capsys,
                                                    monkeypatch):
        monkeypatch.setenv(sampler.THREADS_ENV, "abc")
        out = tmp_path / "out"
        argv = [a.format(data=_data(ws)) for a in argv]
        assert cli.main(argv + ["--out", str(out)]) == 2
        assert sampler.THREADS_ENV in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit, match", [
        ({"S": 4.0}, "S must be an integer"),
        ({"T": 2}, r"model dim \(28\) does not match draw dim \(32\)"),
    ], ids=["float-S", "T-of-another-fit"])
    @pytest.mark.parametrize("command", ["diagnose", "predict"])
    def test_sidecar_model_that_does_not_fit_the_draws_exits_2_before_writing(
            self, ws, tmp_path, capsys, command, edit, match):
        # the CSV sidecar carries no checksum of its own
        fitdir = tmp_path / "csvfit"
        fitdir.mkdir()
        samples = sampler.import_draws(ws / "fit" / "draws.bin")
        sampler.export_draws(samples, fitdir / "draws.csv", fmt="csv")
        side = fitdir / "draws.csv.manifest.json"
        manifest = json.loads(side.read_text())
        manifest["model"].update(edit)
        side.write_text(json.dumps(manifest))
        out = tmp_path / "out"
        argv = [command, "--fit", str(fitdir), "--out", str(out)]
        assert cli.main(argv + (["--data", _data(ws)] if command == "predict" else [])) == 2
        assert re.search(match, capsys.readouterr().err)
        assert not out.exists()


class TestConfigAndUsage:
    _PROTO = ["--chains", "1", "--burnin", "60", "--keep", "60", "--thin", "1",
              "--seed", "3"]

    @pytest.mark.parametrize("argv", [["fit", "--data", "x.csv", "--out", "o"],
                                      ["validate", "oracle"]], ids=["fit", "validate"])
    def test_sampler_flag_defaults_are_the_library_defaults(self, argv):
        args = cli._build_parser().parse_args(argv)
        d = sampler.SamplerConfig()
        assert (args.chains, args.burnin, args.keep, args.thin, args.seed) == (
            d.n_chains, d.burn_in, d.kept_iterations, d.thin, d.seed)

    def test_config_supplies_required_flags(self, ws, tmp_path):
        flags_dir = tmp_path / "flags"
        assert cli.main(["fit", "--data", _data(ws), "--out", str(flags_dir)]
                        + self._PROTO) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "data": _data(ws), "out": str(tmp_path / "cfgrun"),
            "chains": 1, "burnin": 60, "keep": 60, "thin": 1, "seed": 3,
        }))
        assert cli.main(["fit", "--config", str(cfg)]) == 0
        assert (tmp_path / "cfgrun" / "draws.bin").read_bytes() == (
            flags_dir / "draws.bin"
        ).read_bytes()

    def test_explicit_flag_beats_config(self, ws, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "data": _data(ws), "out": str(tmp_path / "a"),
            "chains": 1, "burnin": 60, "keep": 60, "thin": 1, "seed": 3,
        }))
        assert cli.main(["fit", "--config", str(cfg)]) == 0
        assert cli.main(["fit", "--config", str(cfg), "--out", str(tmp_path / "b"),
                         "--seed", "4"]) == 0
        assert (tmp_path / "a" / "draws.bin").read_bytes() != (
            tmp_path / "b" / "draws.bin"
        ).read_bytes()

    def test_manifest_replays_a_fit(self, ws, tmp_path):
        replay = tmp_path / "replay"
        manifest = ws / "fit" / "manifest.json"
        assert set(json.loads(manifest.read_text())["config"]) == {
            "data", "out", "fmt", "seed", "chains", "burnin", "keep", "thin"
        }
        assert cli.main(["fit", "--config", str(manifest),
                         "--out", str(replay)]) == 0
        assert (replay / "draws.bin").read_bytes() == (ws / "fit" / "draws.bin").read_bytes()

    def test_manifest_replays_a_predict_without_reps(self, ws, tmp_path):
        # predict's --reps defaults to None, validate's to 100: the manifest's
        # "reps": null is predict's value and must not be checked as validate's
        first, replay = tmp_path / "first", tmp_path / "replay"
        assert cli.main(["predict", "--fit", str(ws / "fit"), "--data", _data(ws),
                         "--out", str(first), "--seed", "3"]) == 0
        manifest = first / "manifest.json"
        assert json.loads(manifest.read_text())["config"]["reps"] is None
        assert cli.main(["predict", "--config", str(manifest), "--out", str(replay)]) == 0
        names = sorted(p.name for p in first.iterdir() if p.name != "manifest.json")
        assert names == sorted(p.name for p in replay.iterdir() if p.name != "manifest.json")
        for name in names:
            assert (replay / name).read_bytes() == (first / name).read_bytes(), name

    @staticmethod
    def _older_manifest(path, subcommand, config):
        """A manifest in the layout written while ``--proposal`` existed."""
        path.write_text(json.dumps({
            "tool": "biathlon-bayes", "version": "0.1.0", "subcommand": subcommand,
            "config": config, "inputs": {},
        }, indent=2, sort_keys=True) + "\n")

    def test_older_fit_manifest_replays_its_draws(self, ws, tmp_path):
        manifest = tmp_path / "manifest.json"
        self._older_manifest(manifest, "fit", {
            "data": _data(ws), "out": str(tmp_path / "fit"), "fmt": "binary", "seed": 3,
            "chains": 1, "burnin": 60, "keep": 60, "thin": 1, "proposal": "random_walk",
        })
        assert cli.main(["fit", "--config", str(manifest)]) == 0
        draws = sampler.import_draws(tmp_path / "fit" / "draws.bin").draws
        # the draws of the same fit with the removed proposal setting left out
        assert hashlib.sha256(draws.astype("<f8").tobytes()).hexdigest() == (
            "17450de7d5093062a16cce4dfc0e1eb853e63632d379bbc78933a8a9d7940a6f"
        )

    def test_older_validate_manifest_replays_its_result(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        self._older_manifest(manifest, "validate", {
            "which": "oracle", "out": str(tmp_path / "val"), "seed": 0, "chains": 1,
            "burnin": 100, "keep": 200, "thin": 1, "points": 100, "reps": 100,
            "athletes": 5, "stages": 4, "proposal": "random_walk",
        })
        assert cli.main(["validate", "oracle", "--config", str(manifest)]) == 0
        assert hashlib.sha256((tmp_path / "val" / "oracle.json").read_bytes()).hexdigest() == (
            "c2da62bc00fefb28890e46883a6d703dfeaa2fb20fb4003337e81bf8cdff34dd"
        )

    def test_removed_kernel_in_config_exits_2_before_writing(self, ws, tmp_path, capsys):
        manifest, out = tmp_path / "manifest.json", tmp_path / "fit"
        self._older_manifest(manifest, "fit", {
            "data": _data(ws), "out": str(out), "fmt": "binary", "seed": 3, "chains": 1,
            "burnin": 60, "keep": 60, "thin": 1, "proposal": "gradient_assisted",
        })
        assert cli.main(["fit", "--config", str(manifest)]) == 2
        assert "'gradient_assisted'" in capsys.readouterr().err
        assert not out.exists()

    def test_config_value_outside_choices_exits_2_before_writing(self, ws, tmp_path, capsys):
        cfg, out = tmp_path / "cfg.json", tmp_path / "fit"
        cfg.write_text(json.dumps({
            "data": _data(ws), "out": str(out), "fmt": "parquet",
            "chains": 1, "burnin": 60, "keep": 60, "thin": 1, "seed": 3,
        }))
        assert cli.main(["fit", "--config", str(cfg)]) == 2
        assert "'parquet'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "payload",
        [
            {"frobnicate": 1},                      # unknown key
            {"chains": "many"},                     # uncoercible value
        ],
    )
    def test_bad_config_rejected(self, ws, tmp_path, payload, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        assert cli.main(["fit", "--config", str(cfg), "--data", _data(ws),
                         "--out", str(tmp_path / "x")]) == 2
        assert "error" in capsys.readouterr().err

    _SMALL = {"chains": 1, "burnin": 20, "keep": 20, "thin": 1}

    @pytest.mark.parametrize("argv, payload", [
        (["fit"], {**_SMALL, "chains": 2.5}),
        (["fit"], {**_SMALL, "chains": True}),
        (["fit"], {**_SMALL, "chains": None}),
        (["fit"], {**_SMALL, "out": 3}),
        (["explore"], {"standardize": "false"}),
        (["validate", "sbc"], {**_SMALL, "athletes": 3, "stages": 2, "reps": 20.0}),
        (["simulate"], {"participation": True}),
    ], ids=["int-flag-float", "int-flag-bool", "int-flag-null", "str-flag-int",
            "switch-string", "sbc-reps-float", "float-flag-bool"])
    def test_config_value_of_wrong_type_exits_2_before_writing(self, ws, tmp_path, capsys,
                                                              argv, payload):
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        data = {"data": _data(ws)} if argv[0] in ("fit", "explore") else {}
        cfg.write_text(json.dumps({**data, "out": str(out), **payload}))
        assert cli.main(argv + ["--config", str(cfg)]) == 2
        assert "config key" in capsys.readouterr().err
        assert not out.exists()

    def test_config_null_and_whole_numbers_where_they_parse(self, ws, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": str(tmp_path / "sim"), "athletes": 3, "stages": 2,
                                   "participation": 1}))
        assert cli.main(["simulate", "--config", str(cfg)]) == 0
        assert cli.main(["simulate", "--out", str(tmp_path / "flags"), "--athletes", "3",
                         "--stages", "2", "--participation", "1.0"]) == 0
        assert (tmp_path / "sim" / "sessions.csv").read_bytes() == (
            tmp_path / "flags" / "sessions.csv").read_bytes()
        config = json.loads((tmp_path / "sim" / "manifest.json").read_text())["config"]
        assert config["participation"] == 1.0 and isinstance(config["participation"], float)
        cfg.write_text(json.dumps({"data": _data(ws), "out": str(tmp_path / "exp"),
                                   "clusters": None, "ranks": None, "standardize": False}))
        assert cli.main(["explore", "--config", str(cfg)]) == 0

    def test_nonjson_config(self, ws, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("not json {")
        assert cli.main(["fit", "--config", str(cfg), "--data", _data(ws),
                         "--out", str(tmp_path / "x")]) == 2

    def test_missing_config_file(self, ws, tmp_path):
        assert cli.main(["fit", "--config", str(tmp_path / "none.json"),
                         "--data", _data(ws), "--out", str(tmp_path / "x")]) == 2

    def test_usage_errors_exit_1(self, capsys):
        assert cli.main([]) == 1
        assert cli.main(["frobnicate"]) == 1
        assert cli.main(["fit"]) == 1  # missing required --data
        assert cli.main(["fit", "--no-such-flag"]) == 1
        capsys.readouterr()

    def test_version_and_help(self, capsys):
        assert cli.main(["--version"]) == 0
        assert cli.main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "ingest" in out and "simulate" in out
