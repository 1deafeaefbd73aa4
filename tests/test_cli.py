"""End-to-end command-line tests: every subcommand on a small synthetic
season, exit-code conventions, config replay, and determinism."""

import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from biathlon_bayes import cli, model, oracles, sampler
from biathlon_bayes.data import load_sessions


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

    def test_too_many_stages(self, tmp_path):
        assert cli.main(["simulate", "--out", str(tmp_path / "x"), "--stages", "99"]) == 2


class TestIngest:
    def test_happy_path(self, ws, tmp_path, capsys):
        out = tmp_path / "ing"
        assert cli.main(["ingest", "--data", _data(ws), "--out", str(out)]) == 0
        assert (out / "sessions.csv").exists()
        assert (out / "validation.json").exists()
        assert (out / "manifest.json").exists()
        assert "72 sessions, 4 athletes" in capsys.readouterr().out

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

    def test_clusters_on_complete_season(self, tmp_path):
        sim = tmp_path / "sim5"
        assert cli.main(["simulate", "--out", str(sim), "--athletes", "4",
                         "--stages", "5", "--seed", "3"]) == 0
        out = tmp_path / "exp5"
        assert cli.main(["explore", "--data", str(sim / "sessions.csv"),
                         "--out", str(out), "--clusters", "2"]) == 0
        assert (out / "merges.csv").exists()
        labels = (out / "labels.csv").read_text().strip().splitlines()
        assert len(labels) == 1 + 4  # header + one row per athlete

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


class TestFit:
    def test_outputs(self, ws):
        fit = ws / "fit"
        assert (fit / "draws.bin").exists()
        report = json.loads((fit / "fit_report.json").read_text())
        assert report["pooled_draws"] == 2 * 60
        assert report["model"]["S"] == 4
        assert report["source_digest"]
        assert list(report["acceptance_rates"]) == sorted(report["acceptance_rates"])

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
        assert cli.main(["diagnose", "--fit", str(fitdir), "--out", str(tmp_path)]) == 3

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

    def test_digest_mismatch_rejected(self, ws, tmp_path, capsys):
        other = tmp_path / "othersim"
        assert cli.main(["simulate", "--out", str(other), "--athletes", "4",
                         "--stages", "3", "--seed", "99"]) == 0
        rc = cli.main(["predict", "--fit", str(ws / "fit"),
                       "--data", str(other / "sessions.csv"), "--out", str(tmp_path)])
        assert rc == 2
        assert "digest" in capsys.readouterr().err

    def test_replicates_are_deterministic(self, ws, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert cli.main(["predict", "--fit", str(ws / "fit"), "--data", _data(ws),
                             "--out", str(out), "--reps", "30", "--seed", "5"]) == 0
        assert (a / "ppc_stage_totals_draws.csv").read_bytes() == (
            b / "ppc_stage_totals_draws.csv"
        ).read_bytes()


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
        real = oracles.run_chains

        def shifted(*args, **kwargs):
            samples = real(*args, **kwargs)
            return dataclasses.replace(samples, draws=samples.draws + 0.5)

        monkeypatch.setattr(oracles, "run_chains", shifted)
        out = tmp_path / "sbc"
        rc = cli.main(["validate", "sbc", "--out", str(out), "--reps", "20",
                       "--athletes", "2", "--stages", "1", "--chains", "1",
                       "--burnin", "60", "--keep", "60", "--thin", "1", "--seed", "0"])
        assert rc == 3
        result = json.loads((out / "sbc.json").read_text())
        assert result["pass"] is False
        assert result["replications"] == 20
        assert "FAIL" in capsys.readouterr().out


class TestConfigAndUsage:
    _PROTO = ["--chains", "1", "--burnin", "60", "--keep", "60", "--thin", "1",
              "--seed", "3"]

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
            "data", "out", "fmt", "seed", "chains", "burnin", "keep", "thin", "proposal"
        }
        assert cli.main(["fit", "--config", str(manifest),
                         "--out", str(replay)]) == 0
        assert (replay / "draws.bin").read_bytes() == (ws / "fit" / "draws.bin").read_bytes()

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
