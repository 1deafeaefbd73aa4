"""The benchmark: one workload per invocation, metrics as JSON.

    python3 bench/run.py --workload season_fit --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from ``--seed`` (several times; ``setup_s`` is
the median), then runs whole rounds of its operations until another round
would overrun ``--seconds`` (at least one), checks the outputs against the
benchmark's own computations, and prints one JSON object as the last line
of stdout: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced round and then one round with every layer wrapped by
:mod:`spans`, writes the spans to ``bench/out/`` and reports the
per-layer metrics, including the tracing overhead (traced minus untraced
round wall time).

The program runs in this process from ``src/``: chains run one after
another (``BIATHLON_BAYES_THREADS=1``), BLAS is single-threaded, and no
process pool is started.  A run that exceeds its timeout kills and reaps
any child process and exits 3 without a result.

``--write-benchmark-json`` regenerates ``BENCHMARK.json`` from
:mod:`spec`.
"""

from __future__ import annotations

import os

# Set before numpy loads: the benchmark owns its thread settings.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["BIATHLON_BAYES_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 7
TIMEOUT_S = 170

sys.path[:0] = [str(HERE), str(ROOT / "src")]

import spec  # noqa: E402


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout()


def _children() -> set[int]:
    """Live child processes of this one, from the process table."""
    me, pids = os.getpid(), set()
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.add(int(entry.name))
    return pids


def reap_children() -> set[int]:
    """Kill and wait for every child process; return the ones found."""
    found = {p.pid for p in multiprocessing.active_children()}
    for p in multiprocessing.active_children():
        p.kill()
        p.join(5)
    for pid in _children():
        found.add(pid)
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    return found


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "biathlon_bayes").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from spans import Tracer, instrument, layer_metrics
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[workload](seed, OUT / f"work-{workload}-{os.getpid()}")
    try:
        setup_s = []
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            wl.setup()
            setup_s.append(time.perf_counter() - t0)

        rounds: list[float] = []
        failed = 0
        t_start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            failed += wl.run_round()
            rounds.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - t_start
            if trace or elapsed + statistics.median(rounds) > seconds:
                break
        peak_mb = _rss_mb()

        metrics: dict[str, float] = {}
        if trace:
            tracer = Tracer()
            instrument(tracer)
            try:
                sid = tracer.open("bench.setup")
                wl.setup()
                tracer.close(sid)
                tracer.counts.clear()
                tracer.drift_max = 0.0
                sid = tracer.open("bench.round")
                failed += wl.run_round()
                tracer.close(sid)
            finally:
                tracer.uninstall()
            tracer.write(OUT / f"spans-{workload}")
            metrics.update(layer_metrics(tracer))
            traced_wall = tracer.end[sid] - tracer.start[sid]
            metrics["trace.wall_s"] = traced_wall
            metrics["trace.overhead_s"] = traced_wall - rounds[0]
            metrics["cli.output_mb"] = wl.output_mb()
            for fmt, name in (("binary", "draws.bin"), ("csv", "draws.csv")):
                metrics[f"sampler.draws_mb.{fmt}"] = sum(
                    p.stat().st_size for p in wl.work.rglob(name)) / 1e6
            untraced = wl.timings[0]
            for key in ("sweeps_per_s", "report_s", "draws_csv_s"):
                metrics[key] = untraced.get(key, 0.0)

        ledger_path = OUT / "draws_sha256.json"
        ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
        tree = ledger.setdefault(source_digest(), {})
        try:
            errors, diag = wl.check(tree)
        except Exception:  # a missing or malformed output is a failed check
            traceback.print_exc()
            errors, diag = ["the checks could not read the outputs"], {}
        ledger_path.write_text(json.dumps(ledger, indent=1, sort_keys=True))
        for line in errors:
            print(f"check failed: {line}", file=sys.stderr)
        for key, value in diag.items():
            print(f"# {key} = {value}", file=sys.stderr)
        for i, timing in enumerate(wl.timings):
            print(f"# round {i + 1}: " + ", ".join(f"{k} {v:.6g}" for k, v in timing.items()),
                  file=sys.stderr)

        if trace:
            bulk = diag.get("sampler.min_bulk_ess")
            metrics["min_ess_per_s"] = bulk / wl.timings[0]["fit_s"] if bulk else 0.0
            for key in ("sampler.min_bulk_ess", "sampler.min_tail_ess", "sampler.max_rank_rhat"):
                metrics[key] = diag.get(key, 0.0)
            names = [n for n, _, _ in spec.PER_LAYER]
            units = {n: u for n, u, _ in spec.PER_LAYER}
        else:
            metrics = {
                "setup_s": statistics.median(setup_s),
                "wall_s": statistics.median(rounds),
                "peak_rss_mb": peak_mb,
            }
            names = [n for n, _, _, _ in spec.END_TO_END]
            units = {n: u for n, u, _, _ in spec.END_TO_END}
        n_rounds = len(rounds) + (1 if trace else 0)
        return {
            "correct": not errors,
            "attempted": n_rounds * wl.ops_per_round,
            "failed": failed,
            "metrics": {n: {"value": float(metrics[n]), "unit": units[n]} for n in names},
        }
    finally:
        shutil.rmtree(wl.work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[n for n, _ in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="regenerate BENCHMARK.json from bench/spec.py and exit")
    args = parser.parse_args(argv)

    if args.write_benchmark_json:
        text = json.dumps(spec.benchmark_json(), indent=2) + "\n"
        (ROOT / "BENCHMARK.json").write_text(text)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "biathlon_bayes" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(TIMEOUT_S)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except _Timeout:
        left = reap_children()
        print(f"error: timed out after {TIMEOUT_S}s; reaped {len(left)} child processes",
              file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
    left = reap_children()
    if left:
        print(f"error: {len(left)} child processes outlived the workload", file=sys.stderr)
        result["correct"] = False

    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
