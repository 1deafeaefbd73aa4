"""What the benchmark measures: workloads, metrics, units, bounds.

``BENCHMARK.json`` at the repository root is generated from this file by
``python3 bench/run.py --write-benchmark-json``.
"""

RUN_SECONDS = 30

WORKLOADS = [
    ("season_fit",
     "paper-scale CLI ingest+fit, 2 chains of the default random_walk kernel: "
     "sampler sweeps are over 99% of the work"),
    ("season_report",
     "draws container round trips plus CLI explore/diagnose/predict on a "
     "4x1000x454 AR(1) posterior: the report path, no sampling"),
    ("calibration",
     "20-replication real-sampler SBC at S=3 T=2 Z=4 plus CLI validate oracle: "
     "many tiny fits, per-fit set-up and small blocks"),
]

# (name, unit, better, bound): every workload reports all of these
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

_KINDS = ("mu", "beta", "gamma", "omega", "sigma")

# (name, unit, better); 0 means the workload does not exercise that layer
PER_LAYER = (
    [
        ("sweeps_per_s", "1/s", "higher"),
        ("min_ess_per_s", "1/s", "higher"),
        ("report_s", "s", "lower"),
        ("draws_csv_s", "s", "lower"),
        ("data.parse_s", "s", "lower"),
        ("data.arrays_s", "s", "lower"),
        ("synth.generate_s", "s", "lower"),
        ("explore.summary_s", "s", "lower"),
        ("model.loglik_calls_per_sweep", "count", "lower"),
        ("model.loglik_records_per_sweep", "count", "lower"),
        ("model.loglik_ms_per_sweep", "ms", "lower"),
        ("sampler.sweep_ms", "ms", "lower"),
        ("sampler.tries_per_sweep", "count", "lower"),
    ]
    + [(f"sampler.propose_us.{k}", "us", "lower") for k in _KINDS]
    + [(f"sampler.commit_us.{k}", "us", "lower") for k in _KINDS]
    + [
        ("sampler.transform_us", "us", "lower"),
        ("sampler.kernel_self_ms_per_sweep", "ms", "lower"),
        ("sampler.cache_rebuild_ms", "ms", "lower"),
        ("sampler.target_build_ms", "ms", "lower"),
    ]
    + [(f"sampler.accept_rate.{k}", "ratio", "higher") for k in _KINDS]
    + [
        ("sampler.nonfinite_tries", "count", "lower"),
        ("sampler.min_bulk_ess", "draws", "higher"),
        ("sampler.min_tail_ess", "draws", "higher"),
        ("sampler.max_rank_rhat", "ratio", "lower"),
        ("sampler.cache_drift_max", "nat", "lower"),
        ("sampler.summarize_s", "s", "lower"),
        ("sampler.ess_s", "s", "lower"),
        ("sampler.export_s.binary", "s", "lower"),
        ("sampler.export_s.csv", "s", "lower"),
        ("sampler.import_s.binary", "s", "lower"),
        ("sampler.import_s.csv", "s", "lower"),
        ("sampler.draws_mb.binary", "MB", "lower"),
        ("sampler.draws_mb.csv", "MB", "lower"),
        ("predict.expand_draws_s", "s", "lower"),
        ("predict.expand_draws_calls", "count", "lower"),
        ("predict.effects_s", "s", "lower"),
        ("predict.simulate_schedule_s", "s", "lower"),
        ("predict.forecast_s", "s", "lower"),
        ("predict.ppc_s", "s", "lower"),
        ("predict.cumulative_s", "s", "lower"),
        ("predict.rng_streams", "count", "lower"),
        ("cli.fit_self_s", "s", "lower"),
        ("cli.diagnose_self_s", "s", "lower"),
        ("cli.predict_self_s", "s", "lower"),
        ("cli.output_mb", "MB", "lower"),
        ("oracles.sbc_self_s", "s", "lower"),
        ("oracles.quadrature_s", "s", "lower"),
    ]
    + [(f"self_s.{layer}", "s", "lower")
       for layer in ("cli", "data", "synth", "explore", "model", "sampler", "predict",
                     "oracles", "bench")]
    + [
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
    ]
)


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": x}
                       for n, u, b, x in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
