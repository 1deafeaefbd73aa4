"""Fit the hierarchical model and check that the chains behaved.

Simulates a mid-sized season (8 athletes, 11 stages), fits it with the
adaptive Metropolis-within-Gibbs sampler, and then runs the standard
aftermath: acceptance rates per Metropolis block, split-R-hat and
effective sample size for every coordinate, a posterior summary table,
and a round-trip through the on-disk draws container.  Because the data
are synthetic we can also ask the only question that matters: did the
posterior find the generating parameters?

Run from the repository root (takes ~30 s):

    python demos/02_fit_and_diagnose.py
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from biathlon_bayes import (
    ModelSpec,
    SamplerConfig,
    export_draws,
    generate_synthetic,
    import_draws,
    run_chains,
    summarize,
)
from biathlon_bayes.model import ParameterState, to_vector
from biathlon_bayes.synth import SynthConfig


def main() -> None:
    # ------------------------------------------------------------------
    # Simulate: 8 athletes over the full 11-stage calendar.  The full
    # calendar matters — with only a handful of stages the race-type
    # effects (and their scale) are barely identified and mix slowly.
    # Known truth makes recovery checkable.
    spec = ModelSpec(S=8, T=11)
    rng = np.random.default_rng(11)
    truth = ParameterState(
        mu=1.5 + np.cumsum(rng.normal(0.0, 0.12, spec.T)),
        beta_free=np.cumsum(rng.normal(0.0, 0.18, (spec.S - 1, spec.T)), axis=1),
        gamma_free=rng.normal(0.0, 0.25, spec.S),
        omega_free=rng.normal(0.0, 0.2, (spec.S, spec.Z - 1)),
        log_sigma=np.log([0.12, 0.18, 0.25, 0.2]),
    )
    cfg = SynthConfig(
        n_athletes=spec.S, n_stages=spec.T, true_params=truth, seed=5
    )
    dataset, _ = generate_synthetic(cfg)
    print(f"Season: {dataset.n_records} sessions, {dataset.n_athletes} athletes, "
          f"{spec.dim} free model coordinates.")

    # ------------------------------------------------------------------
    # Fit: the default chain protocol (1000 burn-in, 5000 kept, thin 5)
    # with two chains; the acceptance-rate targets (0.44 scalar / 0.35
    # vector) are what the adaptation steers toward.
    sampler_cfg = SamplerConfig(n_chains=2, seed=1)
    t0 = time.perf_counter()
    samples = run_chains(spec, dataset, sampler_cfg)
    wall = time.perf_counter() - t0
    print(f"\nFitted in {wall:.1f} s: {samples.n_chains} chains x "
          f"{samples.n_retained} retained draws.")

    # The four log scales are drawn exactly from their conditionals, so
    # only the Metropolis blocks have an acceptance rate: here the first
    # block of each kind.
    print("\n=== Acceptance rates per chain ===")
    shown = [n for n in samples.acceptance_rates if n == "mu" or n.endswith("[1]")]
    for name in shown:
        per_chain = samples.acceptance_rates[name]
        print(f"  {name:<16} " + "  ".join(f"{r:.3f}" for r in per_chain))

    # ------------------------------------------------------------------
    # One summary row per coordinate carries the convergence diagnostics.
    rows = summarize(samples)
    worst = max(rows, key=lambda r: r.rhat)
    slowest = min(rows, key=lambda r: r.ess)
    print("\n=== Convergence diagnostics ===")
    print(f"  max split-R-hat: {worst.rhat:.4f}  ({worst.name})")
    print(f"  min ESS:         {slowest.ess:7.1f}  ({slowest.name})")
    if worst.rhat < 1.05 and slowest.ess > 100:
        print("  chains are well mixed (R-hat < 1.05, ESS > 100 everywhere)")
    else:
        print("  WARNING: chains have not converged; lengthen the run")

    # ------------------------------------------------------------------
    # Posterior vs truth: the stage baselines and the hyper-scales.
    by_name = {r.name: r for r in rows}
    name_to_true = dict(zip(samples.param_names, to_vector(truth, spec)))
    print("\n=== Posterior summary vs generating truth ===")
    print(f"  {'param':<18} {'mean':>7} {'sd':>6} {'2.5%':>7} {'97.5%':>7} {'truth':>7}")
    picks = [f"mu[{t}]" for t in range(1, spec.T + 1)] + [
        "log_sigma_mu", "log_sigma_beta", "log_sigma_gamma", "log_sigma_omega"
    ]
    covered = 0
    for name in picks:
        r = by_name[name]
        tv = name_to_true[name]
        hit = r.q025 <= tv <= r.q975
        covered += hit
        print(f"  {name:<18} {r.mean:>7.3f} {r.sd:>6.3f} {r.q025:>7.3f} "
              f"{r.q975:>7.3f} {tv:>7.3f} {'' if hit else '  <- outside 95% CI'}")
    print(f"  ({covered}/{len(picks)} of these true values inside their 95% interval)")

    # ------------------------------------------------------------------
    # Persistence: the binary container round-trips bit-exactly and
    # carries a checksum, so a partial write cannot masquerade as data.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "draws.bin"
        export_draws(samples, path)
        loaded = import_draws(path)
        same = (np.array_equal(loaded.draws, samples.draws)
                and loaded.param_names == samples.param_names
                and loaded.config == samples.config)
        print(f"\nExport/import round-trip: {path.stat().st_size:,} bytes on disk, "
              f"bit-exact: {same}")


if __name__ == "__main__":
    main()
