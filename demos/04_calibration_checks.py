"""Correctness oracles: three independent ways to catch a broken sampler.

An MCMC implementation can be wrong in ways that still produce
plausible-looking draws, so the package ships three cross-checks that do
not share code with the sampler:

1. deterministic quadrature on a collapsed one-parameter posterior,
   compared against the sampler on the same data;
2. finite-difference verification of the log-posterior gradient;
3. simulation-based calibration (SBC): fit many prior-simulated seasons
   and test that the true parameters' posterior ranks are uniform.

Run from the repository root (takes ~2 min, mostly the SBC loop):

    python demos/04_calibration_checks.py
"""

import numpy as np

from biathlon_bayes import (
    ModelSpec,
    SamplerConfig,
    gradient_check,
    quadrature_posterior,
    run_chains,
    sbc,
)
from biathlon_bayes.data import RACE_TYPES
from biathlon_bayes.oracles import golden_quadrature_dataset
from biathlon_bayes.sampler import ess
from biathlon_bayes.synth import SynthConfig, generate_synthetic


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Quadrature vs MCMC.  With a single stage, no athlete effects,
    # and every session collapsed onto the shared baseline, the posterior
    # is one-dimensional and a dense trapezoid grid integrates it to
    # ~machine precision.  The sampler must land on the same moments.
    dataset, spec = golden_quadrature_dataset()
    quad = quadrature_posterior(spec, dataset)
    print("=== Oracle 1: deterministic quadrature vs the sampler ===")
    print(f"  data: {dataset.n_records} sessions, model reduced to a single mu")
    print(f"  quadrature:  mean {quad.mean:.6f}  sd {quad.sd:.6f}")

    samples = run_chains(
        spec, dataset,
        SamplerConfig(n_chains=2, burn_in=300, kept_iterations=1000, thin=2, seed=0),
    )
    pooled = samples.pooled()[:, 0]
    mcmc_mean = pooled.mean()
    mcmc_sd = pooled.std(ddof=1)
    mcse = mcmc_sd / np.sqrt(ess(samples, "mu[1]"))
    print(f"  sampler:     mean {mcmc_mean:.6f}  sd {mcmc_sd:.6f}")
    print(f"  |mean error| = {abs(mcmc_mean - quad.mean):.5f} "
          f"({abs(mcmc_mean - quad.mean) / mcse:.2f} Monte Carlo SEs)")
    print(f"  sd relative error = {abs(mcmc_sd - quad.sd) / quad.sd:.3%}")

    # ------------------------------------------------------------------
    # 2. Gradient check.  The gradient powers the preconditioned and
    # gradient-assisted proposals; central differences at random points
    # must agree to ~1e-6 relative error.
    print("\n=== Oracle 2: finite-difference gradient check ===")
    for shape in ((2, 1, 2), (3, 4, 3), (30, 11, 4)):
        s, t, z = shape
        schedule = {stage: RACE_TYPES[:z] for stage in range(1, t + 1)}
        d, _ = generate_synthetic(
            SynthConfig(n_athletes=s, n_stages=t, schedule=schedule, seed=1 + s)
        )
        res = gradient_check(ModelSpec(S=s, T=t, Z=z), d, n_points=25, seed=1)
        print(f"  S={s:>2} T={t:>2} Z={z}: max relative error {res.max_rel_error:.2e} "
              f"at {res.coordinate_name} -> {'OK' if res.max_rel_error < 1e-6 else 'FAIL'}")

    # ------------------------------------------------------------------
    # 3. Simulation-based calibration on a small model.  Each
    # replication draws truth from the prior, simulates a season, fits
    # it, and ranks the truth among the posterior draws; correct
    # software yields uniform ranks.  (The acceptance suite runs this
    # at full size; here a 2-athlete model keeps the loop ~2 minutes.)
    print("\n=== Oracle 3: simulation-based calibration (40 replications) ===")
    report = sbc(
        ModelSpec(S=2, T=1, Z=4),
        SynthConfig(n_athletes=2, n_stages=1, schedule={1: ("individual", "sprint")}),
        replications=40,
        sampler_cfg=SamplerConfig(n_chains=1, burn_in=300, kept_iterations=1200, thin=2),
        seed=0,
    )
    print(f"  {report.replications} replications, {report.n_pooled} pooled draws each, "
          f"{len(report.failures)} failures")
    print(f"  rank uniformity: min p-value {report.p_values.min():.4f} "
          f"(Bonferroni alpha {report.alpha:.2e}) -> "
          f"{'OK' if report.uniform_ok else 'REJECTED'}")
    print(f"  mean 90%-interval coverage: {report.coverage90.mean():.3f} (nominal 0.90)")
    print(f"  mean 50%-interval coverage: {report.coverage50.mean():.3f} (nominal 0.50)")
    print(f"  every 90% coverage count in its Binomial({report.replications}, 0.9) band: "
          f"{'yes' if report.coverage90_ok() else 'NO'}")
    ok = report.uniform_ok and report.coverage90_ok()
    print(f"  verdict: {'calibrated' if ok else 'MISCALIBRATED'} "
          f"(40 replications is a smoke test; the acceptance suite runs 100)")


if __name__ == "__main__":
    main()
