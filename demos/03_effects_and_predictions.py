"""From posterior draws to athlete effects and race-day forecasts.

Fits a 6-athlete season and then puts the posterior to work: stage
baselines against observed accuracy, each athlete's form trajectory as
odds ratios, prone-vs-standing and race-type effects, posterior
predictive checks of stage totals, a forecast for one more sprint, and
an athlete's cumulative hit path across the season.

Run from the repository root (takes ~15 s):

    python demos/03_effects_and_predictions.py
"""

import numpy as np

from biathlon_bayes import (
    ModelSpec,
    SamplerConfig,
    SessionRecord,
    beta_trajectories,
    cumulative_hits,
    generate_synthetic,
    mu_summary,
    position_effects,
    predictive_draws,
    race_effects,
    run_chains,
    simulate_schedule,
    stage_totals_ppc,
)
from biathlon_bayes.model import ParameterState
from biathlon_bayes.synth import SynthConfig


def main() -> None:
    spec = ModelSpec(S=6, T=11)
    rng = np.random.default_rng(2)
    truth = ParameterState(
        mu=1.4 + np.cumsum(rng.normal(0.0, 0.12, spec.T)),
        beta_free=np.cumsum(rng.normal(0.0, 0.18, (spec.S - 1, spec.T)), axis=1),
        gamma_free=rng.normal(0.0, 0.25, spec.S),
        omega_free=rng.normal(0.0, 0.2, (spec.S, spec.Z - 1)),
        log_sigma=np.log([0.12, 0.18, 0.25, 0.2]),
    )
    dataset, _ = generate_synthetic(
        SynthConfig(n_athletes=spec.S, n_stages=spec.T, true_params=truth, seed=9)
    )
    athletes = dataset.athletes
    print(f"Season: {dataset.n_records} sessions from {dataset.n_athletes} athletes; "
          f"fitting...")

    samples = run_chains(
        spec, dataset,
        SamplerConfig(n_chains=2, burn_in=500, kept_iterations=2000, thin=2, seed=3),
    )

    # ------------------------------------------------------------------
    # Stage baselines: posterior expit(mu_t) vs the field's raw accuracy.
    print("\n=== Stage baseline hit probability (posterior vs observed) ===")
    print(f"  {'stage':>5} {'mean':>6} {'95% interval':>16} {'observed':>9}")
    for row in mu_summary(samples, dataset):
        print(f"  {row.stage:>5} {row.mean:>6.3f} "
              f"[{row.lower:.3f}, {row.upper:.3f}]   {row.observed:>8.3f}")

    # ------------------------------------------------------------------
    # Form trajectories: exp(beta) is the athlete's odds multiplier
    # relative to the stage baseline.  Show season start/middle/end.
    traj = beta_trajectories(samples)
    print("\n=== Athlete form (odds ratio vs field, geometric mean) ===")
    print(f"  {'athlete':<8} {'stage 1':>8} {'stage 6':>8} {'stage 11':>9}   trend")
    for s, athlete in enumerate(athletes):
        start, mid, end = (traj.or_geomean[s, t] for t in (0, 5, 10))
        trend = "improving" if end > start * 1.1 else (
            "fading" if end < start / 1.1 else "steady")
        print(f"  {athlete:<8} {start:>8.2f} {mid:>8.2f} {end:>9.2f}   {trend}")

    # ------------------------------------------------------------------
    # Position effects: odds ratio of prone vs the athlete's baseline
    # (standing is the exact reciprocal by construction).
    pos = position_effects(samples)
    print("\n=== Prone-shooting odds ratio (>1 = better prone) ===")
    for s, athlete in enumerate(athletes):
        print(f"  {athlete:<8} {pos.prone_or_median[s]:.2f} "
              f"[{pos.prone_or_lower[s]:.2f}, {pos.prone_or_upper[s]:.2f}]")

    # ------------------------------------------------------------------
    # Race-type effects: posterior mean odds ratios per athlete and race.
    race = race_effects(samples)
    print("\n=== Race-type odds ratios (posterior means) ===")
    print(f"  {'athlete':<8} " + " ".join(f"{rt[:9]:>10}" for rt in race.race_types))
    for s, athlete in enumerate(athletes):
        print(f"  {athlete:<8} "
              + " ".join(f"{race.or_mean[s, z]:>10.2f}" for z in range(spec.Z)))

    # ------------------------------------------------------------------
    # Posterior predictive check: do simulated stage totals cover what
    # actually happened?  (A systematic miss would mean a model defect.)
    # One joint set of replicates of the whole season feeds every check.
    joint = simulate_schedule(samples, dataset, seed=17)
    ppc = stage_totals_ppc(joint, dataset)
    print("\n=== Stage-total posterior predictive check ===")
    print(f"  {'stage':>5} {'observed':>9} {'95% predictive':>17} {'mid-p tail':>11}")
    misses = 0
    for t, summary in sorted(ppc.items()):
        inside = summary.lower <= summary.observed <= summary.upper
        misses += not inside
        print(f"  {t:>5} {summary.observed:>9.0f} "
              f"[{summary.lower:>6.0f}, {summary.upper:>6.0f}] {summary.tail_prob:>11.3f}"
              + ("" if inside else "  <- outside"))
    print(f"  {len(ppc) - misses}/{len(ppc)} stage totals inside their interval")

    # ------------------------------------------------------------------
    # Forecast: one more sprint after the season.  The model has no
    # stage 12, so the forecast conditions on the final stage's form.
    templates = [
        SessionRecord(a, 11, "sprint", p, race_seq=9, bout_seq=1, hits=0)
        for a in athletes
        for p in ("prone", "standing")
    ]
    draws = predictive_draws(samples, templates, dataset, seed=99)
    totals = draws.reshape(draws.shape[0], len(athletes), 2).sum(axis=2)
    print("\n=== Forecast: one more sprint (10 shots) at end-of-season form ===")
    print(f"  {'athlete':<8} {'mean hits':>9} {'P(clean race)':>14}")
    for s, athlete in enumerate(athletes):
        clean = float((totals[:, s] == 10).mean())
        print(f"  {athlete:<8} {totals[:, s].mean():>9.2f} {clean:>14.3f}")

    # ------------------------------------------------------------------
    # Cumulative path: one athlete's running hit total, race by race.
    athlete = athletes[0]
    path = cumulative_hits(joint, dataset, athlete)
    print(f"\n=== Cumulative hits for {athlete} (every 5th race) ===")
    print(f"  {'race':<26} {'observed':>8} {'predictive mean':>16} {'95% interval':>16}")
    checkpoints = list(range(0, len(path.races), 5)) + [len(path.races) - 1]
    for k in sorted(set(checkpoints)):
        stage, seq, rt = path.races[k]
        s = path.summaries[k]
        print(f"  stage {stage:>2} race {seq} {rt:<10} {s.observed:>8.0f} "
              f"{s.mean:>16.1f} [{s.lower:>6.0f}, {s.upper:>6.0f}]")


if __name__ == "__main__":
    main()
