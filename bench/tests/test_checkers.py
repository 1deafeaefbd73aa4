"""Tests of the benchmark's reference computations on cases with known answers.

Run with ``python3 -m pytest -q bench/tests``.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checkers  # noqa: E402


def _ar1(seed, chains, n, rho):
    return checkers.ar1_chains(np.random.default_rng(seed), (chains, n), rho)


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.8])
def test_bulk_ess_of_ar1_matches_closed_form(rho):
    # 4 chains x 4000 draws: the estimate's relative sd is a few percent
    chains = _ar1(1, 4, 4000, rho)
    want = 4 * checkers.ar1_ess(4000, rho)
    assert checkers.bulk_ess(chains) == pytest.approx(want, rel=0.12)
    assert checkers.mean_ess(chains) == pytest.approx(want, rel=0.12)


def test_ess_is_invariant_to_monotone_transforms_only_in_bulk():
    chains = _ar1(2, 4, 2000, 0.5)
    assert checkers.bulk_ess(np.exp(3 * chains)) == pytest.approx(checkers.bulk_ess(chains))


def test_tail_ess_of_iid_draws_is_near_the_draw_count():
    chains = _ar1(3, 4, 2000, 0.0)
    assert checkers.tail_ess(chains) == pytest.approx(8000, rel=0.15)


def test_rank_rhat_is_one_for_agreeing_chains():
    assert checkers.rank_rhat(_ar1(4, 4, 2000, 0.5)) < 1.01


def test_shifted_chains_are_flagged():
    chains = _ar1(5, 4, 2000, 0.5)
    chains[0] += 2.0
    assert checkers.rank_rhat(chains) > 1.1
    assert checkers.bulk_ess(chains) < 0.1 * checkers.bulk_ess(_ar1(5, 4, 2000, 0.5))


def test_scale_shift_is_flagged_by_the_folded_rhat():
    chains = _ar1(6, 4, 2000, 0.0)
    chains[0] *= 4.0
    assert checkers.rank_rhat(chains) > 1.1


def test_ess_rejects_too_short_chains():
    with pytest.raises(ValueError):
        checkers.bulk_ess(np.zeros((2, 3)))


def test_quadrature_without_data_is_the_prior():
    mean, sd = checkers.golden_quadrature([])
    assert mean == pytest.approx(0.0, abs=1e-12)
    assert sd == pytest.approx(1.0, rel=1e-9)


def test_quadrature_of_balanced_data_is_centred():
    # 5 hits out of 10 shots: the likelihood is symmetric about m = 0
    mean, sd = checkers.golden_quadrature([5, 0])
    assert mean == pytest.approx(0.0, abs=1e-12)
    assert 0.0 < sd < 1.0


def test_quadrature_matches_a_brute_force_sum():
    hits = [5, 4, 3]
    m = np.linspace(-12, 12, 2_000_001)
    logf = -0.5 * m * m + 12 * np.log(1 / (1 + np.exp(-m))) + 3 * np.log(1 / (1 + np.exp(m)))
    f = np.exp(logf - logf.max())
    mean = float((m * f).sum() / f.sum())
    sd = math.sqrt(float(((m - mean) ** 2 * f).sum() / f.sum()))
    got = checkers.golden_quadrature(hits)
    assert got[0] == pytest.approx(mean, abs=1e-9)
    assert got[1] == pytest.approx(sd, abs=1e-9)


def test_type1_quantile_picks_elements():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert checkers.type1_quantile(values, 0.0) == 1.0
    assert checkers.type1_quantile(values, 0.2) == 1.0
    assert checkers.type1_quantile(values, 0.21) == 2.0
    assert checkers.type1_quantile(values, 0.5) == 3.0
    assert checkers.type1_quantile(values, 1.0) == 5.0
    with pytest.raises(ValueError):
        checkers.type1_quantile([], 0.5)


def test_binomial_band_tails():
    from scipy import stats

    for r, p, alpha in ((20, 0.9, 1e-3), (45, 0.95, 1e-3), (454, 0.95, 1e-4)):
        lo, hi = checkers.binomial_band(r, p, alpha)
        assert stats.binom.cdf(lo - 1, r, p) <= alpha / 2 < stats.binom.cdf(lo, r, p)
        assert stats.binom.sf(hi, r, p) <= alpha / 2 < stats.binom.sf(hi - 1, r, p)


def test_binomial_band_at_twenty_replications():
    # 16 of 20 is a 1-in-8 event for a correct sampler: well inside
    lo, hi = checkers.binomial_band(20, 0.9, 0.01)
    assert lo <= 16 and hi == 20


def test_uniform_ranks_pass_and_piled_ranks_fail():
    rng = np.random.default_rng(7)
    assert checkers.uniform_ranks_pvalue(rng.integers(0, 200, 440), 199, 10) > 1e-3
    piled = rng.integers(0, 40, 440)
    assert checkers.uniform_ranks_pvalue(piled, 199, 10) < 1e-12
