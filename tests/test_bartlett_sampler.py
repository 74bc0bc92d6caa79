"""The Bartlett draw of specs with a compressed rule, gated against the direct draw.

A spec with ml, mrdd or rdd draws each trial's Cholesky factor C of G and v
given C (harness._draw_bartlett), not the T x M signal matrix.  Its error
rates must match those of the direct draw, one trial at a time
(test_trial_kernel.reference_trial_counts).  Each gate is a pooled
two-proportion z-test at a two-sided level of 1e-3 per rule, with the trial
counts and seeds fixed here.  The direct sides of the M=8 and M=256 gates are
the direct sides of test_conditional_sampler.py's gates, computed once.

The KS checks test the law of the factor alone: at c3's config, and at a
kappa = 3 config drawn by the half fill, the whitened pair distance from
Bartlett factors must follow T - M + N degrees of freedom, at SNR 1 and,
for the half fill, at SNR 4.  The half fill's law gets a KS test of the
diagonal's squared sum.  Exact binomial tests of how often competitor 2
outscores truth 1, against Student-t tails, check the mfml, kappa = 1 ml and
mrdd scores on both fills (M = 8 and M = 256).  Levels and sizes are fixed
here.
"""

import math

import numpy as np
import pytest
from scipy.special import stdtr

from compdet import detectors, harness, stats
from compdet.model import ModelParams
from test_conditional_sampler import DIRECT_M256, DIRECT_M8, LEVEL, _errors, _two_sided_p
from test_trial_kernel import direct_counts


@pytest.mark.parametrize("bartlett,direct", [
    (dict(DIRECT_M8, seed=2001), DIRECT_M8),
    (dict(m=16, t=32, n=5, snr=2.0, trials=40_000, detectors=("ml", "mrdd"), seed=2003),
     dict(m=16, t=32, n=5, snr=2.0, trials=10_000, detectors=("ml", "mrdd"), seed=2002)),
    (dict(DIRECT_M256, trials=5_000, detectors=("ml", "mrdd"), seed=2004), DIRECT_M256),
], ids=["m8", "m16-kappa3", "m256"])
def test_bartlett_rates_match_the_direct_draw(bartlett, direct):
    spec, ref = harness.ExperimentSpec(**bartlett), harness.ExperimentSpec(**direct)
    errors = _errors(spec)
    direct_errors, _ = direct_counts(ref)
    for rule in spec.detectors:
        p = _two_sided_p(errors[rule], spec.trials, direct_errors[rule], ref.trials)
        assert p >= LEVEL, (rule, errors[rule], direct_errors[rule], p)


def _factors(params, seed: int, count: int, block: int = 25):
    """(C, v) of trials 0..count-1 with truth 1, drawn by _draw_bartlett a block at a time."""
    work, truth = harness._bartlett_work(block, params), np.ones(block, dtype=np.int64)
    for start in range(0, count, block):
        _, chol, v = harness._draw_bartlett(seed, params, np.arange(start, start + block), 0, truth,
                                            work)
        yield chol, v


def _assert_wishart_projection_law(m, t, n, seed, snr=1.0):
    # (a_i - a_j)^T (A G^{-1} A^T)^{-1} (a_i - a_j) over Bartlett factors is
    # pair_scale times chi^2_{T-M+N}; T - M is rejected.
    params = ModelParams.from_snr(m=m, t=t, snr=snr)
    spec = harness.ExperimentSpec(m=m, t=t, n=n, snr=snr, trials=1, detectors=("ml",))
    frame, samples, pair = harness.build_frame_for(spec), 2000, (1, 2)
    distances = []
    for chol, _ in _factors(params, seed, samples, block=500):
        columns = harness.whiten_from_cholesky(frame, chol, [pair[0] - 1, pair[1] - 1]).columns
        d = columns[..., 0] - columns[..., 1]
        distances.append((d * d).sum(axis=-1))
    scaled = np.concatenate(distances) / stats.pair_scale(params.energy, frame, pair)
    critical = stats.ks_critical_value(samples, LEVEL)
    exact = stats.ks_statistic(scaled, lambda x: stats.chi2_cdf(x, params.t - params.m + frame.n))
    wrong = stats.ks_statistic(scaled, lambda x: stats.chi2_cdf(x, params.t - params.m))
    assert exact < critical < wrong, (exact, critical, wrong)


def test_bartlett_factors_give_the_wishart_projection_law():
    _assert_wishart_projection_law(16, 32, 5, 2005)  # c3's config and pair, the full fill


def test_half_fill_factors_give_the_wishart_projection_law():
    m = 64  # kappa = 3
    assert m >= harness._HALF_FILL_MIN_M
    _assert_wishart_projection_law(m, 2 * m, 21, 2105)


def test_half_fill_factors_give_the_wishart_projection_law_at_snr_4():
    # E = 2, so a factor that misses E on part of C breaks the law.
    _assert_wishart_projection_law(64, 128, 21, 2105, snr=4.0)


def test_half_fill_diagonal_sums_to_its_chi2():
    # sum_i L_ii^2 is chi^2 with sum_i (T - i + 1) = M (2T - M + 1) / 2
    # degrees of freedom, ~98k here.  A shape off by a half in every term
    # ((T - i) / 2, or (T - i + 2) / 2 as from a 0-based i) moves the mean by
    # M, ~0.6 sd, which 1,000 sums resolve; dof - M is rejected.
    params = ModelParams.from_snr(m=256, t=512, snr=1.0)
    assert params.m >= harness._HALF_FILL_MIN_M
    samples, dof = 1000, params.m * (2 * params.t - params.m + 1) // 2
    sums = np.concatenate([(np.diagonal(chol, axis1=-2, axis2=-1) ** 2).sum(axis=-1)
                           for chol, _ in _factors(params, 2106, samples)]) / params.energy ** 2
    critical = stats.ks_critical_value(samples, LEVEL)
    exact = stats.ks_statistic(sums, lambda x: stats.chi2_cdf(x, dof))
    wrong = stats.ks_statistic(sums, lambda x: stats.chi2_cdf(x, dof - params.m))
    assert exact < critical < wrong, (exact, critical, wrong)


def _pair_wins(params, n, seed, trials, block):
    """How often competitor 2 outscores truth 1, per rule, over Bartlett trials at kappa = 1."""
    spec = harness.ExperimentSpec(m=params.m, t=params.t, n=n, snr=params.snr, trials=1,
                                  detectors=("ml",))
    frame = harness.build_frame_for(spec)
    wins = {"mfml": 0, "ml": 0, "mrdd": 0}
    for chol, v in _factors(params, seed, trials, block):
        energy = np.einsum("bij,bij->bi", chol, chol)
        g = (chol @ chol.sum(axis=-2)[:, :, None])[:, :, 0]
        u = frame.apply(harness.cho_solve(chol, v))
        for rule, scores in (("mfml", v - 0.5 * energy),
                             ("ml", detectors.full_group_ml_scores(v, g, energy)),
                             ("mrdd", frame.adjoint(u))):
            wins[rule] += int(np.count_nonzero(scores[:, 1] > scores[:, 0]))
    return wins


def _t_tail_interval_holds(wins, trials, snr, nu):
    """Whether P(t_nu > c sqrt(nu)), c^2 = SNR / 2, lies in wins' Clopper-Pearson interval."""
    p = stdtr(nu, -math.sqrt(snr / 2 * nu))
    lo, hi = stats.clopper_pearson(wins, trials, 1 - LEVEL)
    return lo <= p <= hi


def _exact_nu(params):
    """nu per rule: competitor 2 outscores truth 1 with probability P(t_nu > c sqrt(nu)).

    c^2 = SNR / 2; nu = T for the mfml score, T - 1 for kappa = 1 ML, which
    projects out the all-ones direction, and T - M + 1 for mrdd.  Each is
    checked by an exact binomial test (the Clopper-Pearson interval at
    1 - LEVEL).
    """
    return {"mfml": params.t, "ml": params.t - 1, "mrdd": params.t - params.m + 1}


def test_full_fill_pair_errors_follow_the_t_tail():
    # 200,000 trials resolve a shift of nu by one, which is rejected.
    snr, trials = 0.5, 200_000
    params = ModelParams.from_snr(m=8, t=16, snr=snr)
    assert params.m < harness._HALF_FILL_MIN_M
    wins = _pair_wins(params, 7, 2108, trials, block=250)
    for rule, nu in _exact_nu(params).items():
        assert _t_tail_interval_holds(wins[rule], trials, snr, nu), (rule, wins[rule], nu)
        for wrong in (nu - 1, nu + 1):
            assert not _t_tail_interval_holds(wins[rule], trials, snr, wrong), (rule, wrong)


def test_half_fill_pair_errors_follow_the_t_tail():
    snr, trials = 0.005, 8000
    params = ModelParams.from_snr(m=256, t=512, snr=snr)
    assert params.m >= harness._HALF_FILL_MIN_M
    wins = _pair_wins(params, 255, 2107, trials, block=16)
    for rule, nu in _exact_nu(params).items():
        assert _t_tail_interval_holds(wins[rule], trials, snr, nu), (rule, wins[rule], nu)
