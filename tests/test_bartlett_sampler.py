"""The Bartlett draw of specs with a compressed rule, gated against the direct draw.

A spec with ml, mrdd or rdd draws each trial's Cholesky factor C of G and v
given C (harness._draw_bartlett), not the T x M signal matrix.  Its error
rates must match those of the direct draw, one trial at a time
(test_trial_kernel.reference_trial_counts).  Each gate is a pooled
two-proportion z-test at a two-sided level of 1e-3 per rule, with the trial
counts and seeds fixed here.  The direct sides of the M=8 and M=256 gates are
the direct sides of test_conditional_sampler.py's gates, computed once.

The KS check tests the law of the factor alone: at c3's config the whitened
pair distance from Bartlett factors must follow T - M + N degrees of freedom.
"""

import numpy as np
import pytest

from compdet import harness, stats
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


def test_bartlett_factors_give_the_wishart_projection_law():
    # c3's config and pair: (a_i - a_j)^T (A G^{-1} A^T)^{-1} (a_i - a_j) over
    # Bartlett factors is pair_scale times chi^2_{T-M+N}; T - M is rejected.
    params = ModelParams.from_snr(m=16, t=32, snr=1.0)
    spec = harness.ExperimentSpec(m=16, t=32, n=5, snr=1.0, trials=1, detectors=("ml",))
    frame, samples, pair = harness.build_frame_for(spec), 2000, (1, 2)
    _, chol, _ = harness._draw_bartlett(2005, params, np.arange(samples), 0,
                                        np.ones(samples, dtype=np.int64),
                                        harness._bartlett_work(samples, params))
    columns = harness.whiten_from_cholesky(frame, chol, [pair[0] - 1, pair[1] - 1]).columns
    d = columns[..., 0] - columns[..., 1]
    scaled = (d * d).sum(axis=-1) / stats.pair_scale(params.energy, frame, pair)
    critical = stats.ks_critical_value(samples, LEVEL)
    exact = stats.ks_statistic(scaled, lambda x: stats.chi2_cdf(x, params.t - params.m + frame.n))
    wrong = stats.ks_statistic(scaled, lambda x: stats.chi2_cdf(x, params.t - params.m))
    assert exact < critical < wrong, (exact, critical, wrong)
