"""Exponent formulas, finite-M bounds, and tail-bound sandwich tests.

Expected values below were frozen from independent high-precision evaluation
of the closed forms (and, for slopes, from finite differencing the exponent
functions themselves).
"""

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.special import gammaln

from compdet import detectors, frames, gf2m, harness, model, theory
from compdet.errors import DomainError
from compdet.model import ModelParams
from compdet.rng import RngStream
from compdet.stats import clopper_pearson


# --- exponents ---

def test_exponent_mf_values():
    assert theory.exponent_mf(1, 0) == 0.0
    assert abs(theory.exponent_mf(2, 2) - math.log(2)) < 1e-15
    assert abs(theory.exponent_mf(2, 6) - math.log(4)) < 1e-15


def test_exponent_ml_values():
    assert abs(theory.exponent_ml(2, 1, 2) - math.log(2)) < 1e-15
    assert abs(theory.exponent_ml(2, 0.5, 2) - 0.3040988310811233) < 1e-12
    assert abs(theory.exponent_ml(1, 0.5, 2) - 0.1013662770270411) < 1e-12


def test_exponent_mrdd_values():
    assert theory.exponent_mrdd(1, 0.5, 10) == 0.0
    assert abs(theory.exponent_mrdd(2, 0.5, 2) - 0.2027325540540822) < 1e-12
    mrdd_full = theory.exponent_mrdd(2, 1, 2)
    assert abs(mrdd_full - 0.34657359027997264) < 1e-12
    assert mrdd_full < theory.exponent_mf(2, 2)  # compression-free mRDD still loses


def test_exponent_domain_errors():
    with pytest.raises(DomainError):
        theory.exponent_mf(0.5, 1)
    with pytest.raises(DomainError):
        theory.exponent_ml(2, 0.0, 1)
    with pytest.raises(DomainError):
        theory.exponent_ml(2, 1.5, 1)
    with pytest.raises(DomainError):
        theory.exponent_mrdd(2, 0.5, -1)
    with pytest.raises(DomainError):
        theory.exponent("mf", 2, 0.5, 1)  # plain argmax: no closed form


def test_exponent_ordering_grid():
    for beta in (1.0, 1.5, 2.0, 4.0):
        for alpha in (0.125, 0.25, 0.5, 1.0):
            for snr in (0.5, 2.0, 8.0):
                e_mf = theory.exponent_mf(beta, snr)
                e_ml = theory.exponent_ml(beta, alpha, snr)
                e_mr = theory.exponent_mrdd(beta, alpha, snr)
                assert e_mf >= e_ml >= e_mr
                if alpha < 1:
                    assert e_mf > e_ml
                if beta > 1:
                    assert e_ml > e_mr


def test_exponents_monotone_in_arguments():
    assert theory.exponent_mf(3, 2) > theory.exponent_mf(2, 2)
    assert theory.exponent_mf(2, 3) > theory.exponent_mf(2, 2)
    assert theory.exponent_ml(2, 0.5, 2) > theory.exponent_ml(2, 0.25, 2)
    assert theory.exponent_ml(3, 0.5, 2) > theory.exponent_ml(2, 0.5, 2)


def test_theory_point_carries_exponents():
    pt = theory.TheoryPoint(beta=2.0, alpha=0.5, snr=2.0)
    assert abs(pt.exponent_ml - 0.3040988310811233) < 1e-12
    assert pt.exponent_mf >= pt.exponent_ml > pt.exponent_mrdd


# --- exponent scaling diagnostics ---

def test_small_snr_slopes_match_finite_difference_oracle():
    # Finite differences of the exponent formulas at SNR = 1e-3 (frozen from
    # the oracle): E/SNR -> alpha*(beta-1+alpha)/4 and alpha*(beta-1)/4.
    rep = theory.exponent_scaling(theory.TheoryPoint(beta=2.0, alpha=0.5, snr=2.0))
    ml_at_1e3 = rep.ml_snr_slopes[1]
    mrdd_at_1e3 = rep.mrdd_snr_slopes[1]
    assert abs(ml_at_1e3 - 0.18747656640558033) < 1e-12
    assert abs(mrdd_at_1e3 - 0.1249843776037202) < 1e-12
    assert abs(ml_at_1e3 / rep.ml_snr_slope_taylor - 1) < 0.01
    assert abs(mrdd_at_1e3 / rep.mrdd_snr_slope_taylor - 1) < 0.01


def test_per_alpha_ratios_bounded():
    rep = theory.exponent_scaling(theory.TheoryPoint(beta=2.0, alpha=0.5, snr=2.0))
    for ratio in rep.ml_per_alpha + rep.mrdd_per_alpha:
        assert 0 < ratio < theory.exponent_mf(2.0, 2.0) / 0.1


def test_beta_increment_is_exactly_affine():
    rep = theory.exponent_scaling(theory.TheoryPoint(beta=2.0, alpha=0.5, snr=2.0))
    assert abs(rep.beta_increment_measured - rep.beta_increment_closed_form) < 1e-9
    assert abs(rep.beta_increment_closed_form - 0.5 * math.log(1.5)) < 1e-15


def test_quadratic_loglog_slopes():
    # Frozen from the oracle: at snr = 0.5 the dyadic log-log fit slope is
    # 1.9836; it approaches 2 from below as the grid shrinks.
    rep = theory.exponent_scaling(theory.TheoryPoint(beta=2.0, alpha=0.5, snr=0.5))
    assert abs(rep.ml_quadratic_slope - 1.98362) < 5e-4
    assert abs(rep.mrdd_quadratic_slope - rep.ml_quadratic_slope) < 1e-12


# --- Q-function bounds ---

def test_q_values():
    assert abs(float(theory.q_function(0.0)) - 0.5) < 1e-15
    assert abs(float(theory.q_function(1.0)) - 0.15865525393145707) < 1e-12


def test_q_lower_constant_values():
    c_half = theory.q_lower_constant(0.5)
    expect = math.exp(1 / (math.pi / 2 + 2)) / 3 * math.sqrt((0.5 / math.pi) * (math.pi / 2 + 2))
    assert abs(c_half - expect) < 1e-15


def test_q_lower_constant_below_half():
    for eps in np.geomspace(1e-4, 100, 60):
        assert theory.q_lower_constant(float(eps)) <= 0.5


def q_bounds(x, eps):
    # c(eps) e^{-(1+eps) x^2/2} <= Q(x) <= e^{-x^2/2} / (x sqrt(2 pi)) for x > 0.
    lower = theory.q_lower_constant(eps) * math.exp(-(1 + eps) * x * x / 2)
    upper = math.exp(-x * x / 2) / (x * math.sqrt(2 * math.pi))
    return lower, float(theory.q_function(x)), upper


def test_q_bounds_sandwich_grid():
    gen = np.random.default_rng(8)
    xs = gen.uniform(1e-9, 6.0, 10_000)
    eps = gen.uniform(1e-9, 2.0, 10_000)
    for x, e in zip(xs, eps):
        lo, q, hi = q_bounds(float(x), float(e))
        assert lo <= q <= hi


@hypothesis.given(
    st.floats(min_value=1e-6, max_value=6.0),
    st.floats(min_value=1e-6, max_value=2.0),
)
def test_q_bounds_sandwich_property(x, eps):
    lo, q, hi = q_bounds(x, eps)
    assert lo <= q <= hi


def test_q_bounds_domain():
    for eps in (0.0, -0.5):
        with pytest.raises(DomainError):
            theory.q_lower_constant(eps)


# --- pairwise union bound ---

def test_gallager_union_dominates_conditional_error():
    # Fix one ensemble; the union of pairwise bounds must dominate the
    # conditional ML error rate over fresh noise draws.
    frame = frames.build_group_hadamard(gf2m.FieldCtx.standard(3), 7)
    p = ModelParams.from_snr(m=8, t=16, snr=4.0)
    signals = model.draw_signals(p, RngStream(41, 0))
    gram = model.gram_matrix(signals)
    wf = detectors.whiten_from_cholesky(frame, np.linalg.cholesky(gram))
    h = wf.columns
    # The rho = 1 union over competitors: sum_j exp(-d_j^2 / (8 sigma^2)).
    union = sum(math.exp(-float(np.sum((h[:, j] - h[:, 0]) ** 2)) / (8 * p.sigma**2))
                for j in range(1, 8))
    trials = 10_000
    z = np.array([RngStream(41, k + 1).generator().standard_normal(p.t) for k in range(trials)])
    chol = np.broadcast_to(np.linalg.cholesky(gram), (trials, 8, 8))
    u = frame.apply(harness.cho_solve(chol, (signals[:, 0] + p.sigma * z) @ signals))
    errs = sum(detectors.detect_ml_whitened(wf, u_k) != 1 for u_k in u)
    p_hat = errs / trials
    lo, hi = clopper_pearson(errs, trials)
    assert p_hat <= union + 3 * (hi - lo)


# --- gamma ratio ---

def test_gamma_half_ratio_against_lgamma():
    for k in range(1, 200):
        exact = math.exp(gammaln(k / 2) - gammaln((k + 1) / 2))
        assert abs(theory.gamma_half_ratio(k) - exact) < 1e-12
    assert theory.gamma_half_ratio(0) == math.inf


def test_gamma_half_ratio_gautschi_sandwich():
    for k in range(2, 200):
        # Gautschi's inequality: sqrt(2/k) <= Gamma(k/2) / Gamma((k+1)/2) <= sqrt(2/(k-1)).
        assert math.sqrt(2 / k) <= theory.gamma_half_ratio(k) <= math.sqrt(2 / (k - 1))


# --- finite-M bounds ---

def test_finite_bounds_ml_values():
    upper, lower = theory.finite_bounds("ml", 8, 7, 16, 1 / 7, 2.0, epsilon=1.0)
    assert abs(upper - 0.12031080200126874) < 1e-15
    c1 = theory.q_lower_constant(1.0)
    assert abs(lower - c1 * 3.0**-7.5) < 1e-15
    # default-epsilon lower bound, frozen from direct evaluation
    _, lower01 = theory.finite_bounds("ml", 8, 7, 16, 1 / 7, 2.0)
    assert abs(lower01 - 0.0007281530249817637) < 1e-15


def test_finite_bounds_ml_zero_snr():
    upper, lower = theory.finite_bounds("ml", 8, 7, 16, 1 / 7, 0.0)
    assert upper == 8.0
    assert abs(lower - theory.q_lower_constant(0.1)) < 1e-15


def test_finite_bounds_mrdd_values():
    upper, _ = theory.finite_bounds("mrdd", 8, 7, 16, 1 / 7, 2.0)
    f8 = 8 * math.sqrt(1 / (2 * math.pi * (7 / 8) * (6 / 7) * 2.0)) * theory.gamma_half_ratio(8)
    assert abs(upper - f8 * 1.75**-4) < 1e-15
    assert abs(f8 - 1.3441923545521788) < 1e-12


def test_finite_bounds_mrdd_beta_one_vacuous():
    upper, lower = theory.finite_bounds("mrdd", 8, 7, 8, 1 / 7, 2.0)
    assert upper == math.inf  # prefactor diverges, exponential factor is 1
    assert abs(lower - theory.q_lower_constant(0.1)) < 1e-15


def test_finite_bounds_mrdd_zero_coherence_collapse():
    # As mu -> 0 the two exponential factors coincide at (1 + a*SNR/2)^-(T-M)/2
    # once the lower-bound slack epsilon is taken to zero.
    m, n, t, snr = 8, 7, 16, 2.0
    alpha = n / m
    upper, lower = theory.finite_bounds("mrdd", m, n, t, 0.0, snr, epsilon=1e-12)
    factor = (1 + alpha * snr / 2) ** (-(t - m) / 2)
    f_m = m * math.sqrt(1 / (2 * math.pi * alpha * snr)) * theory.gamma_half_ratio(t - m)
    assert abs(upper - f_m * factor) < 1e-12
    assert abs(lower / theory.q_lower_constant(1e-12) - factor) < 1e-9


def test_finite_bounds_mf_values():
    upper, _ = theory.finite_bounds("mfml", 2, None, 2, None, 2.0)
    assert abs(upper - 0.5) < 1e-15
    upper, _ = theory.finite_bounds("mfml", 8, None, 32, None, 0.0)
    assert upper == 7.0
    upper, _ = theory.finite_bounds("mfml", 8, None, 32, None, 2.0)
    assert abs(upper - 7 * 2.0**-16) < 1e-18


def test_finite_bounds_domain_errors():
    with pytest.raises(DomainError):
        theory.finite_bounds("ml", 8, 7, 7, 0.1, 1.0)
    with pytest.raises(DomainError):
        theory.finite_bounds("ml", 8, 7, 16, 1.0, 1.0)
    with pytest.raises(DomainError):
        theory.finite_bounds("mrdd", 8, 7, 16, -0.1, 1.0)
    with pytest.raises(DomainError):
        theory.finite_bounds("mfml", 8, None, 32, None, 1.0, epsilon=0.0)
    with pytest.raises(DomainError):
        theory.finite_bounds("rdd", 8, 7, 16, 0.1, 1.0)


def test_bound_point_orders_pairs():
    for snr in (0.5, 2.0, 8.0):
        for upper, lower in (
            theory.finite_bounds("ml", 16, 5, 32, 0.6, snr),
            theory.finite_bounds("mrdd", 16, 5, 32, 0.6, snr),
            theory.finite_bounds("mfml", 16, None, 32, None, snr),
        ):
            if upper <= 1:
                assert lower <= upper


def test_bound_exponent_converges_to_ml_exponent():
    # -(1/m) log(upper) must rise monotonically to the closed-form exponent
    # as m doubles with kappa = 1 and beta = 2 fixed.
    beta, snr = 2.0, 2.0
    gaps = []
    prev = -math.inf
    for m in (8, 16, 32, 64, 128, 256, 512, 1024):
        n = m - 1
        mu = frames.coherence_bound(m, n)
        upper, _ = theory.finite_bounds("ml", m, n, int(beta * m), mu, snr)
        e = -math.log(upper) / m
        assert e > prev
        prev = e
        gaps.append(theory.exponent_ml(beta, 1.0, snr) - e)
    assert gaps[-1] < 0.015
    assert all(g > 0 for g in gaps)


@pytest.mark.parametrize("rule, m_underflow", [("mfml", 2048), ("ml", 2048), ("mrdd", 4096)])
def test_log_finite_bounds_match_and_survive_underflow(rule, m_underflow):
    for m, n, t, mu, snr in ((8, 7, 16, 1 / 7, 2.0), (16, 5, 32, 0.6, 0.5), (64, 63, 128, 1 / 63, 4.0)):
        upper, lower = theory.finite_bounds(rule, m, n, t, mu, snr)
        log_upper, log_lower = theory.log_finite_bounds(rule, m, n, t, mu, snr)
        assert abs(log_upper - math.log(upper)) < 1e-12 * max(1.0, abs(log_upper))
        assert abs(log_lower - math.log(lower)) < 1e-12 * max(1.0, abs(log_lower))
    # At M = m_underflow, T = 2M, SNR = 2 both power-form bounds underflow to 0.0
    # (mRDD's (T-M)/2 degrees of freedom keep it above 0.0 at M = 2048).
    m = m_underflow
    assert theory.finite_bounds(rule, m, m - 1, 2 * m, 1 / (m - 1), 2.0) == (0.0, 0.0)
    log_upper, log_lower = theory.log_finite_bounds(rule, m, m - 1, 2 * m, 1 / (m - 1), 2.0)
    assert math.isfinite(log_upper) and math.isfinite(log_lower) and log_lower < log_upper < -700


@pytest.mark.parametrize("rule", theory.BOUNDED_RULES)
@pytest.mark.parametrize("log2_m", [12, 16, 20])
def test_log_bound_window_brackets_exponent_at_large_m(rule, log2_m):
    # kappa = 1, beta = 2, SNR = 4: the window -(1/M) log(upper, lower) is finite
    # far past the power forms' underflow and holds the closed-form exponent.
    m = 2**log2_m
    n, t, snr = m - 1, 2 * m, 4.0
    log_upper, log_lower = theory.log_finite_bounds(rule, m, n, t, frames.coherence_bound(m, n), snr)
    lo, hi = -log_upper / m, -log_lower / m
    assert math.isfinite(lo) and math.isfinite(hi)
    assert lo <= theory.exponent(rule, t / m, n / m, snr) <= hi


def test_bound_convergence_script_reaches_m_4096(tmp_path):
    # The script's exponent window must stay finite past the M where the
    # probability bounds underflow, and bracket the ML exponent on every row.
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "bc.csv"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src")] + ([os.environ["PYTHONPATH"]] if "PYTHONPATH" in os.environ else [])))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "bound_convergence.py"), "--m-max", "4096",
         "--trials", "2000", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["m"]) for r in rows] == [2**k for k in range(3, 13)]
    for r in rows:
        lo, hi = float(r["exp_from_upper"]), float(r["exp_from_lower"])
        assert math.isfinite(lo) and math.isfinite(hi)
        assert lo <= theory.exponent_ml(2.0, 1.0, 2.0) <= hi


def test_exponent_curves_script_smoke(tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src")] + ([os.environ["PYTHONPATH"]] if "PYTHONPATH" in os.environ else [])))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "exponent_curves.py"), "--points", "5",
         "--out-dir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # Each axis value maps to (beta, alpha, snr) around the defaults beta=2, alpha=0.5, SNR=4.
    points = {"alpha": lambda x: (2.0, x, 4.0), "beta": lambda x: (x, 0.5, 4.0),
              "snr": lambda x: (2.0, 0.5, x), "eps": lambda x: (1 + x, x, 4.0)}
    for axis, point in points.items():
        with (tmp_path / f"exponents_vs_{axis}.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        for r in rows:
            e_mf, e_ml, e_mrdd = (float(r[f"exponent_{k}"]) for k in ("mf", "ml", "mrdd"))
            assert e_mf >= e_ml >= e_mrdd >= 0
            assert [e_mf, e_ml, e_mrdd] == [theory.exponent(rule, *point(float(r["axis_value"])))
                                            for rule in theory.BOUNDED_RULES]
