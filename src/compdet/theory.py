"""Closed-form error exponents and finite-M probability bound evaluators.

All exponents are in nats, normalized by the hypothesis count M, and are
functions of the transmission rate beta = T/M, the compression rate
alpha = N/M, and SNR:

    ML on matched-filter outputs:  (beta/2)           * log(1 + SNR/2)
    compressed ML:                 ((beta-1+alpha)/2) * log(1 + alpha*SNR/2)
    modified RDD:                  ((beta-1)/2)       * log(1 + alpha*SNR/2)

The finite-M evaluators compute the non-asymptotic upper/lower bounds whose
normalized logarithms converge to these exponents: a union/Gallager bound
integrated against the chi-squared law of the whitened column distances for
the upper side, and a Gaussian-tail lower bound with an explicit constant
c(eps) for the lower side.  Upper values above 1 are vacuous but valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfc

from .errors import DomainError

DEFAULT_EPSILON = 0.1


def _require(cond: bool, msg: str):
    if not cond:
        raise DomainError(msg)


# ---------------------------------------------------------------------------
# Asymptotic exponents


def exponent_mf(beta: float, snr: float) -> float:
    """Error exponent of ML on the matched-filter outputs v (the optimal exponent).

    The rule is argmax_j (v_j - ||s_j||^2/2) (detectors.detect_mfml).  The
    plain argmax_j v_j (detect_mf) has a smaller pairwise Chernoff rate,
    (1/2) log(1 + SNR/(2+SNR)) per sample, and is not covered.
    """
    _require(beta >= 1, f"beta must be >= 1, got {beta}")
    _require(snr >= 0, f"snr must be >= 0, got {snr}")
    return (beta / 2) * math.log1p(snr / 2)


def exponent_ml(beta: float, alpha: float, snr: float) -> float:
    """Compressed-statistic ML error exponent; equals exponent_mf at alpha=1."""
    _require(beta >= 1, f"beta must be >= 1, got {beta}")
    _require(0 < alpha <= 1, f"alpha must be in (0, 1], got {alpha}")
    _require(snr >= 0, f"snr must be >= 0, got {snr}")
    return ((beta - 1 + alpha) / 2) * math.log1p(alpha * snr / 2)


def exponent_mrdd(beta: float, alpha: float, snr: float) -> float:
    """Modified-RDD error exponent; strictly below exponent_ml for alpha > 0."""
    _require(beta >= 1, f"beta must be >= 1, got {beta}")
    _require(0 < alpha <= 1, f"alpha must be in (0, 1], got {alpha}")
    _require(snr >= 0, f"snr must be >= 0, got {snr}")
    return ((beta - 1) / 2) * math.log1p(alpha * snr / 2)


@dataclass(frozen=True)
class TheoryPoint:
    """The three exponents evaluated at one (beta, alpha, snr) triple."""

    beta: float
    alpha: float
    snr: float
    exponent_mf: float = field(init=False)
    exponent_ml: float = field(init=False)
    exponent_mrdd: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "exponent_mf", exponent_mf(self.beta, self.snr))
        object.__setattr__(self, "exponent_ml", exponent_ml(self.beta, self.alpha, self.snr))
        object.__setattr__(self, "exponent_mrdd", exponent_mrdd(self.beta, self.alpha, self.snr))


# ---------------------------------------------------------------------------
# Gaussian tail bounds


def q_function(x):
    """Standard normal tail probability Q(x); accepts scalars or arrays."""
    return 0.5 * erfc(np.asarray(x, dtype=float) / math.sqrt(2))


def q_lower_constant(epsilon: float) -> float:
    """The constant c(eps) in the exponential lower bound on Q.

    c(eps) = e^{1/(pi*eps+2)} / (2(1+eps)) * sqrt(eps*(pi*eps+2)/pi); it is
    below 1/2 for every eps > 0 and approaches 1/2 as eps grows.
    """
    _require(epsilon > 0, f"epsilon must be positive, got {epsilon}")
    pe = math.pi * epsilon + 2
    return math.exp(1 / pe) / (2 * (1 + epsilon)) * math.sqrt(epsilon * pe / math.pi)


# ---------------------------------------------------------------------------
# Finite-M bounds


def gamma_half_ratio(k: int) -> float:
    """Gamma(k/2) / Gamma((k+1)/2) for integer k >= 0, by exact recursion.

    R(1) = sqrt(pi), R(2) = 2/sqrt(pi), R(k) = R(k-2) * (k-2)/(k-1); R(0) is
    infinite (Gamma(0) diverges).
    """
    _require(k >= 0, f"need k >= 0, got {k}")
    if k == 0:
        return math.inf
    if k % 2:
        r, start = math.sqrt(math.pi), 1
    else:
        r, start = 2 / math.sqrt(math.pi), 2
    for i in range(start, k, 2):
        r *= i / (i + 1)
    return r


def _check_bound_args(m: int, t: int, snr: float, epsilon: float):
    _require(m >= 2, f"need at least two hypotheses, got {m}")
    _require(t >= m, f"need t >= m, got t={t}, m={m}")
    _require(snr >= 0, f"snr must be >= 0, got {snr}")
    _require(epsilon > 0, f"epsilon must be positive, got {epsilon}")


def _check_compressed_args(m: int, n: int, t: int, mu: float, snr: float, epsilon: float):
    _check_bound_args(m, t, snr, epsilon)
    _require(1 <= n <= m, f"need 1 <= n <= m, got n={n}, m={m}")
    _require(0 <= mu < 1, f"coherence must be in [0, 1), got {mu}")


def finite_bounds_mf(m: int, t: int, snr: float, epsilon: float = DEFAULT_EPSILON) -> tuple:
    """(upper, lower) on the error probability of ML on the matched-filter outputs.

    The rule bounded is argmax_j (v_j - ||s_j||^2/2) (detectors.detect_mfml),
    not the plain argmax_j v_j, which exceeds the upper side at finite M.

    upper = (M-1) (1 + SNR/2)^{-T/2}
    lower = c(eps) (1 + (1+eps) SNR/2)^{-T/2}
    """
    _check_bound_args(m, t, snr, epsilon)
    upper = (m - 1) * (1 + snr / 2) ** (-t / 2)
    lower = q_lower_constant(epsilon) * (1 + (1 + epsilon) * snr / 2) ** (-t / 2)
    return upper, lower


def finite_bounds_ml(m: int, n: int, t: int, mu: float, snr: float, epsilon: float = DEFAULT_EPSILON) -> tuple:
    """(upper, lower) on the compressed-ML error probability at finite M.

    With alpha = N/M and T - M + N chi-squared degrees of freedom:
    upper = M (1 + alpha SNR (1-mu)/2)^{-(T-M+N)/2}
    lower = c(eps) (1 + (1+eps) alpha SNR (1+mu)/2)^{-(T-M+N)/2}
    """
    _check_compressed_args(m, n, t, mu, snr, epsilon)
    alpha = n / m
    half_dof = (t - m + n) / 2
    upper = m * (1 + alpha * snr * (1 - mu) / 2) ** -half_dof
    lower = q_lower_constant(epsilon) * (1 + (1 + epsilon) * alpha * snr * (1 + mu) / 2) ** -half_dof
    return upper, lower


def log_finite_bounds_ml(m: int, n: int, t: int, mu: float, snr: float, epsilon: float = DEFAULT_EPSILON) -> tuple:
    """(log upper, log lower) of finite_bounds_ml, through log1p.

    Finite where those bounds underflow to 0.0 (already at M = 1024, T = 2048, SNR = 2).
    """
    _check_compressed_args(m, n, t, mu, snr, epsilon)
    alpha = n / m
    half_dof = (t - m + n) / 2
    log_upper = math.log(m) - half_dof * math.log1p(alpha * snr * (1 - mu) / 2)
    log_lower = math.log(q_lower_constant(epsilon)) - half_dof * math.log1p(
        (1 + epsilon) * alpha * snr * (1 + mu) / 2)
    return log_upper, log_lower


def finite_bounds_mrdd(m: int, n: int, t: int, mu: float, snr: float, epsilon: float = DEFAULT_EPSILON) -> tuple:
    """(upper, lower) on the modified-RDD error probability at finite M.

    The chi-squared reduction here has only T - M degrees of freedom, and the
    upper bound carries the prefactor
    f(M) = M sqrt(1/(2 pi alpha (1-mu) SNR)) * Gamma((T-M)/2)/Gamma((T-M+1)/2).
    At T = M the prefactor diverges and the bound is vacuous (exponent 0).
    """
    _check_compressed_args(m, n, t, mu, snr, epsilon)
    alpha = n / m
    half_dof = (t - m) / 2
    if snr == 0:
        prefactor = math.inf
    else:
        prefactor = (
            m
            * math.sqrt(1 / (2 * math.pi * alpha * (1 - mu) * snr))
            * gamma_half_ratio(t - m)
        )
    upper = prefactor * (1 + (1 - mu) * alpha * snr / 2) ** -half_dof
    lower = q_lower_constant(epsilon) * (1 + (1 + epsilon) * (1 + mu) * alpha * snr / 2) ** -half_dof
    return upper, lower


# ---------------------------------------------------------------------------
# Limiting behavior of the exponents


@dataclass(frozen=True)
class AsymptoticsReport:
    """Finite-difference diagnostics of how the exponents scale.

    - ml_per_alpha / mrdd_per_alpha: E(alpha)/alpha on a dyadic alpha grid
      (bounded ratios witness the linear small-alpha behavior).
    - beta margin: the exponents are exactly affine in beta; the measured
      per-unit-beta increment is compared against (1/2) log(1 + alpha SNR/2).
    - quadratic fit: log-log slope of E at (alpha, beta) = (eps, 1+eps),
      which approaches 2 as eps shrinks.
    - snr slopes: E/SNR on a small-SNR grid; the Taylor coefficients of the
      closed forms are alpha*(beta-1+alpha)/4 and alpha*(beta-1)/4.
    """

    point: TheoryPoint
    alpha_grid: tuple
    ml_per_alpha: tuple
    mrdd_per_alpha: tuple
    beta_increment_measured: float
    beta_increment_closed_form: float
    eps_grid: tuple
    ml_quadratic_slope: float
    mrdd_quadratic_slope: float
    snr_grid: tuple
    ml_snr_slopes: tuple
    mrdd_snr_slopes: tuple
    ml_snr_slope_taylor: float
    mrdd_snr_slope_taylor: float


def _loglog_slope(xs, ys) -> float:
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def exponent_scaling(point: TheoryPoint) -> AsymptoticsReport:
    """Measure how the exponents scale in alpha, beta, and SNR near a point."""
    beta, alpha, snr = point.beta, point.alpha, point.snr

    alpha_grid = (0.5, 0.25, 0.125)
    ml_per_alpha = tuple(exponent_ml(beta, a, snr) / a for a in alpha_grid)
    mrdd_per_alpha = tuple(exponent_mrdd(beta, a, snr) / a for a in alpha_grid)

    d_beta = 1e-3
    beta_inc = (exponent_ml(1 + d_beta, alpha, snr) - exponent_ml(1, alpha, snr)) / d_beta
    beta_closed = 0.5 * math.log1p(alpha * snr / 2)

    eps_grid = (0.25, 0.125, 0.0625)
    ml_quad = _loglog_slope(eps_grid, [exponent_ml(1 + e, e, snr) for e in eps_grid])
    mrdd_quad = _loglog_slope(eps_grid, [exponent_mrdd(1 + e, e, snr) for e in eps_grid])

    snr_grid = (1e-2, 1e-3)
    ml_snr = tuple(exponent_ml(beta, alpha, s) / s for s in snr_grid)
    mrdd_snr = tuple(exponent_mrdd(beta, alpha, s) / s for s in snr_grid)

    return AsymptoticsReport(
        point=point,
        alpha_grid=alpha_grid,
        ml_per_alpha=ml_per_alpha,
        mrdd_per_alpha=mrdd_per_alpha,
        beta_increment_measured=beta_inc,
        beta_increment_closed_form=beta_closed,
        eps_grid=eps_grid,
        ml_quadratic_slope=ml_quad,
        mrdd_quadratic_slope=mrdd_quad,
        snr_grid=snr_grid,
        ml_snr_slopes=ml_snr,
        mrdd_snr_slopes=mrdd_snr,
        ml_snr_slope_taylor=alpha * (beta - 1 + alpha) / 4,
        mrdd_snr_slope_taylor=alpha * (beta - 1) / 4,
    )
