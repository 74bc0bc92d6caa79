"""Distributional tooling: sampling, chi-squared checks, binomial intervals.

Includes the empirical check of the compressed-geometry distribution law:
for Gaussian ensembles the whitened squared distance between two frame
columns, (a_i - a_j)^T (A G^{-1} A^T)^{-1} (a_i - a_j), is an exact multiple
of a chi-squared variable with T - M + N degrees of freedom.  The scale is
energy^2 * ||(A A^T)^{-1/2} A (b_i - b_j)||^2 and is computed exactly from
the frame, so a KS test against the chi-squared CDF validates the law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import betaincinv, gammainc

from .detectors import whiten_from_cholesky
from .errors import DomainError, SingularCovariance, SingularGram
from .frames import Frame
from .model import ModelParams, RngLike, as_generator, draw_signals, gram_cholesky, gram_matrix

__all__ = [
    "KsReport",
    "chi2_cdf",
    "ks_statistic",
    "ks_critical_value",
    "pair_scale",
    "sample_pair_distance2",
    "wishart_projection_check",
    "clopper_pearson",
]

def chi2_cdf(x, dof: int):
    """Chi-squared CDF via the regularized lower incomplete gamma."""
    if dof < 1:
        raise DomainError(f"degrees of freedom must be positive, got {dof}")
    return gammainc(dof / 2.0, np.asarray(x, dtype=float) / 2.0)


def ks_statistic(samples: np.ndarray, cdf) -> float:
    """One-sample Kolmogorov-Smirnov statistic against a continuous CDF."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n == 0:
        raise DomainError("KS statistic needs at least one sample")
    f = np.asarray(cdf(x), dtype=float)
    grid = np.arange(1, n + 1) / n
    return float(max((grid - f).max(), (f - (grid - 1 / n)).max()))


def ks_critical_value(n: int, level: float = 0.01) -> float:
    """Asymptotic KS critical value c(level)/sqrt(n)."""
    if n < 1:
        raise DomainError(f"sample count must be positive, got {n}")
    if not 0 < level < 1:
        raise DomainError(f"test level must be in (0, 1), got {level}")
    return math.sqrt(-math.log(level / 2) / 2) / math.sqrt(n)


@dataclass(frozen=True)
class KsReport:
    """Outcome of one KS goodness-of-fit check at the 1% level."""

    n_samples: int
    ks_statistic: float
    critical_value_1pct: float
    passed: bool


def _check_pair(frame: Frame, pair: tuple) -> tuple:
    """The pair's two 1-based column indices; DomainError unless distinct and in 1..M."""
    i, j = pair
    for k in (i, j):
        if not 1 <= k <= frame.m:
            raise DomainError(f"column index {k} outside 1..{frame.m}")
    if i == j:
        raise DomainError("pair indices must be distinct")
    return i, j


def pair_scale(energy: float, frame: Frame, pair: tuple) -> float:
    """Exact chi-squared scale for a column pair: energy^2 * 2a(1 - g_ij), from A e_i and A e_j."""
    i, j = _check_pair(frame, pair)
    units = np.zeros((2, frame.m))
    units[[0, 1], [i - 1, j - 1]] = 1.0
    a_i, a_j = frame.apply(units)
    return energy**2 * 2.0 * frame.alpha * (1.0 - float(a_i @ a_j))


def sample_pair_distance2(
    params: ModelParams, frame: Frame, pair: tuple, n_samples: int, rng: RngLike
) -> np.ndarray:
    """Sample the whitened squared column distance over fresh ensembles.

    Each sample draws a new T x M Gaussian signal matrix, whitens frame
    columns i and j (only those) with the trial kernel's whiten_from_cholesky,
    and evaluates the squared whitened column distance,
    (a_i - a_j)^T C^{-1} (a_i - a_j) with C = A G^{-1} A^T.  Degenerate draws
    (singular G or C) are redrawn from the same generator; they have
    probability zero and only occur through floating point accidents.
    """
    i, j = _check_pair(frame, pair)
    gen = as_generator(rng)
    out = np.empty(n_samples)
    k = 0
    while k < n_samples:
        signals = draw_signals(params, gen)
        try:
            chol_g = gram_cholesky(gram_matrix(signals))
            columns = whiten_from_cholesky(frame, chol_g, [i - 1, j - 1]).columns
        except (SingularGram, SingularCovariance):
            continue
        d = columns[:, 0] - columns[:, 1]
        out[k] = d @ d
        k += 1
    return out


def wishart_projection_check(
    params: ModelParams,
    frame: Frame,
    pair: tuple,
    n_samples: int,
    rng: RngLike,
    dof: Optional[int] = None,
) -> KsReport:
    """KS test of the rescaled whitened pair distance against chi-squared.

    dof defaults to the exact value T - M + N; passing something else turns
    the check into a power/control experiment that is expected to fail.
    """
    samples = sample_pair_distance2(params, frame, pair, n_samples, rng)
    scale = pair_scale(params.energy, frame, pair)
    if dof is None:
        dof = params.t - params.m + frame.n
    stat = ks_statistic(samples / scale, lambda x: chi2_cdf(x, dof))
    crit = ks_critical_value(n_samples, level=0.01)
    return KsReport(
        n_samples=n_samples,
        ks_statistic=stat,
        critical_value_1pct=crit,
        passed=stat < crit,
    )


def clopper_pearson(errors: int, trials: int, level: float = 0.95) -> tuple:
    """Exact two-sided binomial confidence interval via Beta quantiles."""
    if not 0 <= errors <= trials or trials < 1:
        raise DomainError(f"need 0 <= errors <= trials, got {errors}/{trials}")
    if not 0 < level < 1:
        raise DomainError(f"confidence level must be in (0, 1), got {level}")
    tail = (1.0 - level) / 2.0
    lo = 0.0 if errors == 0 else float(betaincinv(errors, trials - errors + 1, tail))
    hi = 1.0 if errors == trials else float(betaincinv(errors + 1, trials - errors, 1.0 - tail))
    return lo, hi
