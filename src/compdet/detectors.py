"""Decision rules: matched-filter argmax and ML, ML on u, and the linear RDDs.

ML on the compressed statistic u is computed by whitening in general, and at
kappa = 1 as a rank-one correction of the matched-filter ML score.

Every rule takes either one trial (v, u, G 1 and diag G 1-D, a factor 2-D) and
returns an int, or a block of trials stacked along a leading axis and returns
an int array.  Each trial of a block goes through the same BLAS/LAPACK call
on the same operands as it would alone (matrix-vector products are
broadcast, never merged into one matrix product), so its scores and verdict
are bit-identical to the one-trial call.

Hypothesis indices returned by every detector are 1-based.  argmax takes
the first maximizer of the computed scores, so a tie in the computed scores
breaks toward the lowest index.  A tie that is exact only in real arithmetic
(at u = -a_k the largest correlations tie) is decided by rounding, and the
dense and Walsh forms of A^T u may pick different tied indices.  Ties have
probability zero under continuous noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .errors import SingularCovariance
from .frames import Frame


@dataclass(frozen=True)
class WhitenedFrame:
    """Whitened geometry of one trial, or of a block: C = A G^{-1} A^T factored once.

    columns holds L^{-1} A where C = L L^T, i.e. the hypothesis means of the
    whitened statistic; col_sqnorm caches their squared norms.  A block
    stacks each array along a leading trial axis.
    """

    chol_c: np.ndarray
    columns: np.ndarray
    col_sqnorm: np.ndarray


def _verdicts(scores: np.ndarray) -> int | np.ndarray:
    """1-based argmax over the last axis: an int for one trial, an array for a block."""
    k = np.argmax(scores, axis=-1) + 1
    return int(k) if k.ndim == 0 else k


def _matvec(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """mat @ vec for one vec or a stack of them, one BLAS gemv per vector."""
    return mat @ vec if vec.ndim == 1 else (mat @ vec[..., None])[..., 0]


def whiten_from_cholesky(frame: Frame, chol_g: np.ndarray, which=None) -> WhitenedFrame:
    """Whiten the frame given an existing lower Cholesky factor of G.

    Lets a caller that already factored the Gram matrix (e.g. to compute the
    compressed statistic) reuse that factor instead of refactoring.  chol_g
    may be a stack of factors; SingularCovariance is then raised if any
    trial's covariance is singular.  which, if given, lists the 0-based
    frame columns to whiten; the result then holds only those, in that order.
    """
    x = solve_triangular(chol_g, frame.entries.T, lower=True)
    cov = np.swapaxes(x, -1, -2) @ x
    try:
        chol_c = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance("compressed covariance is numerically singular") from exc
    entries = frame.entries if which is None else frame.entries[:, which]
    columns = solve_triangular(chol_c, entries, lower=True)
    return WhitenedFrame(chol_c=chol_c, columns=columns, col_sqnorm=(columns * columns).sum(axis=-2))


def detect_mf(v: np.ndarray) -> int | np.ndarray:
    """Matched filter: index of the largest inner product."""
    return _verdicts(v)


def detect_mfml(v: np.ndarray, col_sqnorm: np.ndarray) -> int | np.ndarray:
    """Maximum likelihood verdict from the matched-filter outputs.

    Given the signals, v = G e_k + w with w ~ N(0, sigma^2 G), so ML maximizes
    v_k - G_kk / 2, with G_kk = ||s_k||^2 passed as col_sqnorm.  This is the
    same verdict as argmin_k ||y - s_k||^2; the plain detect_mf drops the
    energy term.
    """
    return _verdicts(v - 0.5 * col_sqnorm)


def detect_ml_whitened(wf: WhitenedFrame, u: np.ndarray) -> int | np.ndarray:
    """ML verdict on u, given its whitened frame (see whiten_from_cholesky).

    Given the signals, u ~ N(a_k, sigma^2 C) with C = A G^{-1} A^T, so ML is
    the nearest column in the Mahalanobis metric of C.
    """
    u_w = solve_triangular(wf.chol_c, u[..., None], lower=True)[..., 0]
    # Minimizing ||u_w - h_k||^2 over k is the same as maximizing
    # h_k^T u_w - ||h_k||^2 / 2 after dropping the k-independent ||u_w||^2.
    scores = _matvec(np.swapaxes(wf.columns, -1, -2), u_w) - 0.5 * wf.col_sqnorm
    return _verdicts(scores)


def full_group_ml_scores(v: np.ndarray, g: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """ML scores on u = A G^{-1} v for a frame whose null space is the all-ones line.

    Precondition: N = M - 1 and A 1 = 0, which every group frame at kappa = 1
    meets (it holds every nonzero Walsh row; the row left out is mask 0).
    Then A^T C^{-1} A = G - g g^T / q with g = G 1 and q = 1^T G 1, so the
    scores a_k^T C^{-1} u - a_k^T C^{-1} a_k / 2 of detect_ml_whitened are

        (v_k - G_kk / 2) - (g_k / q) (1^T v - g_k / 2),

    the detect_mfml score with the all-ones direction projected out.  It
    reads g = G 1 and diag G, O(M) numbers that a caller gets in O(M^2) from
    G or from a factor of it, with no N x N covariance, Cholesky or
    triangular solve.
    """
    q = g.sum(axis=-1, keepdims=True)
    return (v - 0.5 * diag) - (g / q) * (v.sum(axis=-1, keepdims=True) - 0.5 * g)


def detect_ml_full_group(v: np.ndarray, g: np.ndarray, diag: np.ndarray) -> int | np.ndarray:
    """ML verdict on u at kappa = 1 (see full_group_ml_scores), from v, G 1 and diag G."""
    return _verdicts(full_group_ml_scores(v, g, diag))


def detect_mrdd(frame: Frame, u: np.ndarray) -> int | np.ndarray:
    """Linear detector: largest signed correlation a_k^T u."""
    return _verdicts(frame.adjoint(u))


def detect_rdd(frame: Frame, u: np.ndarray) -> int | np.ndarray:
    """Original reduced-dimensionality rule: largest |a_k^T u|."""
    return _verdicts(np.abs(frame.adjoint(u)))
