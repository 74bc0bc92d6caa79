"""Detector decision-rule tests, including a brute-force density oracle."""

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from compdet import detectors, frames, gf2m, harness, model
from compdet.model import ModelParams
from compdet.rng import RngStream
from frame_fixtures import frame_from_entries


def frame_7x8():
    return frames.build_group_hadamard(gf2m.FieldCtx.standard(3), 7)


def frame_16x5():
    return frames.build_group_hadamard(gf2m.FieldCtx.standard(4), 5)


def whiten(frame, gram):
    return detectors.whiten_from_cholesky(frame, np.linalg.cholesky(gram))


def detect_ml(frame, gram, u):
    return detectors.detect_ml_whitened(whiten(frame, gram), u)


# --- matched filter ---

def test_mf_noiseless_orthogonal():
    assert detectors.detect_mf(np.array([4.0, 0.0, 0.0])) == 1


def test_mf_tie_breaks_low():
    assert detectors.detect_mf(np.array([3.0, 3.0, 1.0])) == 1
    assert detectors.detect_mf(np.array([1.0, 3.0, 3.0])) == 2


def test_mf_noiseless_random_ensembles():
    # At t/m = 16 the Gram matrix is strongly diagonally dominant, so the
    # noiseless statistic v = G e_1 peaks at 1 nearly always.
    p = ModelParams(m=8, t=128, energy=1.0)
    hits = 0
    for k in range(100):
        s = model.draw_signals(p, RngStream(17, k))
        g = model.gram_matrix(s)
        hits += detectors.detect_mf(g[:, 0]) == 1
    assert hits >= 99


@hypothesis.given(st.floats(min_value=1e-6, max_value=1e6))
def test_mf_positive_scale_invariance(c):
    v = np.array([0.3, -1.2, 0.9, 0.89])
    assert detectors.detect_mf(c * v) == detectors.detect_mf(v)


# --- maximum likelihood on the matched-filter outputs ---

def test_mfml_matches_nearest_signal_oracle():
    # ML on v given the signals is the nearest signal to y in Euclidean norm.
    p = ModelParams.from_snr(m=8, t=16, snr=2.0)
    wrong_mf = 0
    for k in range(500):
        trial = harness.draw_trial(p, RngStream(31, k), truth=k % 8 + 1)
        dist2 = ((trial.y[:, None] - trial.signals) ** 2).sum(axis=0)
        verdict = detectors.detect_mfml(trial.v, np.diag(trial.gram))
        assert verdict == int(np.argmin(dist2)) + 1
        wrong_mf += detectors.detect_mf(trial.v) != verdict
    assert wrong_mf > 0  # the energy term matters: plain argmax is a different rule


def test_mfml_tie_breaks_low():
    assert detectors.detect_mfml(np.array([3.0, 3.0, 1.0]), np.ones(3)) == 1
    assert detectors.detect_mfml(np.array([2.0, 3.0, 4.0]), np.array([0.0, 2.0, 4.0])) == 1


def test_ml_square_orthonormal_frame_equals_mfml():
    # With n = m the compressed statistic is an invertible map of v, so ML on
    # u and ML on v are the same rule.
    rng = np.random.default_rng(5)
    h, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    frame = frame_from_entries(h)
    p = ModelParams.from_snr(m=8, t=16, snr=2.0)
    for k in range(300):
        trial = harness.draw_trial(p, RngStream(37, k), frame=frame)
        assert detect_ml(frame, trial.gram, trial.u) == detectors.detect_mfml(
            trial.v, np.diag(trial.gram)
        )


# --- maximum likelihood ---

def test_ml_zero_distance():
    frame = frame_7x8()
    gram = np.eye(8) * 3.0
    for k in (1, 4, 8):
        assert detect_ml(frame, gram, frame.entries[:, k - 1].copy()) == k


def test_ml_identity_covariance_midpoint_tie():
    frame = frame_from_entries(np.eye(4))
    u = np.array([0.5, 0.5, 0.0, 0.0])
    assert detect_ml(frame, np.eye(4), u) == 1


def test_ml_agrees_with_explicit_density_oracle():
    # Brute force: evaluate the conditional Gaussian log-density of u under
    # every hypothesis with explicit inverse/determinant and take the argmax.
    frame = frame_7x8()
    p = ModelParams.from_snr(m=8, t=16, snr=4.0)
    for k in range(500):
        trial = harness.draw_trial(p, RngStream(23, k), frame=frame)
        cov = p.sigma**2 * frame.entries @ np.linalg.solve(trial.gram, frame.entries.T)
        cov_inv = np.linalg.inv(cov)
        logps = [
            -0.5 * (trial.u - frame.entries[:, j]) @ cov_inv @ (trial.u - frame.entries[:, j])
            for j in range(8)
        ]
        assert detect_ml(frame, trial.gram, trial.u) == int(np.argmax(logps)) + 1


def test_ml_square_orthonormal_frame_tracks_mf():
    # With n = m and orthonormal rows the compressed statistic loses nothing,
    # so ML on u and the matched-filter argmax agree except in rare
    # borderline draws where the exact rule corrects the heuristic.
    rng = np.random.default_rng(5)
    h, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    frame = frame_from_entries(h)
    p = ModelParams.from_snr(m=8, t=64, snr=8.0)
    agree = 0
    for k in range(1000):
        trial = harness.draw_trial(p, RngStream(29, k), frame=frame)
        agree += detect_ml(frame, trial.gram, trial.u) == detectors.detect_mf(trial.v)
    assert agree >= 990


# --- maximum likelihood on the full-group frame (kappa = 1) ---

def full_group_frame(m):
    return frames.build_group_hadamard(gf2m.FieldCtx.standard(m.bit_length() - 1), m - 1)


def whitened_ml_scores(frame, gram, u):
    wf = whiten(frame, gram)
    return wf.columns.T @ solve_triangular(wf.chol_c, u, lower=True) - 0.5 * wf.col_sqnorm


def test_full_group_frames_annihilate_the_all_ones_vector():
    # The precondition of full_group_ml_scores: N = M - 1 and A 1 = 0.
    for r in range(2, 11):
        frame = full_group_frame(2**r)
        assert frame.kappa == 1 and frame.n == frame.m - 1
        np.testing.assert_allclose(frame.entries.sum(axis=1), 0.0, atol=1e-12)


@pytest.mark.parametrize("m,snr", [(8, 1.0), (16, 0.5), (64, 0.12), (256, 0.03)])
@pytest.mark.parametrize("beta", [2, 1])
def test_full_group_ml_matches_whitened_oracle(m, snr, beta):
    # Same scores as whitening, so the same verdicts.  The oracle forms
    # u = A G^{-1} v and so carries a rounding error of order eps * cond(G):
    # negligible at beta = 2, up to ~1e-5 relative at beta = 1 and M = 256.
    frame = full_group_frame(m)
    p = ModelParams.from_snr(m=m, t=beta * m, snr=snr)
    eps = np.finfo(float).eps
    for k in range(200):
        trial = harness.draw_trial(p, RngStream(41, k), frame=frame, truth=k % m + 1)
        ref = whitened_ml_scores(frame, trial.gram, trial.u)
        new = detectors.full_group_ml_scores(trial.v, trial.gram)
        tol = 1e-12 + (eps * np.linalg.cond(trial.gram) if beta == 1 else 0.0)
        assert np.abs(new - ref).max() <= tol * np.abs(ref).max()
        assert detectors.detect_ml_full_group(trial.v, trial.gram) == int(np.argmax(ref)) + 1


@pytest.mark.parametrize("m,draws", [(8, 40), (16, 15)])
def test_full_group_ml_scores_exact_at_beta_one(m, draws):
    # At T = M, G is ill-conditioned; against 40-digit arithmetic on the same
    # G and v the rank-one scores stay at double precision.
    mpmath = pytest.importorskip("mpmath")
    frame = full_group_frame(m)
    p = ModelParams.from_snr(m=m, t=m, snr=1.0)
    for k in range(draws):
        trial = harness.draw_trial(p, RngStream(43, k), frame=frame)
        with mpmath.workdps(40):
            a = mpmath.matrix(frame.entries.tolist())
            g_inv = mpmath.matrix(trial.gram.tolist()) ** -1
            w = a.T * (a * g_inv * a.T) ** -1
            u = a * g_inv * mpmath.matrix(trial.v.tolist())
            exact = np.array([float((w[j, :] * u)[0] - (w[j, :] * a[:, j])[0] / 2)
                              for j in range(m)])
        new = detectors.full_group_ml_scores(trial.v, trial.gram)
        assert np.abs(new - exact).max() <= 1e-12 * np.abs(exact).max()


def test_full_group_ml_rank_one_term_matters():
    # Power control: dropping the rank-one term leaves the mfml score
    # v_k - G_kk / 2, a different rule that disagrees with ML on u.
    frame = full_group_frame(16)
    p = ModelParams.from_snr(m=16, t=32, snr=0.5)
    differ = 0
    for k in range(200):
        trial = harness.draw_trial(p, RngStream(41, k), frame=frame, truth=k % 16 + 1)
        ml = int(np.argmax(whitened_ml_scores(frame, trial.gram, trial.u))) + 1
        differ += detectors.detect_mfml(trial.v, np.diag(trial.gram)) != ml
    assert differ > 0


def test_whiten_matches_direct_covariance():
    frame = frame_16x5()
    p = ModelParams.from_snr(m=16, t=32, snr=1.0)
    trial = harness.draw_trial(p, RngStream(3, 0), frame=frame)
    wf = whiten(frame, trial.gram)
    cov = frame.entries @ np.linalg.solve(trial.gram, frame.entries.T)
    np.testing.assert_allclose(wf.chol_c @ wf.chol_c.T, cov, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(
        wf.col_sqnorm,
        np.diag(frame.entries.T @ np.linalg.solve(cov, frame.entries)),
        rtol=1e-9,
    )


def test_whitened_statistic_has_white_covariance():
    # The whitening path turns the compressed statistic into one with
    # covariance sigma^2 I for a fixed ensemble.
    frame = frame_7x8()
    p = ModelParams.from_snr(m=8, t=16, snr=1.0)
    signals = model.draw_signals(p, RngStream(61, 0))
    gram = model.gram_matrix(signals)
    wf = whiten(frame, gram)
    z = np.array([RngStream(61, k + 1).generator().standard_normal(p.t) for k in range(2000)])
    chol = np.broadcast_to(np.linalg.cholesky(gram), (2000, 8, 8))
    u = frame.apply(harness.cho_solve(chol, (signals[:, 0] + p.sigma * z) @ signals))
    draws = solve_triangular(wf.chol_c, u.T, lower=True).T
    sample_cov = np.cov(draws.T)
    target = p.sigma**2 * np.eye(7)
    rel = np.linalg.norm(sample_cov - target) / np.linalg.norm(target)
    assert rel < 0.15


# --- linear detectors ---

def test_mrdd_noiseless():
    frame = frame_7x8()
    assert detectors.detect_mrdd(frame, frame.entries[:, 0].copy()) == 1
    assert detectors.detect_mrdd(frame, frame.entries[:, 5].copy()) == 6


def test_mrdd_sign_sensitivity():
    # Flipping the sign of the true column must steer the verdict away from
    # it: every other correlation (-g_k1 = 1/7) beats a_1^T(-a_1) = -1.
    frame = frame_7x8()
    for k in range(1, 9):
        verdict = detectors.detect_mrdd(frame, -frame.entries[:, k - 1])
        assert verdict != k


def test_mrdd_zero_tie():
    assert detectors.detect_mrdd(frame_7x8(), np.zeros(7)) == 1


def test_rdd_sign_insensitivity():
    frame = frame_7x8()
    assert detectors.detect_rdd(frame, frame.entries[:, 0].copy()) == 1
    assert detectors.detect_rdd(frame, -frame.entries[:, 0]) == 1


@hypothesis.given(st.floats(min_value=1e-6, max_value=1e6))
def test_mrdd_positive_scale_invariance(c):
    frame = frame_16x5()
    u = np.array([0.4, -0.2, 1.1, 0.3, -0.9])
    assert detectors.detect_mrdd(frame, c * u) == detectors.detect_mrdd(frame, u)


def test_all_detectors_return_valid_indices():
    frame = frame_16x5()
    gram = np.eye(16) * 2.0
    gen = np.random.default_rng(1)
    for _ in range(50):
        u = gen.standard_normal(5) * 10
        v = gen.standard_normal(16) * 10
        assert 1 <= detectors.detect_mf(v) <= 16
        assert 1 <= detect_ml(frame, gram, u) <= 16
        assert 1 <= detectors.detect_mrdd(frame, u) <= 16
        assert 1 <= detectors.detect_rdd(frame, u) <= 16
