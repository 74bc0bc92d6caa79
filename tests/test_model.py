"""Signal model and statistic tests: exact identities plus moment checks."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from compdet import frames, gf2m, harness, model
from compdet.errors import DomainError, SingularGram
from compdet.model import ModelParams
from compdet.rng import RngStream
from frame_fixtures import frame_from_entries


def params_snr(m=8, t=64, snr=1.0):
    return ModelParams.from_snr(m=m, t=t, snr=snr)


def _degenerate_params(m, t, energy, sigma):
    # Bypass validation to build unit-test fixtures the constructor rejects.
    p = ModelParams.__new__(ModelParams)
    object.__setattr__(p, "m", m)
    object.__setattr__(p, "t", t)
    object.__setattr__(p, "energy", energy)
    object.__setattr__(p, "sigma", sigma)
    return p


def test_params_validation():
    with pytest.raises(DomainError):
        ModelParams(m=8, t=7)
    with pytest.raises(DomainError):
        ModelParams(m=8, t=8, energy=0.0)
    with pytest.raises(DomainError):
        ModelParams(m=8, t=8, sigma=-1.0)
    with pytest.raises(DomainError):
        ModelParams.from_snr(m=8, t=8, snr=0.0)
    p = ModelParams.from_snr(m=8, t=16, snr=4.0)
    assert p.beta == 2.0 and abs(p.snr - 4.0) < 1e-15


def test_draw_signals_clt_mean():
    p = ModelParams(m=8, t=64, energy=1.0)
    for rep in range(10):
        s = model.draw_signals(p, RngStream(42, rep))
        assert abs(s.mean()) <= 4 / math.sqrt(s.size)


def test_zero_energy_fixture_gives_zero_matrix():
    p = _degenerate_params(8, 64, 0.0, 1.0)
    s = model.draw_signals(p, RngStream(0, 0))
    assert np.all(s == 0.0)


def test_draw_signals_second_moment():
    p = ModelParams(m=8, t=64, energy=2.0)
    sq = [np.mean(model.draw_signals(p, RngStream(7, k)) ** 2) for k in range(10)]
    assert abs(np.mean(sq) - 4.0) < 0.4


def test_receive_noiseless_limit():
    p = _degenerate_params(8, 32, 1.0, 0.0)
    trial = harness.draw_trial(p, RngStream(1, 0), truth=3)
    np.testing.assert_array_equal(trial.y, trial.signals[:, 2])


def test_receive_noise_energy():
    p = ModelParams(m=8, t=64, energy=1.0, sigma=1.0)
    sq = []
    for k in range(100):
        trial = harness.draw_trial(p, RngStream(5, k))
        sq.append(np.sum((trial.y - trial.signals[:, 0]) ** 2))
    assert abs(np.mean(sq) - p.t * p.sigma**2) / (p.t * p.sigma**2) < 0.1


def test_receive_same_stream_differs_by_signal_difference():
    # A given truth draws nothing, so both truths see the same signals and noise.
    p = params_snr()
    y1 = harness.draw_trial(p, RngStream(9, 1), truth=1).y
    trial = harness.draw_trial(p, RngStream(9, 1), truth=2)
    np.testing.assert_allclose(y1 - trial.y, trial.signals[:, 0] - trial.signals[:, 1],
                               rtol=0, atol=1e-12)


def test_receive_rejects_bad_truth():
    p = params_snr()
    with pytest.raises(DomainError):
        harness.draw_trial(p, RngStream(0, 1), truth=0)
    with pytest.raises(DomainError):
        harness.draw_trial(p, RngStream(0, 1), truth=9)


class _FixedDraws:
    """Generator stand-in: successive standard_normal calls return the given arrays."""

    def __init__(self, *arrays):
        self._arrays = iter(arrays)

    def standard_normal(self, size=None):
        return next(self._arrays)


def test_matched_filter_orthogonal_fixture():
    # The stream draws an orthogonal ensemble and no noise.
    s = np.zeros((6, 3))
    s[0, 0], s[2, 1], s[4, 2] = 2.0, 1.0, 1.0
    stream = SimpleNamespace(generator=lambda attempt=0: _FixedDraws(s, np.zeros(6)))
    trial = harness.draw_trial(ModelParams(m=3, t=6), stream)
    np.testing.assert_allclose(trial.v, [4.0, 0.0, 0.0])


def test_matched_filter_noiseless_identity():
    p = _degenerate_params(8, 32, 1.0, 0.0)
    for truth in (1, 5, 8):
        trial = harness.draw_trial(p, RngStream(3, 0), truth=truth)
        np.testing.assert_allclose(trial.v, trial.gram[:, truth - 1], rtol=1e-12)


def test_matched_filter_decomposition_identity():
    # v = S^T y equals G e_k + S^T z, with z the noise the stream draws after S.
    p = params_snr(m=8, t=32, snr=2.0)
    gen = RngStream(11, 0).generator()
    gen.standard_normal((p.t, p.m))
    z = p.sigma * gen.standard_normal(p.t)
    trial = harness.draw_trial(p, RngStream(11, 0), truth=4)
    np.testing.assert_array_equal(trial.y, trial.signals[:, 3] + z)
    np.testing.assert_array_equal(trial.v, trial.signals.T @ trial.y)
    np.testing.assert_allclose(trial.v, trial.gram[:, 3] + trial.signals.T @ z, rtol=1e-8)


def test_biorthogonal_identity():
    p = params_snr(m=8, t=32)
    for k in range(20):
        s = model.draw_signals(p, RngStream(21, k))
        s_hat = model.biorthogonal_ensemble(s)
        resid = np.abs(s_hat.T @ s - np.eye(8)).max()
        assert resid < 1e-6


def test_biorthogonal_orthonormal_fixture():
    s = np.eye(8)[:, :4]  # orthonormal columns: G = I, duals equal signals
    np.testing.assert_allclose(model.biorthogonal_ensemble(s), s, atol=1e-12)


def test_biorthogonal_scaling():
    p = params_snr(m=4, t=16)
    s = model.draw_signals(p, RngStream(1, 5))
    np.testing.assert_allclose(
        model.biorthogonal_ensemble(2 * s), model.biorthogonal_ensemble(s) / 2, rtol=1e-9
    )


def test_biorthogonal_singular_gram():
    s = np.ones((8, 3))  # rank one
    with pytest.raises(SingularGram):
        model.biorthogonal_ensemble(s)


def frame_7x8():
    return frames.build_group_hadamard(gf2m.FieldCtx.standard(3), 7)


def test_approx_statistic_noiseless_hits_column():
    frame = frame_7x8()
    p = _degenerate_params(8, 16, 1.0, 0.0)
    trial = harness.draw_trial(p, RngStream(2, 0), frame=frame)  # v = G e_1
    np.testing.assert_allclose(trial.u, frame.entries[:, 0], rtol=0, atol=1e-8)


def test_approx_statistic_conditional_covariance():
    # With the ensemble fixed, u = a_1 + A G^{-1} S^T z has covariance
    # sigma^2 A G^{-1} A^T exactly; 2000 draws estimate it within 15%.
    frame = frame_7x8()
    p = params_snr(m=8, t=16, snr=1.0)
    s = model.draw_signals(p, RngStream(31, 0))
    g = model.gram_matrix(s)
    z = np.array([RngStream(31, k + 1).generator().standard_normal(p.t) for k in range(2000)])
    v = (s[:, 0] + p.sigma * z) @ s
    chol = np.broadcast_to(model.gram_cholesky(g), (2000, 8, 8))
    draws = frame.apply(harness.cho_solve(chol, v))
    sample_cov = np.cov(draws.T)
    exact = p.sigma**2 * frame.entries @ np.linalg.solve(g, frame.entries.T)
    rel = np.linalg.norm(sample_cov - exact) / np.linalg.norm(exact)
    assert rel < 0.15


@pytest.mark.parametrize("m,t", [(8, 16), (16, 16), (256, 512)])
def test_cho_solve_matches_scipy(m, t):
    # harness.cho_solve hands potrs the transposed (upper) factor; it agrees
    # with scipy's cho_solve on the lower factor to rounding, for a stack and
    # for draw_trial's u.
    p = params_snr(m=m, t=t)
    grams = np.array([model.gram_matrix(model.draw_signals(p, RngStream(19, k))) for k in range(3)])
    chol = model.gram_cholesky(grams)
    rhs = np.array([RngStream(20, k).generator().standard_normal(m) for k in range(3)])
    got = harness.cho_solve(chol, rhs)
    for g, c, b, x in zip(grams, chol, rhs, got):
        want = scipy.linalg.cho_solve((c, True), b)
        assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max()
        np.testing.assert_allclose(g @ x, b, rtol=0, atol=1e-8 * np.abs(b).max())
    frame = frames.build_group_hadamard(gf2m.FieldCtx.standard(m.bit_length() - 1), m - 1)
    trial = harness.draw_trial(p, RngStream(21, 0), frame=frame)
    want = frame.apply(scipy.linalg.cho_solve((np.linalg.cholesky(trial.gram), True), trial.v))
    assert np.abs(trial.u - want).max() <= 1e-12 * np.abs(want).max()


def test_approx_statistic_square_frame_roundtrip():
    # n = m with orthonormal rows: u is an invertible image of v.
    h = np.linalg.qr(np.random.default_rng(0).standard_normal((8, 8)))[0]
    frame = frame_from_entries(h)
    p = params_snr(m=8, t=24)
    trial = harness.draw_trial(p, RngStream(4, 0), frame=frame)
    v_back = trial.gram @ (h.T @ trial.u)
    np.testing.assert_allclose(v_back, trial.v, rtol=1e-8)


def test_gram_cholesky_succeeds_on_random_draws():
    p = params_snr(m=16, t=128)
    for k in range(100):
        s = model.draw_signals(p, RngStream(77, k))
        model.gram_cholesky(model.gram_matrix(s))  # must not raise


def test_gram_mean_diagonal():
    p = ModelParams(m=16, t=128, energy=1.0)
    diag = [np.diag(model.gram_matrix(model.draw_signals(p, RngStream(13, k)))).mean()
            for k in range(100)]
    assert abs(np.mean(diag) - p.t) / p.t < 0.05


def test_draw_trial_identities():
    frame = frame_7x8()
    p = params_snr(m=8, t=16, snr=2.0)
    trial = harness.draw_trial(p, RngStream(55, 0), frame=frame)
    assert trial.truth == 1
    np.testing.assert_allclose(trial.gram, trial.signals.T @ trial.signals, rtol=1e-12)
    np.testing.assert_allclose(trial.v, trial.signals.T @ trial.y, rtol=1e-12)
    assert trial.u.shape == (7,)
    model.gram_cholesky(trial.gram)  # SPD

    bare = harness.draw_trial(p, RngStream(55, 0))
    assert bare.u is None
    np.testing.assert_array_equal(bare.signals, trial.signals)


def test_draw_trial_frame_shape_mismatch():
    frame = frame_7x8()
    with pytest.raises(DomainError):
        harness.draw_trial(params_snr(m=16, t=32), RngStream(0, 0), frame=frame)
