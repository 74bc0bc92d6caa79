"""Randomness, distribution checks, and confidence-interval tests."""

import math

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from compdet import frames, gf2m, model, stats
from compdet.errors import DomainError, SingularCovariance
from compdet.model import ModelParams
from compdet.rng import RngStream


# --- streams ---

def normals(stream, count):
    return stream.generator().standard_normal(count)


def test_streams_are_replayable():
    a = normals(RngStream(99, 5), 1000)
    b = normals(RngStream(99, 5), 1000)
    np.testing.assert_array_equal(a, b)


def test_distinct_streams_differ():
    a = normals(RngStream(99, 5), 1000)
    b = normals(RngStream(99, 6), 1000)
    c = normals(RngStream(98, 5), 1000)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_attempt_substreams_are_disjoint():
    base = RngStream(7, 3)
    a = base.generator(0).standard_normal(100)
    b = base.generator(1).standard_normal(100)
    assert not np.array_equal(a, b)


def test_stream_independence_correlation():
    a = normals(RngStream(123, 0), 100_000)
    b = normals(RngStream(123, 1), 100_000)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.01


def test_normal_moments():
    x = normals(RngStream(123, 0), 100_000)
    assert abs(x.mean()) < 0.02
    assert abs(x.var() - 1.0) < 0.02


# --- chi-squared ---

def test_chi2_empirical_mean():
    dof = 6
    gen = RngStream(55, 0).generator()
    sums = (gen.standard_normal((10_000, dof)) ** 2).sum(axis=1)
    assert abs(sums.mean() - dof) < 3 * math.sqrt(2 * dof / 10_000)


def test_chi2_cdf_matches_known_points():
    # chi2_2 is Exp(1/2): CDF(x) = 1 - exp(-x/2)
    for x in (0.1, 1.0, 3.0, 10.0):
        assert abs(float(stats.chi2_cdf(x, 2)) - (1 - math.exp(-x / 2))) < 1e-12


# --- KS machinery ---

def test_ks_statistic_uniform_exact():
    samples = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
    d = stats.ks_statistic(samples, lambda x: x)
    assert abs(d - 0.1) < 1e-15


def test_ks_critical_value_formula():
    for n in (1000, 2000, 5000):
        expect = math.sqrt(-math.log(0.005) / 2) / math.sqrt(n)
        assert abs(stats.ks_critical_value(n, 0.01) - expect) < 1e-12 * expect
    assert stats.ks_critical_value(100, 0.01) > stats.ks_critical_value(100, 0.05)


# --- Wishart projection law ---

def _setup_16_5():
    params = ModelParams.from_snr(m=16, t=32, snr=1.0)
    frame = frames.build_group_hadamard(gf2m.FieldCtx.standard(4), 5)
    return params, frame


def test_wishart_projection_check_passes():
    params, frame = _setup_16_5()
    report = stats.wishart_projection_check(params, frame, (1, 2), 2000, RngStream(0, 900001))
    assert report.passed
    assert report.n_samples == 2000
    assert report.ks_statistic < report.critical_value_1pct


def test_wishart_projection_mean():
    params, frame = _setup_16_5()
    samples = stats.sample_pair_distance2(params, frame, (1, 2), 2000, RngStream(0, 900001))
    scale = stats.pair_scale(params.energy, frame, (1, 2))
    dof = params.t - params.m + frame.n
    assert abs(samples.mean() / (scale * dof) - 1.0) < 0.1


def test_pair_distance_matches_explicit_inverse_and_redraws(monkeypatch):
    # Each sample is (a_i - a_j)^T C^{-1} (a_i - a_j) with C = A G^{-1} A^T of
    # its own draw; a draw whose covariance fails is replaced by the next one.
    params, frame = _setup_16_5()
    gen = RngStream(3, 0).generator()
    grams = [model.gram_matrix(model.draw_signals(params, gen)) for _ in range(4)]
    c = frame.entries[:, 0] - frame.entries[:, 1]
    expect = [c @ np.linalg.solve(frame.entries @ np.linalg.solve(g, frame.entries.T), c)
              for g in grams[1:]]
    real_whiten = stats.whiten_from_cholesky
    calls = []

    def fail_first(frame_, chol_g):
        calls.append(chol_g)
        if len(calls) == 1:
            raise SingularCovariance("forced")
        return real_whiten(frame_, chol_g)

    monkeypatch.setattr(stats, "whiten_from_cholesky", fail_first)
    got = stats.sample_pair_distance2(params, frame, (1, 2), 3, RngStream(3, 0))
    assert len(calls) == 4
    np.testing.assert_allclose(got, expect, rtol=1e-10)


def test_wishart_projection_wrong_dof_control_fails():
    params, frame = _setup_16_5()
    report = stats.wishart_projection_check(
        params, frame, (1, 2), 2000, RngStream(0, 900001), dof=params.t - params.m
    )
    assert not report.passed


def test_wishart_projection_pass_rate_over_seeds():
    params, frame = _setup_16_5()
    passes = sum(
        stats.wishart_projection_check(params, frame, (1, 2), 600, RngStream(s, 1)).passed
        for s in range(10)
    )
    assert passes >= 9


def test_pair_scale_requires_distinct_indices():
    _, frame = _setup_16_5()
    with pytest.raises(DomainError):
        stats.pair_scale(1.0, frame, (3, 3))


def test_pair_scale_rejects_indices_outside_the_frame():
    # Index 0 must not wrap around to column M, and M + 1 is past the last column.
    params, frame = _setup_16_5()
    for pair in ((0, 2), (2, 0), (17, 2), (-1, 3)):
        with pytest.raises(DomainError):
            stats.pair_scale(1.0, frame, pair)
        with pytest.raises(DomainError):
            stats.sample_pair_distance2(params, frame, pair, 1, RngStream(0, 0))


def test_pair_scale_equals_the_dense_column_product():
    _, frame = _setup_16_5()
    entries = frame.entries
    for i in range(1, 17):
        for j in range(1, 17):
            if i != j:
                g_ij = float(entries[:, i - 1] @ entries[:, j - 1])
                assert stats.pair_scale(1.5, frame, (i, j)) == 1.5**2 * 2.0 * frame.alpha * (1.0 - g_ij)


def test_pair_scale_builds_no_dense_matrix():
    # At kappa = 1 every pair of distinct columns has g_ij = -1/N.
    frame = frames.build_group_hadamard(gf2m.FieldCtx.standard(10), 1023)
    scale = stats.pair_scale(1.0, frame, (1, 2))
    assert frame.__dict__["entries"] is None
    assert scale == pytest.approx(2.0 * frame.alpha * (1.0 + 1.0 / 1023), rel=1e-12)


# --- Clopper-Pearson ---

def test_clopper_pearson_values():
    lo, hi = stats.clopper_pearson(0, 100, 0.95)
    assert lo == 0.0
    assert abs(hi - (1 - 0.025 ** (1 / 100))) < 1e-12
    lo, hi = stats.clopper_pearson(100, 100, 0.95)
    assert hi == 1.0
    lo, hi = stats.clopper_pearson(50, 100, 0.95)
    assert lo < 0.5 < hi
    assert abs((hi - lo) - 0.2033577409933978) < 1e-12


def test_clopper_pearson_domain():
    with pytest.raises(DomainError):
        stats.clopper_pearson(-1, 100)
    with pytest.raises(DomainError):
        stats.clopper_pearson(5, 4)
    with pytest.raises(DomainError):
        stats.clopper_pearson(1, 10, 1.0)


@hypothesis.given(st.integers(0, 200), st.integers(1, 200))
def test_clopper_pearson_brackets_p_hat(errors, trials):
    hypothesis.assume(errors <= trials)
    lo, hi = stats.clopper_pearson(errors, trials, 0.95)
    assert 0.0 <= lo <= errors / trials <= hi <= 1.0


@hypothesis.given(st.integers(1, 100), st.integers(1, 400))
def test_clopper_pearson_narrows_with_confidence(errors, trials):
    hypothesis.assume(errors <= trials)
    lo90, hi90 = stats.clopper_pearson(errors, trials, 0.90)
    lo99, hi99 = stats.clopper_pearson(errors, trials, 0.99)
    assert lo99 <= lo90 and hi90 <= hi99
