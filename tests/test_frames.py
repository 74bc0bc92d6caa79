"""Sensing-frame construction and geometry tests."""

import math

import numpy as np
import pytest

from compdet import frames, gf2m
from compdet.errors import DomainError, NotADivisor
from frame_fixtures import frame_from_entries


def build(m, n):
    return frames.build_group_hadamard(gf2m.FieldCtx.standard(m.bit_length() - 1), n)


def all_divisors(m):
    return [n for n in range(1, m) if (m - 1) % n == 0]


def test_full_group_frame_7x8():
    frame = build(8, 7)
    assert frame.entries.shape == (7, 8)
    # zero-element column is the constant vector 1/sqrt(N)
    np.testing.assert_allclose(frame.entries[:, 0], 1 / math.sqrt(7))
    assert abs(frame.mu - 1 / 7) < 1e-12
    assert frame.kappa == 1


def test_coherence_by_exhaustive_pair_scan():
    frame = build(8, 7)
    worst = 0.0
    for i in range(8):
        for j in range(i + 1, 8):
            worst = max(worst, abs(float(frame.entries[:, i] @ frame.entries[:, j])))
    assert abs(worst - 1 / 7) < 1e-12
    assert abs(frame.mu - worst) < 1e-15


def test_single_row_frame_is_degenerate():
    frame = build(8, 1)
    assert frame.entries.shape == (1, 8)
    gram = frame.entries.T @ frame.entries
    assert np.all(np.abs(np.abs(gram) - 1.0) < 1e-12)
    assert abs(frame.mu - 1.0) < 1e-12


def test_16x5_frame_respects_bound():
    frame = build(16, 5)
    assert frame.mu <= 0.6 + 1e-12


def test_orthonormal_and_duplicate_fixtures():
    eye = frame_from_entries(np.eye(4))
    assert eye.mu == 0.0
    dup = frame_from_entries(np.column_stack([np.eye(4), np.eye(4)[:, 0]]))
    assert abs(dup.mu - 1.0) < 1e-15


def test_coherence_bound_values():
    assert abs(frames.coherence_bound(8, 7) - 1 / 7) < 1e-15
    assert abs(frames.coherence_bound(16, 5) - 0.6) < 1e-12
    assert abs(frames.coherence_bound(64, 21) - 17 / 63) < 1e-12


def test_coherence_bound_rejections():
    with pytest.raises(NotADivisor):
        frames.coherence_bound(16, 6)
    with pytest.raises(DomainError):
        frames.coherence_bound(12, 11)
    with pytest.raises(NotADivisor):
        build(16, 6)


@pytest.mark.parametrize("m", [8, 16, 32, 64])
def test_all_constructible_frames(m):
    for n in all_divisors(m):
        frame = build(m, n)
        assert frame.mu <= frames.coherence_bound(m, n) + 1e-12
        assert frames.row_orthonormality_error(frame) <= 1e-10
        np.testing.assert_allclose(np.linalg.norm(frame.entries, axis=0), 1.0, atol=1e-12)


def oracle_entries(m, n):
    """The defining N*M loop: entry (i, x) is (-1)^Tr(a_i x) / sqrt(N)."""
    ctx = gf2m.FieldCtx.standard(m.bit_length() - 1)
    tr = [gf2m.trace(ctx, x) for x in range(m)]
    signs = np.empty((n, m))
    for i, a in enumerate(gf2m.subgroup(ctx, n)):
        for x in range(m):
            signs[i, x] = -1.0 if tr[gf2m.mul(ctx, a, x)] else 1.0
    return signs / math.sqrt(n)


def dense_pair_scan(entries):
    gram = entries.T @ entries
    return float(np.abs(gram - np.diag(np.diag(gram))).max())


@pytest.mark.parametrize("m", [4, 8, 16, 32, 64, 128, 256])
def test_frames_match_field_product_oracle(m):
    for n in all_divisors(m):
        frame = build(m, n)
        oracle = oracle_entries(m, n)
        np.testing.assert_array_equal(frame.entries, oracle)
        assert abs(frame.mu - dense_pair_scan(oracle)) <= 1e-15
        # Column 0 is all ones, so N * g_0k is an integer sum of signs.
        signs = np.rint(oracle * math.sqrt(n)).astype(np.int64)
        assert frame.mu == int(np.abs(signs.sum(axis=0)[1:]).max()) / n


def test_trace_masks_give_the_trace_of_products():
    ctx = gf2m.FieldCtx.standard(5)
    elems = [1, 2, 7, 19, 31]
    for a, w in zip(elems, gf2m.trace_masks(ctx, elems)):
        for x in range(ctx.order):
            assert bin(w & x).count("1") % 2 == gf2m.trace(ctx, gf2m.mul(ctx, a, x))


@pytest.mark.parametrize("m,n", [(16, 3), (64, 7), (256, 5), (256, 15), (512, 7), (1024, 31)])
def test_collapsing_frames_have_coherence_exactly_one(m, n):
    # Dense Gram rounding gave 1 +- a few ulp here, which let mu < 1 through.
    assert build(m, n).mu == 1.0


def difference_norm_bounds(frame):
    # Every ||(A A^T)^{-1/2} A (b_i - b_j)||^2 equals 2a(1 - g_ij) for a
    # row-orthonormal frame, so it lies in [2a(1 - mu), 2a(1 + mu)].
    return 2.0 * frame.alpha * (1.0 - frame.mu), 2.0 * frame.alpha * (1.0 + frame.mu)


def test_difference_norm_bounds_7x8():
    frame = build(8, 7)
    lo, hi = difference_norm_bounds(frame)
    assert abs(lo - 1.5) < 1e-12 and abs(hi - 2.0) < 1e-12
    # exhaustive check: whitened pair energies all land inside [lo, hi]
    root_alpha = math.sqrt(frame.alpha)  # (A A^T)^{-1/2} = sqrt(alpha) I
    for i in range(8):
        for j in range(i + 1, 8):
            d = root_alpha * (frame.entries[:, i] - frame.entries[:, j])
            assert lo - 1e-12 <= d @ d <= hi + 1e-12


def test_difference_norm_bounds_16x5_exhaustive():
    frame = build(16, 5)
    lo, hi = difference_norm_bounds(frame)
    root_alpha = math.sqrt(frame.alpha)
    count = 0
    for i in range(16):
        for j in range(i + 1, 16):
            d = root_alpha * (frame.entries[:, i] - frame.entries[:, j])
            assert lo - 1e-12 <= d @ d <= hi + 1e-12
            count += 1
    assert count == 120


def test_deterministic_construction():
    a = build(16, 5)
    b = build(16, 5)
    np.testing.assert_array_equal(a.entries, b.entries)


def test_small_field_rejected():
    with pytest.raises(DomainError):
        frames.build_group_hadamard(gf2m.FieldCtx.standard(1), 1)
