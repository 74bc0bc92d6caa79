"""Sensing-frame construction and geometry tests."""

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from compdet import detectors, frames, gf2m
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


def dense_pair_scan(entries):
    gram = entries.T @ entries
    return float(np.abs(gram - np.diag(np.diag(gram))).max())


def dense_row_orthonormality_error(entries):
    """max |A A^T - (M/N) I| from the dense matrix: the oracle of the mask check."""
    n, m = entries.shape
    return float(np.abs(entries @ entries.T - m / n * np.eye(n)).max())


@pytest.mark.parametrize("m", [4, 8, 16, 32, 64, 128, 256, 512, 1024])
def test_all_constructible_frames(m):
    # The lazily built entries against the dense checks the build once made.
    for n in all_divisors(m):
        frame = build(m, n)
        assert frame.mu <= frames.coherence_bound(m, n) + 1e-12
        assert frames.row_orthonormality_error(frame) == 0.0
        assert dense_row_orthonormality_error(frame.entries) <= 1e-10
        np.testing.assert_allclose(np.linalg.norm(frame.entries, axis=0), 1.0, rtol=0, atol=1e-12)
        assert abs(frame.mu - dense_pair_scan(frame.entries)) <= 1e-14


def oracle_entries(m, n):
    """The defining N*M loop: entry (i, x) is (-1)^Tr(a_i x) / sqrt(N)."""
    ctx = gf2m.FieldCtx.standard(m.bit_length() - 1)
    tr = [gf2m.trace(ctx, x) for x in range(m)]
    signs = np.empty((n, m))
    for i, a in enumerate(gf2m.subgroup(ctx, n)):
        for x in range(m):
            signs[i, x] = -1.0 if tr[gf2m.mul(ctx, a, x)] else 1.0
    return signs / math.sqrt(n)


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


# --- A^T u and A x as a Walsh-Hadamard operator ---


def dense_twin(frame):
    """The same frame applied by dense products with its entries: the oracle."""
    return frame_from_entries(frame.entries)


@pytest.mark.parametrize("m", [4, 8, 16, 32, 64, 128, 256, 512, 1024])
def test_operator_matches_dense_products(m):
    rng = np.random.default_rng(m)
    for n in all_divisors(m):
        frame = build(m, n)
        dense = dense_twin(frame)
        u, x = rng.standard_normal((7, n)), rng.standard_normal((7, m))
        at_u, a_x = frame.adjoint(u), frame.apply(x)
        np.testing.assert_allclose(at_u, dense.adjoint(u), rtol=0, atol=1e-12)
        np.testing.assert_allclose(a_x, dense.apply(x), rtol=0, atol=1e-12)
        # A stack goes through the same products per vector as a lone vector.
        for i in range(len(u)):
            np.testing.assert_array_equal(frame.adjoint(u[i]), at_u[i])
            np.testing.assert_array_equal(frame.apply(x[i]), a_x[i])


def assert_same_verdicts(frame, dense, us):
    """Equal verdicts wherever the dense maximum is unique; a dense maximizer otherwise.

    At u = -a_k the top correlations tie exactly (the Gram takes kappa + 1
    values), so which tied index wins depends on rounding in either form.
    """
    for detect in (detectors.detect_mrdd, detectors.detect_rdd):
        got, want = detect(frame, us), detect(dense, us)
        scores = dense.adjoint(us)
        if detect is detectors.detect_rdd:
            scores = np.abs(scores)
        top2 = np.sort(scores, axis=1)[:, -2:]
        unique = top2[:, 1] - top2[:, 0] > 1e-12
        np.testing.assert_array_equal(got[unique], want[unique])
        picked = scores[np.arange(len(us)), got - 1]
        np.testing.assert_allclose(picked, scores.max(axis=1), rtol=0, atol=1e-12)


@pytest.mark.parametrize("m", [4, 8, 16, 32, 64, 128, 256, 512, 1024])
def test_operator_verdicts_match_dense(m):
    rng = np.random.default_rng(m + 1)
    for n in all_divisors(m):
        frame = build(m, n)
        dense = dense_twin(frame)
        columns = np.ascontiguousarray(frame.entries.T)
        for us in (columns, -columns):
            assert_same_verdicts(frame, dense, us)
        if frame.mu < 1:  # distinct columns: a_k's own correlation is the unique maximum
            np.testing.assert_array_equal(detectors.detect_mrdd(frame, columns), np.arange(1, m + 1))
        u = rng.standard_normal((1000, n))
        for detect in (detectors.detect_mrdd, detectors.detect_rdd):
            np.testing.assert_array_equal(detect(frame, u), detect(dense, u))


def walsh_signs(w):
    """(-1)^popcount(w) elementwise, as floats."""
    return 1.0 - 2.0 * (np.bitwise_count(w) & 1)


def full_group_operator(r):
    """The N = M - 1 frame at field order 2^r as an operator: masks only, no entries."""
    ctx = gf2m.FieldCtx.standard(r)
    elems = gf2m.subgroup(ctx, ctx.order - 1)
    masks = np.array(gf2m.trace_masks(ctx, elems), dtype=np.intp)
    frame = frames.Frame(m=ctx.order, n=ctx.order - 1, mu=math.nan, kappa=1, masks=masks)
    return ctx, elems, frame


@pytest.mark.parametrize("r", [12, 14, 16])
def test_operator_at_large_m_against_mask_rows_and_columns(r):
    ctx, elems, frame = full_group_operator(r)
    m, n, masks = frame.m, frame.n, frame.masks
    rng = np.random.default_rng(r)
    u, x = rng.standard_normal(n), rng.standard_normal(m)
    at_u, a_x = frame.adjoint(u), frame.apply(x)
    for col in rng.choice(m, size=32, replace=False):
        column = walsh_signs(masks & col) / math.sqrt(n)
        assert abs(at_u[col] - column @ u) <= 1e-11
    for row in rng.choice(n, size=32, replace=False):
        entries_row = walsh_signs(masks[row] & np.arange(m)) / math.sqrt(n)
        assert abs(a_x[row] - entries_row @ x) <= 1e-11
        # The mask is row a's character: parity(w_a & x) = Tr(a x).
        for col in rng.choice(m, size=4, replace=False).tolist():
            assert (int(masks[row]) & col).bit_count() % 2 == gf2m.trace(ctx, gf2m.mul(ctx, elems[row], col))


def test_row_orthonormality_error_flags_a_repeated_mask(monkeypatch):
    frame = build(64, 21)
    masks = np.array(frame.masks)
    masks[1] = masks[0]
    twin = frames.Frame(m=64, n=21, mu=frame.mu, kappa=frame.kappa, masks=masks)
    assert frames.row_orthonormality_error(frame) == 0.0
    assert frames.row_orthonormality_error(twin) == 64 / 21
    assert dense_row_orthonormality_error(twin.entries) == pytest.approx(64 / 21, abs=1e-12)
    # The build refuses such a frame.
    trace_masks = gf2m.trace_masks
    monkeypatch.setattr(gf2m, "trace_masks", lambda ctx, elems: [trace_masks(ctx, elems)[0]] * len(elems))
    with pytest.raises(DomainError, match="orthonormality"):
        build(64, 21)


def test_dense_entries_are_built_on_first_read_only():
    frame = build(1024, 341)
    assert "masks=" in repr(frame)
    assert frame.__dict__["entries"] is None
    entries = frame.entries
    assert frame.entries is entries and not entries.flags.writeable


def test_concurrent_first_reads_build_equal_entries():
    # Threads that race on the first read may each build the matrix; all must agree.
    frame = build(1024, 341)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            reads = list(pool.map(lambda _: frame.entries, range(16), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for entries in reads:
        np.testing.assert_array_equal(entries, frame.entries)
