"""Field arithmetic tests against independent coefficient-list oracles."""

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from compdet import gf2m
from compdet.errors import FieldError, NotADivisor

GF8 = gf2m.FieldCtx(3, 0b1011)
GF16 = gf2m.FieldCtx(4, 0b10011)


# --- independent oracle: polynomial arithmetic on coefficient lists ---

def _to_coeffs(mask):
    return [(mask >> i) & 1 for i in range(mask.bit_length())]


def _to_mask(coeffs):
    return sum(c << i for i, c in enumerate(coeffs))


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1 or 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] ^= ca & cb
    return out


def _poly_rem(a, m):
    a = a[:]
    dm = len(m) - 1
    while len(a) - 1 >= dm and any(a):
        shift = len(a) - 1 - dm
        if a[-1]:
            for i, c in enumerate(m):
                a[shift + i] ^= c
        while a and not a[-1]:
            a.pop()
    return a


def oracle_mul(ctx, a, b):
    if a == 0 or b == 0:
        return 0
    prod = _poly_mul(_to_coeffs(a), _to_coeffs(b))
    return _to_mask(_poly_rem(prod, _to_coeffs(ctx.reduction_poly)))


# --- construction ---

def test_standard_table_is_irreducible_everywhere():
    for r in range(1, 21):
        ctx = gf2m.FieldCtx.standard(r)
        assert ctx.order == 1 << r


def test_reducible_polynomial_rejected():
    with pytest.raises(FieldError):
        gf2m.FieldCtx(3, 0b1111)  # x^3+x^2+x+1 = (x+1)(x^2+1)
    with pytest.raises(FieldError):
        gf2m.FieldCtx(2, 0b1011)  # degree mismatch


def test_invalid_elements_rejected():
    with pytest.raises(FieldError):
        gf2m.mul(GF8, 8, 1)
    with pytest.raises(FieldError):
        gf2m.trace(GF8, -1)


# --- multiplication ---

def test_mul_primary_examples():
    assert gf2m.mul(GF8, 0b010, 0b010) == 0b100
    assert gf2m.mul(GF8, 0b100, 0b010) == 0b011
    assert gf2m.mul(GF8, 0b101, 0) == 0


@pytest.mark.parametrize("r", [2, 3, 4, 8, 12])
def test_mul_matches_schoolbook_oracle(r):
    import random

    ctx = gf2m.FieldCtx.standard(r)
    rng = random.Random(r)
    for _ in range(10_000):
        a = rng.randrange(ctx.order)
        b = rng.randrange(ctx.order)
        assert gf2m.mul(ctx, a, b) == oracle_mul(ctx, a, b)


@hypothesis.given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15))
def test_mul_commutative_associative(a, b, c):
    assert gf2m.mul(GF16, a, b) == gf2m.mul(GF16, b, a)
    assert gf2m.mul(GF16, gf2m.mul(GF16, a, b), c) == gf2m.mul(GF16, a, gf2m.mul(GF16, b, c))


@hypothesis.given(st.integers(0, 15))
def test_mul_identity_and_zero(a):
    assert gf2m.mul(GF16, a, 1) == a
    assert gf2m.mul(GF16, a, 0) == 0


def test_every_nonzero_element_has_full_group_order_power():
    for ctx in (GF8, GF16):
        q = ctx.order - 1
        for a in range(1, ctx.order):
            assert gf2m.power(ctx, a, q) == 1


# --- trace ---

def test_trace_examples():
    assert gf2m.trace(GF8, 0) == 0
    assert gf2m.trace(GF8, 1) == 1  # 1 + 1 + 1 over GF(2)
    assert gf2m.trace(GF8, 0b010) == 0  # a + a^2 + a^4 = 0


@hypothesis.given(st.integers(0, 15), st.integers(0, 15))
def test_trace_is_additive(a, b):
    assert gf2m.trace(GF16, a ^ b) == gf2m.trace(GF16, a) ^ gf2m.trace(GF16, b)


@pytest.mark.parametrize("r", range(1, 13))
def test_trace_balance(r):
    # The trace map hits 1 on exactly half of the field.
    ctx = gf2m.FieldCtx.standard(r)
    ones = sum(gf2m.trace(ctx, x) for x in range(ctx.order))
    assert ones == ctx.order // 2


# --- generators and subgroups ---

def test_find_generator_examples():
    assert gf2m.find_generator(GF8) == 0b010
    assert gf2m.find_generator(GF16) == 0b0010
    assert gf2m.find_generator(gf2m.FieldCtx.standard(1)) == 1


def test_find_generator_is_smallest():
    for ctx in (GF8, GF16, gf2m.FieldCtx.standard(5)):
        g = gf2m.find_generator(ctx)
        q = ctx.order - 1
        for a in range(1, g):
            assert gf2m.element_order(ctx, a) < q


def test_subgroup_full_and_trivial():
    assert sorted(gf2m.subgroup(GF8, 7)) == list(range(1, 8))
    assert gf2m.subgroup(GF8, 1).tolist() == [1]


def test_subgroup_gf16_size5():
    elems = gf2m.subgroup(GF16, 5).tolist()
    assert sorted(elems) == [1, 8, 10, 12, 15]
    # closure under multiplication, checked exhaustively
    s = set(elems)
    for a in elems:
        for b in elems:
            assert gf2m.mul(GF16, a, b) in s
    assert 1 in s


@pytest.mark.parametrize("r,n", [(3, 7), (4, 1), (4, 3), (4, 5), (4, 15), (6, 9), (6, 21)])
def test_subgroup_matches_root_set(r, n):
    # The unique size-n subgroup is exactly {h != 0 : h^n = 1}, independently
    # of which generator produced it.
    ctx = gf2m.FieldCtx.standard(r)
    elems = gf2m.subgroup(ctx, n)
    assert len(set(elems)) == n
    roots = {h for h in range(1, ctx.order) if gf2m.power(ctx, h, n) == 1}
    assert set(elems) == roots


# --- array builds against the scalar loops ---

def scalar_subgroup(ctx, n):
    """[y, y^2, ..., y^n] by one field product per element."""
    y = gf2m.power(ctx, gf2m.find_generator(ctx), (ctx.order - 1) // n)
    elems, cur = [], 1
    for _ in range(n):
        cur = gf2m.mul(ctx, cur, y)
        elems.append(cur)
    return elems


def scalar_trace_masks(ctx, elems):
    """Bit i of w_a is Tr(a x^i) = parity(a x^i & tmask), stepping a -> a x per bit."""
    r, poly = ctx.r, ctx.reduction_poly
    tmask = sum(gf2m.trace(ctx, 1 << i) << i for i in range(r))
    masks = []
    for a in elems:
        w = 0
        for i in range(r):
            w |= ((a & tmask).bit_count() & 1) << i
            a = (a << 1) ^ (poly if a >> (r - 1) & 1 else 0)
        masks.append(w)
    return masks


def _field_cases():
    for r in range(2, 13):
        q = (1 << r) - 1
        yield from ((r, n) for n in range(1, q + 1) if q % n == 0)
    yield 16, (1 << 16) - 1


@pytest.mark.parametrize("r,n", list(_field_cases()))
def test_array_builds_match_the_scalar_loops(r, n):
    ctx = gf2m.FieldCtx.standard(r)
    elems = gf2m.subgroup(ctx, n)
    assert elems.dtype == np.int64 and elems.shape == (n,)
    assert elems.tolist() == scalar_subgroup(ctx, n)
    masks = gf2m.trace_masks(ctx, elems)
    assert masks.dtype == np.int64 and masks.shape == (n,)
    assert masks.tolist() == scalar_trace_masks(ctx, elems.tolist())


@pytest.mark.parametrize("bad", [16, -1, 1.5, "3"])
def test_trace_masks_rejects_non_elements(bad):
    with pytest.raises(FieldError):
        gf2m.trace_masks(GF16, [1, bad])
    with pytest.raises(FieldError):
        gf2m.trace_masks(GF16, [bad])


def test_subgroup_rejects_non_divisor():
    with pytest.raises(NotADivisor):
        gf2m.subgroup(GF8, 4)
    with pytest.raises(NotADivisor):
        gf2m.subgroup(GF16, 6)
