"""Arithmetic in the binary extension field GF(2^r).

Elements are plain ints interpreted as polynomial-basis coordinate vectors:
bit i of the mask is the coefficient of x^i.  All arithmetic is carried out
modulo a fixed irreducible reduction polynomial, so the nonzero elements form
a cyclic multiplicative group of order 2^r - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import FieldError, NotADivisor

# Smallest (by integer mask value) irreducible polynomial of each degree.
# Bit i of the mask is the coefficient of x^i, e.g. 0b1011 = x^3 + x + 1.
SMALLEST_IRREDUCIBLE = {
    1: 0b10,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0b100011011,
    9: 0b1000000011,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000000001001,
    13: 0b10000000011011,
    14: 0b100000000100001,
    15: 0b1000000000000011,
    16: 0b10000000000101011,
    17: 0b100000000000001001,
    18: 0b1000000000000001001,
    19: 0b10000000000000100111,
    20: 0b100000000000000001001,
}

MAX_DEGREE = 20


def _poly_mulmod(a: int, b: int, poly: int, r: int) -> int:
    """Carry-less product of two masks, reduced modulo ``poly`` (degree r)."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a >> r & 1:
            a ^= poly
    return acc


def _poly_mod(a: int, m: int) -> int:
    """Remainder of the polynomial ``a`` modulo the polynomial ``m``."""
    dm = m.bit_length() - 1
    while a and a.bit_length() - 1 >= dm:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


def is_irreducible(poly: int, r: int) -> bool:
    """Exhaustive trial division by every polynomial of degree 1..r//2."""
    if poly.bit_length() != r + 1:
        return False
    for d in range(1, r // 2 + 1):
        for q in range(1 << d, 1 << (d + 1)):
            if _poly_mod(poly, q) == 0:
                return False
    return True


@dataclass(frozen=True)
class FieldCtx:
    """GF(2^r) with a fixed degree-r irreducible reduction polynomial."""

    r: int
    reduction_poly: int

    def __post_init__(self):
        if not 1 <= self.r <= MAX_DEGREE:
            raise FieldError(f"extension degree r={self.r} outside 1..{MAX_DEGREE}")
        if not is_irreducible(self.reduction_poly, self.r):
            raise FieldError(
                f"polynomial {bin(self.reduction_poly)} is not irreducible of degree {self.r}"
            )

    @property
    def order(self) -> int:
        return 1 << self.r

    @classmethod
    def standard(cls, r: int) -> "FieldCtx":
        """Context using the shipped reduction polynomial for degree ``r``."""
        if r not in SMALLEST_IRREDUCIBLE:
            raise FieldError(f"no standard reduction polynomial for r={r}")
        return cls(r, SMALLEST_IRREDUCIBLE[r])

    def check(self, a: int) -> int:
        if not isinstance(a, int) or not 0 <= a < self.order:
            raise FieldError(f"{a!r} is not an element of GF(2^{self.r})")
        return a


def mul(ctx: FieldCtx, a: int, b: int) -> int:
    """Field product of two elements."""
    ctx.check(a)
    ctx.check(b)
    return _poly_mulmod(a, b, ctx.reduction_poly, ctx.r)


def power(ctx: FieldCtx, a: int, k: int) -> int:
    """a**k by square-and-multiply; a**0 == 1."""
    ctx.check(a)
    if k < 0:
        raise FieldError("negative exponents are not supported")
    result = 1
    base = a
    while k:
        if k & 1:
            result = mul(ctx, result, base)
        base = mul(ctx, base, base)
        k >>= 1
    return result


def trace(ctx: FieldCtx, x: int) -> int:
    """Field trace Tr(x) = sum of x^(2^i) for i = 0..r-1, valued in {0, 1}.

    The trace is GF(2)-linear and maps onto the base field, which is what
    makes the +-1 sign pattern of the sensing matrix well defined.
    """
    ctx.check(x)
    acc = x
    frob = x
    for _ in range(ctx.r - 1):
        frob = mul(ctx, frob, frob)
        acc ^= frob
    return acc


def trace_masks(ctx: FieldCtx, elems) -> list:
    """Masks w_a with Tr(a*x) = parity(w_a & x) for all x; bit i of w_a is Tr(a*x^i)."""
    r, poly = ctx.r, ctx.reduction_poly
    tmask = sum(trace(ctx, 1 << i) << i for i in range(r))  # Tr(z) = parity(z & tmask)
    masks = []
    for a in map(ctx.check, elems):
        w = 0
        for i in range(r):  # a -> a*x by one shift-and-reduce
            w |= ((a & tmask).bit_count() & 1) << i
            a = (a << 1) ^ (poly if a >> (r - 1) & 1 else 0)
        masks.append(w)
    return masks


@lru_cache(maxsize=None)
def _prime_factors(q: int) -> tuple:
    factors = []
    d = 2
    while d * d <= q:
        if q % d == 0:
            factors.append(d)
            while q % d == 0:
                q //= d
        d += 1
    if q > 1:
        factors.append(q)
    return tuple(factors)


def element_order(ctx: FieldCtx, a: int) -> int:
    """Multiplicative order of a nonzero element."""
    ctx.check(a)
    if a == 0:
        raise FieldError("zero has no multiplicative order")
    q = ctx.order - 1
    order = q
    for p in _prime_factors(q):
        while order % p == 0 and power(ctx, a, order // p) == 1:
            order //= p
    return order


def find_generator(ctx: FieldCtx) -> int:
    """Smallest element (by mask value) generating the multiplicative group."""
    q = ctx.order - 1
    for a in range(1, ctx.order):
        if element_order(ctx, a) == q:
            return a
    raise FieldError("no generator found; reduction polynomial is not irreducible")


def subgroup(ctx: FieldCtx, n: int) -> list:
    """The unique multiplicative subgroup of size ``n``, as [y, y^2, ..., y^n].

    ``n`` must divide 2^r - 1.  The last element is always 1, and the list is
    deterministic for a fixed context because the generator search is.
    """
    q = ctx.order - 1
    if n < 1 or q % n != 0:
        raise NotADivisor(f"subgroup size {n} does not divide {q}")
    y = power(ctx, find_generator(ctx), q // n)
    elems = []
    cur = 1
    for _ in range(n):
        cur = mul(ctx, cur, y)
        elems.append(cur)
    return elems

