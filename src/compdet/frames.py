"""Group Hadamard sensing matrices and their geometry.

The sensing matrix is built from the character table of GF(2^r): rows are
indexed by a multiplicative subgroup {a_1..a_N}, columns by all M = 2^r
field elements, and the (i, j) entry is (-1)^Tr(a_i x_j) / sqrt(N).
Columns then have unit norm and the rows are orthogonal with A A^T = (M/N) I.

Tr is GF(2)-linear, so row i is the Walsh row (-1)^parity(w_i & x) of one
trace mask w_i (gf2m.trace_masks), and the Gram depends only on j XOR k: the
coherence is read exactly from the integer column sums of the signs.

So A^T u is the Walsh-Hadamard transform of u scattered onto the masks, and
A x is the transform of x read back at the masks.  Both use the Kronecker
factorisation of the Sylvester matrix, H_{2^r} = H_{2^r1} (x) H_{2^r2}
(Fino & Algazi, 1976): with z reshaped to 2^r1 x 2^r2, H z is H1 Z H2, which
costs 2M(2^r1 + 2^r2) flops instead of the 2NM of a dense product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import gf2m
from .errors import DomainError, NotADivisor

ROW_ORTHO_TOL = 1e-10


# Field orders up to 2^ONE_FACTOR_MAX_R apply H as one M x M product (r1 = 0);
# above it the split is r1 = r // 2.  Timings behind the choice: CHANGES.md.
ONE_FACTOR_MAX_R = 4


@lru_cache(maxsize=None)
def _sylvester(r: int) -> np.ndarray:
    """The 2^r x 2^r Sylvester Hadamard matrix, H[x, w] = (-1)^popcount(x & w)."""
    x = np.arange(1 << r)
    h = 1.0 - 2.0 * (np.bitwise_count(x[:, None] & x) & 1)
    h.setflags(write=False)
    return h


@lru_cache(maxsize=None)
def _walsh_factors(m: int, n: int) -> tuple:
    """(H1 or None, H2 / sqrt(N)) with H1 (x) H2 = H_M; H1 is None when r1 = 0."""
    r = m.bit_length() - 1
    r1 = 0 if r <= ONE_FACTOR_MAX_R else r // 2
    h2 = _sylvester(r - r1) / math.sqrt(n)
    h2.setflags(write=False)
    return (_sylvester(r1) if r1 else None), h2


def _walsh(z: np.ndarray, m: int, n: int) -> np.ndarray:
    """H_M z / sqrt(N) over the last axis of z, as H1 Z H2 per vector.

    A stack of vectors goes through the same matrix products per vector as a
    lone vector does (broadcast, never merged), so each result is
    bit-identical to the one-vector call.
    """
    h1, h2 = _walsh_factors(m, n)
    z = z.reshape(z.shape[:-1] + (m // len(h2), len(h2)))
    if h1 is not None:
        z = h1 @ z
    return (z @ h2).reshape(z.shape[:-2] + (m,))


class _DenseView:
    """Frame.entries: kept as given, or built from the masks on first read and kept."""

    def __get__(self, frame, owner=None):
        if frame is not None and frame.__dict__["entries"] is None:
            # Narrow dtypes keep the N x M temporaries at 2 bytes and 1 byte an entry.
            x = np.arange(frame.m, dtype=np.min_scalar_type(frame.m - 1))
            signs = 1 - 2 * (np.bitwise_count(frame.masks.astype(x.dtype)[:, None] & x) & 1).astype(np.int8)
            entries = signs / math.sqrt(frame.n)
            entries.setflags(write=False)
            frame.__dict__["entries"] = entries
        return self if frame is None else frame.__dict__["entries"]

    def __set__(self, frame, entries):
        frame.__dict__["entries"] = None if entries is self else entries  # self: the field default


@dataclass(frozen=True)
class Frame:
    """A column-normalized N x M group frame, stored as its N row masks.

    Row i is the Walsh row (-1)^parity(masks[i] & x) / sqrt(N); adjoint and
    apply use the masks, and entries is that matrix, built densely on first read.
    """

    m: int
    n: int
    mu: float
    kappa: int
    masks: np.ndarray
    entries: np.ndarray = field(default=_DenseView(), repr=False)

    @property
    def alpha(self) -> float:
        return self.n / self.m

    def adjoint(self, u: np.ndarray) -> np.ndarray:
        """A^T u, the M column correlations, for one u or a stack (..., N)."""
        z = np.zeros(u.shape[:-1] + (self.m,))
        # One vector skips the ellipsis, which costs ~0.7 us a call at small M.
        if u.ndim == 1:
            z[self.masks] = u
        else:
            z[..., self.masks] = u
        return _walsh(z, self.m, self.n)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A x for one x or a stack (..., M)."""
        hx = _walsh(x, self.m, self.n)
        return hx[self.masks] if x.ndim == 1 else hx[..., self.masks]


def _coherence_of(entries: np.ndarray) -> float:
    """Largest |inner product| between distinct columns, from the dense Gram."""
    gram = entries.T @ entries
    off = np.abs(gram - np.diag(np.diag(gram)))
    return float(off.max())


def build_group_hadamard(ctx: gf2m.FieldCtx, n: int) -> Frame:
    """Construct the N x M column-normalized group Hadamard frame.

    Requires the field order M = 2^r to be at least 4 and N to divide M - 1.
    The column for the zero element is the constant vector 1/sqrt(N).
    """
    m = ctx.order
    if m < 4:
        raise DomainError(f"field order {m} is below the minimum of 4")
    if n < 1 or (m - 1) % n != 0:
        raise NotADivisor(f"row count {n} does not divide M-1 = {m - 1}")

    masks = np.array(gf2m.trace_masks(ctx, gf2m.subgroup(ctx, n)), dtype=np.intp)
    masks.setflags(write=False)
    # H_M of the mask counts is each column's integer sign sum, exact in floats.
    # Column 0 is all ones, so N * g_0k, the sum of column k, covers every g_jk = g_0(j^k).
    mu = int(np.abs(_walsh(np.bincount(masks, minlength=m).astype(float), m, 1)[1:]).max()) / n
    frame = Frame(m=m, n=n, mu=mu, kappa=(m - 1) // n, masks=masks)
    if row_orthonormality_error(frame) > ROW_ORTHO_TOL:
        raise DomainError("row orthonormality A A^T = (M/N) I failed")
    return frame


def row_orthonormality_error(frame: Frame) -> float:
    """Max-norm deviation of A A^T from (M/N) I, from (A A^T)_ab = (M/N) [w_a = w_b]."""
    return 0.0 if len(np.unique(frame.masks)) == frame.n else frame.m / frame.n


def coherence_bound(m: int, n: int) -> float:
    """Closed-form coherence bound for the constructed frame family.

    With kappa = (M-1)/N the bound is
    (1/kappa) * ((kappa-1) * sqrt((kappa + 1/N)/N) + 1/N); at kappa = 1 it
    collapses to 1/N, which the full-group frame attains exactly.
    """
    if m < 4 or m & (m - 1):
        raise DomainError(f"column count {m} is not a power of two >= 4")
    if n < 1 or (m - 1) % n != 0:
        raise NotADivisor(f"row count {n} does not divide M-1 = {m - 1}")
    kappa = (m - 1) // n
    return ((kappa - 1) * math.sqrt((kappa + 1 / n) / n) + 1 / n) / kappa

