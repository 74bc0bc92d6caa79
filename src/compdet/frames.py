"""Group Hadamard sensing matrices and their geometry.

The sensing matrix is built from the character table of GF(2^r): rows are
indexed by a multiplicative subgroup {a_1..a_N}, columns by all M = 2^r
field elements, and the (i, j) entry is (-1)^Tr(a_i x_j) / sqrt(N).
Columns then have unit norm and the rows are orthogonal with A A^T = (M/N) I.

Tr is GF(2)-linear, so row i is the Walsh row (-1)^parity(w_i & x) of one
trace mask w_i (gf2m.trace_masks), and the Gram depends only on j XOR k: the
coherence is read exactly from the integer column sums of the signs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gf2m
from .errors import DomainError, NotADivisor

COLUMN_NORM_TOL = 1e-12
ROW_ORTHO_TOL = 1e-10


@dataclass(frozen=True)
class Frame:
    """A column-normalized N x M sensing matrix with cached coherence."""

    m: int
    n: int
    entries: np.ndarray
    mu: float
    kappa: int

    @property
    def alpha(self) -> float:
        return self.n / self.m


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

    x = np.arange(m)
    entries = np.empty((n, m))
    col_sums = np.zeros(m, dtype=np.int64)
    for i, w in enumerate(gf2m.trace_masks(ctx, gf2m.subgroup(ctx, n))):
        signs = 1 - 2 * (np.bitwise_count(w & x) & 1).astype(np.int64)
        col_sums += signs
        entries[i] = signs / math.sqrt(n)
    entries.setflags(write=False)

    # Column 0 is all ones, so N * g_0k = col_sums[k] covers every g_jk = g_0(j^k).
    mu = int(np.abs(col_sums[1:]).max()) / n
    frame = Frame(m=m, n=n, entries=entries, mu=mu, kappa=(m - 1) // n)
    col_norm_err = np.abs(np.linalg.norm(entries, axis=0) - 1.0).max()
    if col_norm_err > COLUMN_NORM_TOL:
        raise DomainError(f"column norms deviate from 1 by {col_norm_err:g}")
    if row_orthonormality_error(frame) > ROW_ORTHO_TOL:
        raise DomainError("row orthonormality A A^T = (M/N) I failed")
    return frame


def row_orthonormality_error(frame: Frame) -> float:
    """Max-norm deviation of A A^T from (M/N) I."""
    aat = frame.entries @ frame.entries.T
    aat[np.diag_indices(frame.n)] -= frame.m / frame.n
    return float(np.abs(aat).max())


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

