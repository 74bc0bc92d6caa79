"""Random signal ensembles, their Gram matrix, and the dual signals.

A trial's signals are a T x M matrix S of i.i.d. Gaussian samples, and its
Gram matrix G = S^T S enters every statistic the detectors read.  The trial
pipeline itself (noise, y = s_truth + z, v = S^T y and u = A G^{-1} v) is
harness.draw_trial and the harness's block kernel.

All hypothesis indices in the public API are 1-based; internally they map to
0-based columns of S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.linalg import cho_solve

from .errors import DomainError, SingularGram
from .rng import RngStream

RngLike = Union[RngStream, np.random.Generator]


@dataclass(frozen=True)
class ModelParams:
    """Problem dimensions and noise scales for one detection setup.

    energy is the per-sample signal standard deviation, sigma the noise
    standard deviation, so snr = energy^2 / sigma^2.
    """

    m: int
    t: int
    energy: float = 1.0
    sigma: float = 1.0

    def __post_init__(self):
        if self.m < 2:
            raise DomainError(f"need at least two hypotheses, got m={self.m}")
        if self.t < self.m:
            raise DomainError(
                f"need t >= m for an invertible Gram matrix, got t={self.t}, m={self.m}"
            )
        if not (math.isfinite(self.energy) and self.energy > 0):
            raise DomainError(f"signal scale must be positive and finite, got {self.energy}")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise DomainError(f"noise scale must be positive and finite, got {self.sigma}")

    @property
    def beta(self) -> float:
        return self.t / self.m

    @property
    def snr(self) -> float:
        return (self.energy / self.sigma) ** 2

    @classmethod
    def from_snr(cls, m: int, t: int, snr: float) -> "ModelParams":
        """Fix sigma = 1 and set the signal scale from the target SNR."""
        if not (math.isfinite(snr) and snr > 0):
            raise DomainError(f"snr must be positive and finite, got {snr}")
        return cls(m=m, t=t, energy=math.sqrt(snr), sigma=1.0)


def as_generator(rng: RngLike) -> np.random.Generator:
    """Accept either an RngStream (replayable) or a live numpy Generator."""
    if isinstance(rng, RngStream):
        return rng.generator()
    return rng


def draw_signals(params: ModelParams, rng: RngLike) -> np.ndarray:
    """T x M matrix of i.i.d. N(0, energy^2) samples; column i-1 is signal i."""
    gen = as_generator(rng)
    return params.energy * gen.standard_normal((params.t, params.m))


def gram_matrix(signals: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """G = S^T S, for one T x M signal matrix or one per matrix of a stack."""
    return np.matmul(np.swapaxes(signals, -1, -2), signals, out=out)


def gram_cholesky(gram: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of G, or of each G of a stack; raises SingularGram."""
    if not np.all(np.isfinite(gram)):
        raise SingularGram("Gram matrix contains non-finite entries")
    try:
        return np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise SingularGram("Gram matrix is numerically singular") from exc


def biorthogonal_ensemble(signals: np.ndarray) -> np.ndarray:
    """Dual signals S_hat = S G^{-1}, satisfying S_hat^T S = I.

    Computed through a Cholesky solve rather than an explicit inverse.
    """
    chol = gram_cholesky(gram_matrix(signals))
    return cho_solve((chol, True), signals.T).T
