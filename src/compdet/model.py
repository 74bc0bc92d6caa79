"""Random signal ensembles, noise, and the detection statistics.

One trial draws a T x M matrix S of i.i.d. Gaussian signal samples, observes
y = s_truth + z, and reduces it to the matched-filter vector v = S^T y (which
satisfies v = G b + S^T z with G = S^T S) and, when a sensing frame is
attached, the compressed statistic u = A G^{-1} v.

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
from .frames import Frame
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


def receive(params: ModelParams, signals: np.ndarray, truth: int, rng: RngLike) -> np.ndarray:
    """Observed vector y = s_truth + z with z ~ N(0, sigma^2 I)."""
    if not 1 <= truth <= params.m:
        raise DomainError(f"truth index {truth} outside 1..{params.m}")
    gen = as_generator(rng)
    return signals[:, truth - 1] + params.sigma * gen.standard_normal(params.t)


def matched_filter(signals: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Vector of inner products v_i = <y, s_i>."""
    return signals.T @ y


def gram_matrix(signals: np.ndarray) -> np.ndarray:
    return signals.T @ signals


def gram_cholesky(gram: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of the Gram matrix; raises SingularGram."""
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


def approx_statistic(frame: Frame, gram: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Compressed statistic u = A G^{-1} v (a Cholesky solve, no inverse)."""
    chol = gram_cholesky(gram)
    return frame.apply(cho_solve((chol, True), v))


@dataclass(frozen=True)
class TrialDraw:
    """One simulated realization of signals, noise, and statistics."""

    signals: np.ndarray
    gram: np.ndarray
    truth: int
    y: np.ndarray
    v: np.ndarray
    u: Optional[np.ndarray] = None


def draw_trial(
    params: ModelParams,
    rng: RngLike,
    frame: Optional[Frame] = None,
    truth: int = 1,
) -> TrialDraw:
    """Draw a fresh ensemble and all statistics for one trial.

    The signal matrix and the noise come from the same generator in a fixed
    order, so a TrialDraw is a pure function of (params, rng state, truth).
    """
    if frame is not None and frame.m != params.m:
        raise DomainError(f"frame has {frame.m} columns but the model has m={params.m}")
    gen = as_generator(rng)
    signals = draw_signals(params, gen)
    y = receive(params, signals, truth, gen)
    gram = gram_matrix(signals)
    v = matched_filter(signals, y)
    u = approx_statistic(frame, gram, v) if frame is not None else None
    return TrialDraw(signals=signals, gram=gram, truth=truth, y=y, v=v, u=u)
