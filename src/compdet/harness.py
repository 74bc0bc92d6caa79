"""Monte Carlo experiment engine.

Each trial regenerates the full signal ensemble and the noise, so error
rates average over both (the Gram matrix is random trial to trial).  All
detectors requested for an experiment are evaluated on the same draws, which
makes paired comparisons low-variance, and the Gram Cholesky factor is
computed once per trial and shared.  ML on u whitens the frame against G
(kappa >= 3); at kappa = 1 the group frame's null space is the all-ones line,
and ML on u is the matched-filter ML score with that direction projected out
(detectors.full_group_ml_scores), computed from G without whitening.

Trials are keyed by stream id, so the result is a pure function of
(spec, seed) and is identical for any thread count or execution order.
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import cho_solve

from . import frames, gf2m, theory
from .detectors import (
    detect_mf, detect_mfml, detect_ml_full_group, detect_ml_whitened, detect_mrdd, detect_rdd,
    whiten_from_cholesky,
)
from .errors import ConfigError, NumericalFailure, SingularCovariance, SingularGram
from .model import ModelParams
from .rng import RngStream
from .stats import clopper_pearson

DETECTOR_NAMES = ("mf", "mfml", "ml", "mrdd", "rdd")
COMPRESSED = ("ml", "mrdd", "rdd")

# Reporting guards: empirical exponents from fewer errors than this are
# statistically meaningless, and configs whose bound predicts fewer expected
# errors than this are flagged as undersampled.
MIN_ERRORS_FOR_EXPONENT = 10
MAX_DISCARD_FRACTION = 1e-3
_MAX_ATTEMPTS = 64
_CHUNK = 256


@dataclass(frozen=True)
class ExperimentSpec:
    """Configuration of one Monte Carlo detection experiment."""

    m: int
    t: int
    snr: float
    trials: int
    n: Optional[int] = None
    detectors: tuple = ("mf",)
    seed: int = 0
    epsilon: float = theory.DEFAULT_EPSILON
    ci_level: float = 0.95
    randomize_truth: bool = False

    def __post_init__(self):
        if isinstance(self.detectors, (list, set)):
            object.__setattr__(self, "detectors", tuple(self.detectors))
        if self.m < 2:
            raise ConfigError(f"m must be at least 2, got {self.m}")
        if self.t < self.m:
            raise ConfigError(f"t must be at least m (Gram invertibility), got t={self.t}, m={self.m}")
        if self.trials < 1:
            raise ConfigError(f"trials must be at least 1, got {self.trials}")
        if not (math.isfinite(self.snr) and self.snr > 0):
            raise ConfigError(f"snr must be positive and finite, got {self.snr}")
        if not self.detectors:
            raise ConfigError("at least one detector must be requested")
        unknown = [d for d in self.detectors if d not in DETECTOR_NAMES]
        if unknown:
            raise ConfigError(f"unknown detectors {unknown}; choose from {DETECTOR_NAMES}")
        if len(set(self.detectors)) != len(self.detectors):
            raise ConfigError(f"duplicate detectors in {self.detectors}")
        needs_frame = any(d in COMPRESSED for d in self.detectors)
        if needs_frame and self.n is None:
            raise ConfigError("compressed detectors (ml/mrdd/rdd) require n")
        if self.n is not None:
            if self.m < 4 or self.m & (self.m - 1):
                raise ConfigError(f"m must be a power of two >= 4 when n is set, got {self.m}")
            if (self.m - 1) % self.n != 0:
                raise ConfigError(f"n must divide m-1, got n={self.n}, m-1={self.m - 1}")
            if self.n < 2:
                raise ConfigError("n=1 gives a frame with coherence 1; detection is impossible")
        if not 0 < self.ci_level < 1:
            raise ConfigError(f"ci_level must be in (0, 1), got {self.ci_level}")
        if self.epsilon <= 0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")

    @property
    def beta(self) -> float:
        return self.t / self.m

    @property
    def alpha(self) -> Optional[float]:
        return None if self.n is None else self.n / self.m


@dataclass(frozen=True)
class DetectorStats:
    """Per-detector outcome of one experiment."""

    detector: str
    trials: int
    errors: int
    p_hat: float
    ci: tuple
    emp_exponent: Optional[float]
    theory_exponent: Optional[float]
    bound_upper: Optional[float]
    bound_lower: Optional[float]
    undersampled: bool


@dataclass(frozen=True)
class ExperimentResult:
    spec: ExperimentSpec
    per_detector: dict
    discarded_trials: int


def build_frame_for(spec: ExperimentSpec) -> Optional[frames.Frame]:
    if spec.n is None:
        return None
    r = spec.m.bit_length() - 1
    return frames.build_group_hadamard(gf2m.FieldCtx.standard(r), spec.n)


def _trial_counts(spec, params, frame, lo, hi):
    """Error counts for trials [lo, hi); returns (counts dict, discards)."""
    counts = dict.fromkeys(spec.detectors, 0)
    discards = 0
    sigma = params.sigma
    for trial in range(lo, hi):
        stream = RngStream(spec.seed, trial)
        for attempt in range(_MAX_ATTEMPTS):
            gen = stream.generator(attempt)
            signals = params.energy * gen.standard_normal((params.t, params.m))
            truth = int(gen.integers(1, params.m + 1)) if spec.randomize_truth else 1
            y = signals[:, truth - 1] + sigma * gen.standard_normal(params.t)
            v = signals.T @ y
            try:
                verdicts = {}
                if "mf" in counts:
                    verdicts["mf"] = detect_mf(v)
                if "mfml" in counts:
                    verdicts["mfml"] = detect_mfml(v, np.einsum("tm,tm->m", signals, signals))
                if frame is not None:
                    gram = signals.T @ signals
                    try:
                        chol_g = np.linalg.cholesky(gram)
                    except np.linalg.LinAlgError as exc:
                        raise SingularGram("Gram matrix is numerically singular") from exc
                    u = frame.entries @ cho_solve((chol_g, True), v)
                    if "ml" in counts and frame.kappa == 1:
                        verdicts["ml"] = detect_ml_full_group(v, gram)
                    elif "ml" in counts:
                        wf = whiten_from_cholesky(frame, chol_g)
                        verdicts["ml"] = detect_ml_whitened(wf, u)
                    if "mrdd" in counts:
                        verdicts["mrdd"] = detect_mrdd(frame, u)
                    if "rdd" in counts:
                        verdicts["rdd"] = detect_rdd(frame, u)
            except (SingularGram, SingularCovariance):
                discards += 1
                continue
            for name, verdict in verdicts.items():
                if verdict != truth:
                    counts[name] += 1
            break
        else:
            raise NumericalFailure(f"trial {trial} failed {_MAX_ATTEMPTS} redraw attempts")
    return counts, discards


def _theory_for(spec: ExperimentSpec, detector: str, mu: Optional[float]):
    """(exponent, upper, lower) for one detector, or Nones where undefined."""
    beta = spec.beta
    if detector == "mfml":
        exp = theory.exponent_mf(beta, spec.snr)
        upper, lower = theory.finite_bounds_mf(spec.m, spec.t, spec.snr, spec.epsilon)
        return exp, upper, lower
    if detector == "ml":
        exp = theory.exponent_ml(beta, spec.alpha, spec.snr)
        upper, lower = theory.finite_bounds_ml(spec.m, spec.n, spec.t, mu, spec.snr, spec.epsilon)
        return exp, upper, lower
    if detector == "mrdd":
        exp = theory.exponent_mrdd(beta, spec.alpha, spec.snr)
        upper, lower = theory.finite_bounds_mrdd(spec.m, spec.n, spec.t, mu, spec.snr, spec.epsilon)
        return exp, upper, lower
    return None, None, None  # mf, rdd: kept for comparison only, no closed forms


def run(spec: ExperimentSpec, threads: int = 1) -> ExperimentResult:
    """Run the experiment; deterministic for any thread count."""
    if threads < 1:
        raise ConfigError(f"threads must be at least 1, got {threads}")
    params = ModelParams.from_snr(spec.m, spec.t, spec.snr)
    frame = build_frame_for(spec)
    if frame is not None and frame.mu >= 1:
        raise ConfigError(f"frame coherence {frame.mu} leaves columns indistinguishable")

    chunks = [(lo, min(lo + _CHUNK, spec.trials)) for lo in range(0, spec.trials, _CHUNK)]
    if threads == 1:
        partials = [_trial_counts(spec, params, frame, lo, hi) for lo, hi in chunks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(
                pool.map(lambda c: _trial_counts(spec, params, frame, *c), chunks)
            )

    counts = dict.fromkeys(spec.detectors, 0)
    discarded = 0
    for part, disc in partials:
        discarded += disc
        for name in counts:
            counts[name] += part[name]
    if discarded > MAX_DISCARD_FRACTION * spec.trials:
        raise NumericalFailure(
            f"{discarded} of {spec.trials} trials discarded; ensemble is numerically degenerate"
        )

    mu = frame.mu if frame is not None else None
    per_detector = {}
    for name in spec.detectors:
        errors = counts[name]
        p_hat = errors / spec.trials
        ci = clopper_pearson(errors, spec.trials, spec.ci_level)
        emp = -math.log(p_hat) / spec.m if errors >= MIN_ERRORS_FOR_EXPONENT else None
        exp, upper, lower = _theory_for(spec, name, mu)
        undersampled = upper is not None and upper < MIN_ERRORS_FOR_EXPONENT / spec.trials
        per_detector[name] = DetectorStats(
            detector=name,
            trials=spec.trials,
            errors=errors,
            p_hat=p_hat,
            ci=ci,
            emp_exponent=emp,
            theory_exponent=exp,
            bound_upper=upper,
            bound_lower=lower,
            undersampled=undersampled,
        )
    return ExperimentResult(spec=spec, per_detector=per_detector, discarded_trials=discarded)


SWEEP_AXES = ("alpha", "beta", "snr", "m")


def spec_for_axis_value(base: ExperimentSpec, axis: str, value) -> ExperimentSpec:
    """Derive the spec for one sweep point; ConfigError names the bad value."""
    try:
        if axis == "alpha":
            n = int(value)
            if n != value:
                raise ConfigError("alpha sweep values are row counts n (integers)")
            return dataclasses.replace(base, n=n)
        if axis == "beta":
            t = round(value * base.m)
            if abs(t - value * base.m) > 1e-9:
                raise ConfigError(f"beta {value} does not give an integer t for m={base.m}")
            return dataclasses.replace(base, t=t)
        if axis == "snr":
            return dataclasses.replace(base, snr=float(value))
        if axis == "m":
            m = int(value)
            changes = {"m": m, "t": round(base.beta * m)}
            if abs(changes["t"] - base.beta * m) > 1e-9:
                raise ConfigError(f"beta {base.beta} does not give an integer t for m={m}")
            if base.n is not None:
                kappa = (base.m - 1) // base.n
                if (m - 1) % kappa != 0:
                    raise ConfigError(f"kappa {kappa} does not divide m-1 = {m - 1}")
                changes["n"] = (m - 1) // kappa
            return dataclasses.replace(base, **changes)
        raise ConfigError(f"unknown sweep axis {axis!r}; choose from {SWEEP_AXES}")
    except ConfigError as exc:
        raise ConfigError(f"axis {axis}={value!r}: {exc}") from exc


def sweep(base: ExperimentSpec, axis: str, values, threads: int = 1) -> list:
    """One experiment per axis value, all derived from the base spec."""
    specs = [spec_for_axis_value(base, axis, v) for v in values]
    return [run(s, threads=threads) for s in specs]


@dataclass(frozen=True)
class SandwichVerdict:
    """Comparison of an empirical error rate against its bound pair.

    The upper bound is a hard requirement (the CI lower edge must not exceed
    it); the lower bound is an asymptotic floor and is reported as a ratio
    only.  flag is "ok", "vacuous" (bound >= 1 says nothing) or
    "insufficient-trials" (CI wider than the bound, cannot resolve it).
    """

    detector: str
    upper_pass: bool
    flag: str
    p_hat: float
    bound_upper: float
    bound_lower: float
    lower_ratio: Optional[float]


def bound_sandwich_check(result: ExperimentResult) -> dict:
    """Check every bounded detector of a result against its bound pair."""
    verdicts = {}
    for name, det in result.per_detector.items():
        if det.bound_upper is None:
            continue
        ci_lo, ci_hi = det.ci
        upper_pass = ci_lo <= det.bound_upper
        if det.bound_upper >= 1:
            flag = "vacuous"
        elif ci_hi - ci_lo > det.bound_upper:
            flag = "insufficient-trials"
        else:
            flag = "ok"
        ratio = det.p_hat / det.bound_lower if det.bound_lower and det.bound_lower > 0 else None
        verdicts[name] = SandwichVerdict(
            detector=name,
            upper_pass=upper_pass,
            flag=flag,
            p_hat=det.p_hat,
            bound_upper=det.bound_upper,
            bound_lower=det.bound_lower,
            lower_ratio=ratio,
        )
    return verdicts
