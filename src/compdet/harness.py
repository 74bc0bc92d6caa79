"""Monte Carlo experiment engine.

Each trial regenerates the full signal ensemble and the noise, so error
rates average over both (the Gram matrix is random trial to trial).  All
detectors requested for an experiment are evaluated on the same draws, which
makes paired comparisons low-variance, and the Gram Cholesky factor is
computed once per trial and shared.  ML on u whitens the frame against G
(kappa >= 3); at kappa = 1 the group frame's null space is the all-ones line,
and ML on u is the matched-filter ML score with that direction projected out
(detectors.full_group_ml_scores), computed from G without whitening.  u
itself is formed only when a rule reads it (mrdd, rdd, whitened ML).

Trials run in blocks (_block_verdicts): each trial draws from its own
stream into stacked arrays (_draw_block), and every later step runs once
over the stack, through the same BLAS/LAPACK call per trial as a lone trial
would make, so the verdicts do not depend on the block size.  draw_trial is
the same draw and statistics for one trial.  Trials are keyed by stream
id, so the result is a pure function of (spec, seed) and is identical for
any thread count or execution order.

When run uses one thread, a block that forms no Gram (only mf and mfml)
and whose trials each draw at least _THREADED_DRAW_MIN normals draws its
trials on a pool of one thread per core (_draw_block); numpy's fills release
the interpreter lock, and each trial still draws from its own stream alone.
Blocks that form a Gram draw serially: after an OpenBLAS call the second
core stays busy, and threaded draws there measured slower.  With threads > 1
the chunk workers already fill the cores and draw serially.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dpotrs

from . import frames, gf2m, theory
from .detectors import (
    detect_mf, detect_mfml, detect_ml_full_group, detect_ml_whitened, detect_mrdd, detect_rdd,
    whiten_from_cholesky,
)
from .errors import ConfigError, DomainError, NumericalFailure, SingularCovariance, SingularGram
from .model import ModelParams, gram_cholesky, gram_matrix
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
_CHUNK = 256  # trials per work item; a multiple of rng._KEY_BLOCK
_BLOCK_BYTES = 1 << 20  # memory budget of one block's stacked signal matrices
# Normals (T * M) one trial must draw for a Gram-free block to draw on
# threads.  In in-process mf runs on 2 cores, threads lost at T*M <= 2048 and
# in 2 of 3 runs at 4096, and won from 8192 on (ROADMAP item 2 has the runs).
_THREADED_DRAW_MIN = 1 << 13
_DRAW_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count() or 1)


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
        if isinstance(self.detectors, (set, frozenset)):
            raise ConfigError("detectors must be a list or tuple: a set's order, and so the "
                              "CSV row order, changes from process to process")
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
            if self.m < 4 or self.m & (self.m - 1) or self.m > 1 << gf2m.MAX_DEGREE:
                raise ConfigError(f"m must be a power of two in 4..2^{gf2m.MAX_DEGREE} when n is set, got {self.m}")
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


def _failures(fn, stack, error) -> np.ndarray:
    """Mask of the stack items on which fn raises error, found item by item."""
    failed = np.zeros(len(stack), dtype=bool)
    for i, item in enumerate(stack):
        try:
            fn(item)
        except error:
            failed[i] = True
    return failed


def cho_solve(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """G^{-1} v for each trial of a block, from the lower Cholesky factors of G.

    LAPACK potrs per trial, the routine scipy.linalg.cho_solve calls, without
    its argument checks; the result is bit-identical to cho_solve's.
    """
    out = np.empty_like(rhs)
    for i, (factor, vec) in enumerate(zip(chol, rhs)):
        out[i], info = dpotrs(factor, vec, lower=1)
        if info:
            raise ValueError(f"illegal value in argument {-info} of LAPACK potrs")
    return out


def _threaded_draw(params, frame) -> bool:
    """Whether a block's trials may draw on threads: no Gram formed, and large trials."""
    return frame is None and params.t * params.m >= _THREADED_DRAW_MIN and _DRAW_WORKERS > 1


def _block_size(m: int, t: int, threaded: bool) -> int:
    """Trials per block: as many T x M signal matrices as _BLOCK_BYTES holds, at most _CHUNK.

    A threaded block holds at least two trials, so two draw workers have work
    even where one trial fills the budget; a block then holds at most
    max(_BLOCK_BYTES, two trials) of signals on any number of cores.
    """
    size = max(1, min(_CHUNK, _BLOCK_BYTES // (8 * m * t)))
    return max(size, 2) if threaded else size


def _draw_slices(b: int, parts: int) -> list:
    """Rows 0..b-1 as at most parts contiguous ranges of near-equal length."""
    bounds = [b * k // parts for k in range(parts + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


def _draw_block(seed, params, trials: np.ndarray, attempt: int, truth, work, pool=None):
    """(signals, truth, y, v) for a block of trials, all at one attempt.

    Each trial draws from its own stream RngStream(seed, trial) in the order
    signals, truth, noise, exactly as it would alone.  With truth None each
    trial draws its truth, uniform on 1..M; else the given array is used.
    work holds the (signals, noise) buffers, with room for len(trials) trials.
    Given a thread pool, contiguous slices of the trials fill their rows on
    it; each row still comes from its trial's stream alone, so the arrays are
    bit-identical to a serial fill.
    """
    b = len(trials)
    signals, noise = (buf[:b] for buf in work)
    draws_truth = truth is None
    truth = np.empty(b, dtype=np.int64) if draws_truth else truth
    ids = trials.tolist()

    def fill(rows):
        for i in rows:
            # RngStream is looked up at call time, so a replaced harness.RngStream
            # also serves the draw workers.
            gen = RngStream(seed, ids[i]).generator(attempt)
            gen.standard_normal(out=signals[i])
            if draws_truth:
                truth[i] = gen.integers(1, params.m + 1)
            gen.standard_normal(out=noise[i])

    if pool is not None and b > 1:
        # Reading every result raises a worker's exception here.
        list(pool.map(fill, _draw_slices(b, _DRAW_WORKERS)))
    else:
        fill(range(b))
    signals *= params.energy
    y = signals[np.arange(b), :, truth - 1] + params.sigma * noise
    v = (np.swapaxes(signals, 1, 2) @ y[:, :, None])[:, :, 0]
    return signals, truth, y, v


def _block_verdicts(spec, params, frame, trials: np.ndarray, attempt: int, work, pool=None):
    """(truth, {detector: verdicts}, failed) for a block of trials, all at one attempt.

    The trials are drawn by _draw_block, on pool if given.  work holds the
    (signals, noise, Gram) buffers, with room for at least len(trials)
    trials.  failed is None, or, when a Gram or compressed covariance is
    singular, the mask of the trials that failed (and verdicts is empty).
    """
    dets, b = spec.detectors, len(trials)
    truth = None if spec.randomize_truth else np.ones(b, dtype=np.int64)
    signals, truth, _, v = _draw_block(spec.seed, params, trials, attempt, truth, work[:2], pool)

    verdicts = {}
    if "mf" in dets:
        verdicts["mf"] = detect_mf(v)
    if "mfml" in dets:
        verdicts["mfml"] = detect_mfml(v, np.einsum("btm,btm->bm", signals, signals))
    if frame is None:
        return truth, verdicts, None

    gram = gram_matrix(signals, out=work[2][:b])
    try:
        chol_g = gram_cholesky(gram)
    except SingularGram:
        return truth, {}, _failures(gram_cholesky, gram, SingularGram)
    whitened = "ml" in dets and frame.kappa != 1
    if "ml" in dets and not whitened:
        verdicts["ml"] = detect_ml_full_group(v, gram)
    if whitened:
        try:
            wf = whiten_from_cholesky(frame, chol_g)
        except SingularCovariance:
            failed = _failures(lambda c: whiten_from_cholesky(frame, c), chol_g, SingularCovariance)
            return truth, {}, failed
    if whitened or "mrdd" in dets or "rdd" in dets:
        u = frame.apply(cho_solve(chol_g, v))
        if whitened:
            verdicts["ml"] = detect_ml_whitened(wf, u)
        if "mrdd" in dets:
            verdicts["mrdd"] = detect_mrdd(frame, u)
        if "rdd" in dets:
            verdicts["rdd"] = detect_rdd(frame, u)
    return truth, verdicts, None


@dataclass(frozen=True)
class TrialDraw:
    """One simulated realization of signals, noise, and statistics."""

    signals: np.ndarray
    gram: np.ndarray
    truth: int
    y: np.ndarray
    v: np.ndarray
    u: Optional[np.ndarray] = None


def draw_trial(params: ModelParams, stream: RngStream, frame: Optional[frames.Frame] = None,
               truth: int = 1) -> TrialDraw:
    """One trial's draws and statistics: trial stream.stream_id of a kernel block at attempt 0.

    Every array is bit-identical to that trial's in a block of any size with the same truth.
    """
    if frame is not None and frame.m != params.m:
        raise DomainError(f"frame has {frame.m} columns but the model has m={params.m}")
    if not 1 <= truth <= params.m:
        raise DomainError(f"truth index {truth} outside 1..{params.m}")
    work = np.empty((1, params.t, params.m)), np.empty((1, params.t))
    signals, _, y, v = _draw_block(stream.seed, params, np.array([stream.stream_id]), 0,
                                   np.array([truth]), work)
    gram = gram_matrix(signals)
    u = None if frame is None else frame.apply(cho_solve(gram_cholesky(gram), v))[0]
    return TrialDraw(signals=signals[0], gram=gram[0], truth=truth, y=y[0], v=v[0], u=u)


def _trial_counts(spec, params, frame, lo, hi, draw_threads=True):
    """Error counts for trials [lo, hi); returns (counts dict, discards).

    Trials run in blocks (_block_verdicts).  A trial whose Gram or covariance
    is singular is discarded and redrawn from its next attempt's stream; the
    rest of its block is evaluated again at the same attempt, which replays
    the same draws.  With draw_threads set, blocks that _threaded_draw allows
    draw on a pool of _DRAW_WORKERS threads that lives for this call.
    """
    counts = dict.fromkeys(spec.detectors, 0)
    discards = 0
    threaded = draw_threads and _threaded_draw(params, frame)
    size = _block_size(params.m, params.t, threaded)
    # The block buffers live across blocks.  Freeing megabytes at the end of
    # every block lets malloc hand them back to the system, and the next block
    # page-faults them in again: ~400 faults and up to 20% of a trial at M=256.
    t, m = params.t, params.m
    work = np.empty((size, t, m)), np.empty((size, t)), np.empty((size, m, m))
    pending = [(np.arange(start, min(start + size, hi)), 0) for start in range(lo, hi, size)]
    with ThreadPoolExecutor(_DRAW_WORKERS) if threaded else contextlib.nullcontext() as pool:
        while pending:
            trials, attempt = pending.pop()
            if attempt == _MAX_ATTEMPTS:
                raise NumericalFailure(f"trial {trials[0]} failed {_MAX_ATTEMPTS} redraw attempts")
            truth, verdicts, failed = _block_verdicts(spec, params, frame, trials, attempt, work,
                                                      pool)
            if failed is not None:
                discards += int(failed.sum())
                pending.append((trials[failed], attempt + 1))
                if not failed.all():
                    pending.append((trials[~failed], attempt))
                continue
            for name, verdict in verdicts.items():
                counts[name] += int(np.count_nonzero(verdict != truth))
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
            # The chunk workers fill the cores; each draws its blocks serially.
            partials = list(
                pool.map(lambda c: _trial_counts(spec, params, frame, *c, draw_threads=False),
                         chunks)
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
