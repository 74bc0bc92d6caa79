"""Monte Carlo experiment engine.

A trial is drawn by one of three stages.  run uses two of them, picked from
the rule set; all detectors requested for an experiment are evaluated on the
same draws, which makes paired comparisons low-variance.

* Bartlett (_draw_bartlett), for every spec with a compressed rule (ml, mrdd,
  rdd).  Every rule reads only (G, v), so a trial draws the lower Cholesky
  factor C of G ~ W_M(T, E^2 I) directly (Bartlett 1933; Muirhead, Aspects
  of Multivariate Statistical Theory, 1982, section 3.2), and v given C:
  O(M^2) numbers, no signal matrix, no Gram matmul and no Cholesky.  Error
  rates average over the random G, as with the direct draw.  Below
  _HALF_FILL_MIN_M a trial fills an M x M normal matrix and draws its
  gammas with one scalar shape; from it on it fills only L's strict lower
  triangle and draws the gammas with an array of M shapes.
* Conditional (_draw_conditional), for a spec whose rules are only mf and
  mfml: the exact law of (truth, v, column energies) given y, O(T + M) draws.
* Direct (draw_trial): the T x M signal matrix and the noise of one trial,
  the reference sampler the other two are gated against in the tests.

ML on u whitens the frame against G (kappa >= 3), from C, which is G's
Cholesky factor; at kappa = 1 the group frame's null space is the all-ones
line, and ML on u is the matched-filter ML score with that direction
projected out (detectors.full_group_ml_scores), computed from G 1, 1^T G 1
and diag G without whitening.  u itself is formed only when a rule reads it
(mrdd, rdd, whitened ML).

Trials run in blocks through one kernel (_block_verdicts), whose draw
stage is Bartlett or conditional: each trial draws from its own stream into
stacked arrays (_fill_streams, shared by both stages), and every later step
runs once over the stack, through the same BLAS/LAPACK call per trial as a
lone trial would make, so the verdicts do not depend on the block size.
Trials are keyed by stream id, so the result is a pure function of (spec,
seed) and is identical for any worker count or execution order.

run hands whole blocks to a pool of worker threads (_trial_counts), one per
core unless its threads argument caps them.  Each worker draws and
evaluates a block at a time on buffers it keeps across blocks; numpy's
fills and the BLAS/LAPACK calls release the interpreter lock.  While the
kernel runs, the process's OpenBLAS libraries are held at one thread
(_OneBlasThread), so the workers get the cores, and a factor's bits do not
depend on the BLAS thread setting.  Trials of fewer than _THREADED_DRAW_MIN
numbers (M^2 + 2M for Bartlett in either layout, 2T + 2M conditionally) are
bound by the interpreter lock and run on one worker, as does every run where
no OpenBLAS library can be held.
"""

from __future__ import annotations

import ctypes
import dataclasses
import math
import os
import threading
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dpotrs

from . import frames, gf2m, theory
from .detectors import (
    detect_mf, detect_mfml, detect_ml_full_group, detect_ml_whitened, detect_mrdd, detect_rdd,
    whiten_from_cholesky,
)
from .errors import ConfigError, DomainError, NotADivisor, NumericalFailure, SingularCovariance
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
_MAX_BLOCK = 256  # most trials per block, however small a trial is
_BLOCK_BYTES = 1 << 20  # memory budget of one block's stacked draws
# Size of one trial, in numbers, from which a run uses more than one worker:
# 2T + 2M for the conditional draw, and for Bartlett M^2 + 2M, the numbers
# of its full fill, at every M.  The half fill draws M(M+1)/2 fewer, but
# each M keeps the workers and block size measured on the full fill.  On 2
# cores, one worker per core won from 2^12 on and lost at M=8, where the
# interpreter lock binds (scripts/kernel_bench.py --threshold; ROADMAP item 9
# has the runs).
_THREADED_DRAW_MIN = 1 << 12
# Least M whose Bartlett draw takes the half fill (_draw_bartlett): L's
# strict lower triangle and an array of gamma shapes.  The array costs a
# fixed few microseconds a trial, so below it the full fill is faster: the
# Bartlett stage read 17.0 against 14.0 us a trial at M=16, and 28.0 against
# 31.1 at M=32, half against full (medians of 4 rounds on 2 cores;
# scripts/kernel_bench.py --fill, BENCH_21.json "fill").
_HALF_FILL_MIN_M = 32
_CORES = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
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
            try:
                frames.check_shape(self.m, self.n)
            except (DomainError, NotADivisor) as exc:
                raise ConfigError(str(exc)) from exc
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
    its argument checks.  potrs is handed each factor's transpose, an upper
    factor already in Fortran order, which spares f2py a copy of every
    factor (~170 us at M=256); the result agrees with cho_solve's to
    rounding, not bit for bit.
    """
    out = np.empty_like(rhs)
    for i, (factor, vec) in enumerate(zip(chol, rhs)):
        out[i], info = dpotrs(factor.T, vec, lower=0)
        if info:
            raise ValueError(f"illegal value in argument {-info} of LAPACK potrs")
    return out


def _openblas_controls() -> list:
    """(get, set) thread-count functions of each OpenBLAS library the process has loaded.

    numpy's and scipy's wheels each bundle one, exporting
    scipy_openblas_{get,set}_num_threads (numpy's with a 64_ suffix).  Empty
    where /proc/self/maps is absent or no loaded library exports them
    (another OS, or another BLAS).
    """
    try:
        with open("/proc/self/maps") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return []
    controls = []
    for path in sorted({f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5]}):
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # e.g. a "(deleted)" file, replaced since it was loaded
            continue
        for suffix in ("64_", ""):
            names = [f"scipy_openblas_{op}_num_threads{suffix}" for op in ("get", "set")]
            if all(hasattr(lib, name) for name in names):
                get, put = (getattr(lib, name) for name in names)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                controls.append((get, put))
    return controls


class _OneBlasThread:
    """Holds the process's OpenBLAS libraries at one thread while any holder is inside.

    The first holder to enter saves each library's thread count and sets 1;
    the last to leave restores the saved counts, also when it leaves on an
    exception.  The libraries are looked up with find at the first entry,
    not at import.  Entering gives whether any library is held.
    """

    def __init__(self, find):
        self._find = find
        self._controls = None
        self._lock = threading.Lock()
        self._holders = 0
        self._saved = []

    def __enter__(self) -> bool:
        with self._lock:
            if self._controls is None:
                self._controls = self._find()
            if not self._holders:
                self._saved = [get() for get, _ in self._controls]
                for _, put in self._controls:
                    put(1)
            self._holders += 1
            return bool(self._controls)

    def __exit__(self, *exc_info):
        with self._lock:
            self._holders -= 1
            if not self._holders:
                for (_, put), count in zip(self._controls, self._saved):
                    put(count)


_ONE_BLAS_THREAD = _OneBlasThread(_openblas_controls)


def _block_size(floats: int) -> int:
    """Trials per block: as many trials of floats as _BLOCK_BYTES holds, at most _MAX_BLOCK."""
    return max(1, min(_MAX_BLOCK, _BLOCK_BYTES // (8 * floats)))


def _worker_count(floats: int, blocks: int, threads: Optional[int]) -> int:
    """Workers for blocks of trials of floats: one per core, at most threads (if given) and blocks.

    Trials of fewer than _THREADED_DRAW_MIN numbers get one worker.
    The draws of the blocks in flight stay within max(_CORES blocks of
    _BLOCK_BYTES, two trials), however many cores the machine has.
    """
    if floats < _THREADED_DRAW_MIN:
        return 1
    trial_bytes = 8 * floats
    budget = max(_CORES * _BLOCK_BYTES, 2 * trial_bytes)
    fits = budget // (_block_size(floats) * trial_bytes)
    return max(1, min(_CORES, threads or _CORES, blocks, fits))


def _bartlett_work(size: int, params: ModelParams) -> tuple:
    """_draw_bartlett's buffers for blocks of up to size trials, and the constants of its layout.

    (normals, gammas, square, lower, upper, shape).  In the full fill the M x M
    square buffer takes Z's squares, lower is E times the strict lower mask,
    upper the strict upper mask and shape a scalar.  In the half fill square
    holds C, zeroed once here (the draw writes only its lower triangle),
    lower is the flat indices of the strict lower triangle, upper is None and
    shape the array of M shapes.
    """
    m, t = params.m, params.t
    if m >= _HALF_FILL_MIN_M:
        return (np.empty((size, m * (m - 1) // 2 + m)), np.empty((size, m)),
                np.zeros((size, m, m)), np.flatnonzero(np.tri(m, k=-1)), None,
                (t - np.arange(m)) / 2)
    return (np.empty((size, m * m + m)), np.empty((size, m)), np.empty((size, m, m)),
            params.energy * np.tri(m, k=-1), np.triu(np.ones((m, m)), 1), (t - m + 1) / 2)


def _conditional_work(size: int, params: ModelParams) -> tuple:
    """_draw_conditional's (normals, gammas) buffers for blocks of up to size trials."""
    m = params.m
    return np.empty((size, 2 * params.t + m - 1)), np.empty((size, m - 1))


def _fill_streams(seed, m: int, trials: np.ndarray, attempt: int, truth, normals, gammas, shape):
    """Each trial's draws from its stream RngStream(seed, trial) at attempt; returns truth.

    In stream order: the truth in 1..m when truth is None, then one fill of
    the trial's row of normals, then its row of gammas when shape is not None.
    """
    draws_truth = truth is None
    truth = np.empty(len(trials), dtype=np.int64) if draws_truth else truth
    for i, trial in enumerate(trials.tolist()):
        gen = RngStream(seed, trial).generator(attempt)
        if draws_truth:
            truth[i] = gen.integers(1, m + 1)
        gen.standard_normal(out=normals[i])
        if shape is not None:
            gen.standard_gamma(shape, out=gammas[i])
    return truth


def _draw_bartlett(seed, params, trials: np.ndarray, attempt: int, truth, work):
    """(truth, C, v) for a block of trials, all at one attempt, with G = C C^T.

    C is the lower Cholesky factor of G ~ W_M(T, E^2 I): C = E L, with L_ij ~
    N(0, 1) below the diagonal and L_ii^2 ~ chi^2_{T-i+1} (1-based), all
    independent (Bartlett's decomposition).  Given S, S^T z ~ N(0, G), the
    law of C w with w ~ N(0, I_M), so v = G e_k + sigma S^T z has the law of
    C (C^T e_k + sigma w), where C^T e_k is row k of C.  Each trial's stream
    RngStream(seed, trial) draws its truth (when truth is None), then its
    normals in one fill, then M gamma variates X, in one of two layouts:

    * Full fill, M < _HALF_FILL_MIN_M: an M x M normal matrix Z (row-major)
      and w, then X of the one shape (T - M + 1) / 2.  L's strict lower
      triangle is Z's; row i of Z's strict upper triangle holds M - i
      normals, so L_ii^2 = 2 X_i + sum_{j>i} Z_ij^2 is chi^2_{T-M+1} +
      chi^2_{M-i}.
    * Half fill, M >= _HALF_FILL_MIN_M: L's strict lower triangle, packed
      row by row, and w, then X of the shapes (T - i + 1) / 2, so
      L_ii^2 = 2 X_i.  M(M-1)/2 fewer normals, and no masks or row sums.

    work is _bartlett_work's, with room for len(trials) trials; C is a view
    of it.
    """
    b, m = len(trials), params.m
    normals, gammas, square, lower, upper, shape = work
    normals, gammas, square = normals[:b], gammas[:b], square[:b]
    truth = _fill_streams(seed, m, trials, attempt, truth, normals, gammas, shape)
    gammas *= 2.0
    if upper is None:  # the half fill
        packed, w = normals[:, :-m], normals[:, -m:]
        packed *= params.energy
        flat = square.reshape(b, m * m)
        flat[:, lower] = packed
    else:
        flat, w = normals[:, :m * m], normals[:, m * m:]
        z = flat.reshape(b, m, m)
        np.multiply(z, z, out=square)
        square *= upper
        gammas += square.sum(axis=-1)
        z *= lower
    flat[:, ::m + 1] = params.energy * np.sqrt(gammas)  # C's diagonal
    chol = flat.reshape(b, m, m)
    x = chol[np.arange(b), truth - 1]
    w *= params.sigma
    x += w
    return truth, chol, (chol @ x[:, :, None])[:, :, 0]


def _draw_conditional(seed, params, trials: np.ndarray, attempt: int, truth, energies: bool,
                      work):
    """(truth, v, column energies or None) for a block of trials, from their law given y.

    With s_j = E g_j and y = s_k + sigma z, each competitor g_j is independent
    of y, so v_j = E ||y|| n_j and ||s_j||^2 = E^2 (n_j^2 + X_j), with all
    n_j ~ N(0, 1) and X_j ~ chi^2_{T-1} independent.  Each trial's stream
    RngStream(seed, trial) draws its truth (when truth is None), then g_k, z
    and n in one fill, then X / 2 when energies is set, into the (normals,
    gammas) buffers of work.  Column truth - 1 is the truth's.
    """
    b, m, t = len(trials), params.m, params.t
    normals, gammas = (buf[:b] for buf in work)
    truth = _fill_streams(seed, m, trials, attempt, truth, normals, gammas,
                          (t - 1) / 2 if energies else None)
    own, y, others = normals[:, :t], normals[:, t:2 * t], normals[:, 2 * t:]
    own *= params.energy
    y *= params.sigma
    y += own
    competitors = np.ones((b, m), dtype=bool)
    competitors[np.arange(b), truth - 1] = False

    def columns(own_entry, other_entries):
        out = np.empty((b, m))
        out[competitors] = other_entries.ravel()
        out[~competitors] = own_entry
        return out

    energy = None
    if energies:
        gammas *= 2.0
        gammas += others * others
        gammas *= params.energy ** 2
        energy = columns(np.einsum("bt,bt->b", own, own), gammas)
    others *= params.energy * np.sqrt(np.einsum("bt,bt->b", y, y))[:, None]
    return truth, columns(np.einsum("bt,bt->b", own, y), others), energy


def _block_verdicts(spec, params, frame, trials: np.ndarray, attempt: int, work):
    """(truth, {detector: verdicts}, failed) for a block of trials, all at one attempt.

    The trials are drawn by _draw_conditional when frame is None, and by
    _draw_bartlett otherwise; work is that draw's buffers, with room for at
    least len(trials) trials.  mf and mfml read (v, energy) from either draw.
    failed is None, or the mask of the trials that failed (and verdicts is
    empty): a factor with a zero or non-finite diagonal (a singular Gram), or,
    for whitened ML, a singular compressed covariance.
    """
    dets, b = spec.detectors, len(trials)
    truth = None if spec.randomize_truth else np.ones(b, dtype=np.int64)
    if frame is None:
        truth, v, energy = _draw_conditional(spec.seed, params, trials, attempt, truth,
                                             "mfml" in dets, work)
    else:
        truth, chol, v = _draw_bartlett(spec.seed, params, trials, attempt, truth, work)
        diag = np.diagonal(chol, axis1=-2, axis2=-1)
        singular = ~((diag > 0) & (diag < np.inf)).all(axis=-1)
        if singular.any():
            return truth, {}, singular
        whitened = "ml" in dets and frame.kappa != 1
        if "mfml" in dets or ("ml" in dets and not whitened):
            energy = np.einsum("bij,bij->bi", chol, chol)  # diag G: C's squared row norms

    verdicts = {}
    if "mf" in dets:
        verdicts["mf"] = detect_mf(v)
    if "mfml" in dets:
        verdicts["mfml"] = detect_mfml(v, energy)
    if frame is None:
        return truth, verdicts, None
    if "ml" in dets and not whitened:
        g = (chol @ chol.sum(axis=-2)[:, :, None])[:, :, 0]  # G 1 = C (C^T 1)
        verdicts["ml"] = detect_ml_full_group(v, g, energy)
    if whitened:
        try:
            wf = whiten_from_cholesky(frame, chol)
        except SingularCovariance:
            failed = _failures(lambda c: whiten_from_cholesky(frame, c), chol, SingularCovariance)
            return truth, {}, failed
    if whitened or "mrdd" in dets or "rdd" in dets:
        u = frame.apply(cho_solve(chol, v))
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
    """One trial drawn directly from stream.generator(0): the reference sampler.

    Draws the T x M signals S, then the noise z, and forms y = s_truth +
    sigma z, v = S^T y, G = S^T S and, with a frame, u = A G^{-1} v.  run
    draws its trials by the Bartlett or the conditional stage instead, whose
    laws are this draw's but whose numbers differ.
    """
    if frame is not None and frame.m != params.m:
        raise DomainError(f"frame has {frame.m} columns but the model has m={params.m}")
    if not 1 <= truth <= params.m:
        raise DomainError(f"truth index {truth} outside 1..{params.m}")
    gen = stream.generator()
    signals = params.energy * gen.standard_normal((params.t, params.m))
    y = signals[:, truth - 1] + params.sigma * gen.standard_normal(params.t)
    v = signals.T @ y
    with _ONE_BLAS_THREAD:
        gram = gram_matrix(signals)
        u = None if frame is None else frame.apply(cho_solve(gram_cholesky(gram)[None], v[None]))[0]
    return TrialDraw(signals=signals, gram=gram, truth=truth, y=y, v=v, u=u)


def _block_counts(spec, params, frame, trials: np.ndarray, work, counts: dict) -> int:
    """Adds a block's errors to counts; returns the block's discards.

    The block is drawn by Bartlett with a frame, and conditionally without
    one.  A trial whose Gram or covariance is singular is discarded and redrawn
    from its next attempt's stream; the rest of its block is evaluated again
    at the same attempt, which replays the same draws.
    """
    discards = 0
    pending = [(trials, 0)]
    while pending:
        trials, attempt = pending.pop()
        if attempt == _MAX_ATTEMPTS:
            raise NumericalFailure(f"trial {trials[0]} failed {_MAX_ATTEMPTS} redraw attempts")
        truth, verdicts, failed = _block_verdicts(spec, params, frame, trials, attempt, work)
        if failed is not None:
            discards += int(failed.sum())
            pending.append((trials[failed], attempt + 1))
            if not failed.all():
                pending.append((trials[~failed], attempt))
            continue
        for name, verdict in verdicts.items():
            counts[name] += int(np.count_nonzero(verdict != truth))
    return discards


def _trial_counts(spec, params, frame, lo, hi, threads: Optional[int] = 1):
    """Error counts for trials [lo, hi); returns (counts dict, discards).

    frame is None for the conditional draw (only mf and mfml may read it).
    The trials run in blocks (_block_counts) on _worker_count threads, with
    the BLAS held at one thread.  Each worker takes the lowest block not yet
    taken until none is left; once a worker raises, or the wait for them is
    interrupted, the others take no new block.  Counts are summed as
    integers, so they do not depend on which worker ran which block.
    """
    t, m = params.t, params.m
    # A trial's size: the numbers of a full Bartlett fill, or of a conditional draw.
    floats = m * m + 2 * m if frame is not None else 2 * (t + m)
    size = _block_size(floats)
    starts = list(range(lo, hi, size))[::-1]  # taken from the end
    lock = threading.Lock()

    def worker():
        counts, discards = dict.fromkeys(spec.detectors, 0), 0
        # The block buffers live across blocks.  Freeing megabytes at the end of
        # every block lets malloc hand them back to the system, and the next block
        # page-faults them in again: ~400 faults and up to 20% of a trial at M=256.
        work = (_conditional_work if frame is None else _bartlett_work)(size, params)
        while True:
            with lock:
                if not starts:
                    return counts, discards
                start = starts.pop()
            trials = np.arange(start, min(start + size, hi))
            discards += _block_counts(spec, params, frame, trials, work, counts)

    with _ONE_BLAS_THREAD as held:
        workers = _worker_count(floats, len(starts), threads) if held else 1
        if workers == 1:
            parts = [worker()]
        else:
            with ThreadPoolExecutor(workers) as pool:
                futures = [pool.submit(worker) for _ in range(workers)]
                try:
                    wait(futures, return_when=FIRST_EXCEPTION)
                finally:  # after an error or an interrupt, no worker takes a new block
                    with lock:
                        starts.clear()
                parts = [future.result() for future in futures]
    counts = {name: sum(part[name] for part, _ in parts) for name in spec.detectors}
    return counts, sum(discards for _, discards in parts)


def _theory_for(spec: ExperimentSpec, detector: str, mu: Optional[float]):
    """(exponent, upper, lower) for one detector, or Nones where undefined."""
    if detector not in theory.BOUNDED_RULES:
        return None, None, None  # mf, rdd: kept for comparison only, no closed forms
    exp = theory.exponent(detector, spec.beta, spec.alpha, spec.snr)
    return (exp, *theory.finite_bounds(detector, spec.m, spec.n, spec.t, mu, spec.snr, spec.epsilon))


def run(spec: ExperimentSpec, threads: Optional[int] = None) -> ExperimentResult:
    """Run the experiment; deterministic for any worker count.

    threads caps the worker threads; by default there is one per core
    (_worker_count says when fewer run).
    """
    if threads is not None and threads < 1:
        raise ConfigError(f"threads must be at least 1, got {threads}")
    params = ModelParams.from_snr(spec.m, spec.t, spec.snr)
    frame = build_frame_for(spec)
    if frame is not None and frame.mu >= 1:
        raise ConfigError(f"frame coherence {frame.mu} leaves columns indistinguishable")

    # Only the compressed rules read G; with them the trials are drawn by Bartlett, and
    # without them conditionally.
    compressed = any(d in COMPRESSED for d in spec.detectors)
    counts, discarded = _trial_counts(spec, params, frame if compressed else None, 0, spec.trials,
                                      threads)
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


def _count(value) -> int:
    """A sweep value that counts rows or columns, as an int; ConfigError unless it is whole."""
    if not float(value).is_integer():
        raise ConfigError("values on this axis are counts (integers)")
    return int(value)


def spec_for_axis_value(base: ExperimentSpec, axis: str, value) -> ExperimentSpec:
    """Derive the spec for one sweep point; ConfigError names the bad value."""
    try:
        if axis == "alpha":
            return dataclasses.replace(base, n=_count(value))
        if axis == "beta":
            t = round(value * base.m)
            if abs(t - value * base.m) > 1e-9:
                raise ConfigError(f"beta {value} does not give an integer t for m={base.m}")
            return dataclasses.replace(base, t=t)
        if axis == "snr":
            return dataclasses.replace(base, snr=float(value))
        if axis == "m":
            m = _count(value)
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


def sweep(base: ExperimentSpec, axis: str, values, threads: Optional[int] = None) -> list:
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
