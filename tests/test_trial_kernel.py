"""The block trial kernel against per-trial reference loops.

bartlett_reference_counts draws each trial as the kernel's Bartlett stage
does, from the same stream in the same order and in the same layout (the
full fill below harness._HALF_FILL_MIN_M, the half fill from it on), one
trial at a time and with plain dense algebra: it forms G = C C^T and reads
every statistic from it.
It is the oracle for the kernel's blocks: for the same (spec, trial range)
the kernel must give the same error counts and the same discards, also when
trials are forced to be redrawn.

reference_trial_counts is the direct draw, one trial at a time: the T x M
signal matrix, the noise, the Gram and its Cholesky factor.  It is the
reference the Bartlett and conditional stages are gated against
(test_bartlett_sampler.py, test_conditional_sampler.py): their laws must be
its law, while their numbers differ.
"""

import dataclasses
import functools
import itertools

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.lapack import dpotrs, dtrtrs

from compdet import harness
from compdet.detectors import WhitenedFrame
from compdet.errors import NumericalFailure, SingularCovariance, SingularGram
from compdet.model import ModelParams


def _solution(x, info):
    """x of a LAPACK call's (x, info); a nonzero info raises."""
    if info:
        raise ValueError(f"LAPACK info {info}")
    return x


def _cho_solve(chol_g, v):
    """G^{-1} v from G's lower factor: scipy.linalg.cho_solve's potrs call, without its checks."""
    return _solution(*dpotrs(chol_g, v, lower=1))


def _whiten(frame, chol_g):
    """harness.whiten_from_cholesky of one factor, with the trtrs calls of its solve_triangular.

    solve_triangular hands trtrs a C-ordered lower factor as its transpose,
    an upper factor in Fortran order, and solves the transposed system.
    """
    x = _solution(*dtrtrs(chol_g.T, frame.entries.T, lower=0, trans=1))
    try:
        chol_c = np.linalg.cholesky(x.T @ x)
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance("compressed covariance is numerically singular") from exc
    columns = _solution(*dtrtrs(chol_c.T, frame.entries, lower=0, trans=1))
    return WhitenedFrame(chol_c=chol_c, columns=columns, col_sqnorm=(columns * columns).sum(axis=-2))


# The reference loops' (cho_solve, whiten): LAPACK without argument checks,
# and the checked scipy and harness calls it replaced, with the same counts.
LAPACK = (_cho_solve, _whiten)
CHECKED = (lambda chol_g, v: scipy.linalg.cho_solve((chol_g, True), v), harness.whiten_from_cholesky)


def _verdicts(frame, counts, v, gram, chol_g, linalg):
    """Every requested rule's verdict on one trial's statistics, solving with linalg."""
    cho_solve, whiten = linalg
    u = frame.entries @ cho_solve(chol_g, v)
    verdicts = {}
    if "mf" in counts:
        verdicts["mf"] = harness.detect_mf(v)
    if "mfml" in counts:
        verdicts["mfml"] = harness.detect_mfml(v, np.diag(gram))
    if "ml" in counts and frame.kappa == 1:
        verdicts["ml"] = harness.detect_ml_full_group(v, gram.sum(axis=1), np.diag(gram))
    elif "ml" in counts:
        wf = whiten(frame, chol_g)
        verdicts["ml"] = harness.detect_ml_whitened(wf, u)
    if "mrdd" in counts:
        verdicts["mrdd"] = harness.detect_mrdd(frame, u)
    if "rdd" in counts:
        verdicts["rdd"] = harness.detect_rdd(frame, u)
    return verdicts


def _reference_loop(spec, lo, hi, draw):
    """(counts, discards) for trials [lo, hi), each trial's attempts drawn by draw(gen)."""
    counts = dict.fromkeys(spec.detectors, 0)
    discards = 0
    for trial in range(lo, hi):
        stream = harness.RngStream(spec.seed, trial)
        for attempt in range(harness._MAX_ATTEMPTS):
            try:
                truth, verdicts = draw(stream.generator(attempt), counts)
            except (SingularGram, SingularCovariance):
                discards += 1
                continue
            for name, verdict in verdicts.items():
                if verdict != truth:
                    counts[name] += 1
            break
        else:
            raise NumericalFailure(f"trial {trial} failed {harness._MAX_ATTEMPTS} redraw attempts")
    return counts, discards


def reference_trial_counts(spec, params, frame, lo, hi, linalg=LAPACK):
    """Error counts for trials [lo, hi) of the direct draw, one trial at a time; (counts, discards)."""
    def draw(gen, counts):
        signals = params.energy * gen.standard_normal((params.t, params.m))
        truth = int(gen.integers(1, params.m + 1)) if spec.randomize_truth else 1
        y = signals[:, truth - 1] + params.sigma * gen.standard_normal(params.t)
        v = signals.T @ y
        gram = signals.T @ signals
        try:
            chol_g = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError as exc:
            raise SingularGram("Gram matrix is numerically singular") from exc
        return truth, _verdicts(frame, counts, v, gram, chol_g, linalg)

    return _reference_loop(spec, lo, hi, draw)


@functools.lru_cache(maxsize=None)
def direct_counts(spec):
    """reference_trial_counts over all of spec's trials; computed once per spec in a session."""
    params, frame = _setup(spec)
    return reference_trial_counts(spec, params, frame, 0, spec.trials)


def bartlett_reference_counts(spec, params, frame, lo, hi, linalg=LAPACK):
    """Error counts for trials [lo, hi) of the Bartlett draw, one trial at a time; (counts, discards)."""
    m = params.m

    def full_fill(gen):
        normals = gen.standard_normal(m * m + m)
        gammas = gen.standard_gamma((params.t - m + 1) / 2, m)
        z, w = normals[:m * m].reshape(m, m), normals[m * m:]
        chol = params.energy * np.tril(z, -1)
        for i in range(m):
            chol[i, i] = params.energy * np.sqrt(2 * gammas[i] + np.sum(z[i, i + 1:] ** 2))
        return chol, w

    def half_fill(gen):
        normals = gen.standard_normal(m * (m - 1) // 2 + m)
        gammas = gen.standard_gamma((params.t - np.arange(m)) / 2, m)  # (T - i + 1) / 2, 1-based i
        chol = np.zeros((m, m))
        chol[np.tril_indices(m, -1)] = params.energy * normals[:-m]
        for i in range(m):
            chol[i, i] = params.energy * np.sqrt(2 * gammas[i])
        return chol, normals[-m:]

    def draw(gen, counts):
        truth = int(gen.integers(1, m + 1)) if spec.randomize_truth else 1
        chol, w = (half_fill if m >= harness._HALF_FILL_MIN_M else full_fill)(gen)
        if not np.all(np.diag(chol) > 0) or not np.all(np.isfinite(chol)):
            raise SingularGram("the factor has a zero or non-finite diagonal")
        v = chol @ (chol[truth - 1] + params.sigma * w)
        return truth, _verdicts(frame, counts, v, chol @ chol.T, chol, linalg)

    return _reference_loop(spec, lo, hi, draw)


def _setup(spec):
    return ModelParams.from_snr(spec.m, spec.t, spec.snr), harness.build_frame_for(spec)


def _both(spec, lo, hi):
    params, frame = _setup(spec)
    return (harness._trial_counts(spec, params, frame, lo, hi),
            bartlett_reference_counts(spec, params, frame, lo, hi))


KAPPA1 = dict(m=8, t=16, n=7, snr=2.0)  # 256 trials per block
KAPPA3 = dict(m=16, t=32, n=5, snr=1.0)  # 256 trials per block
# Drawn by the half fill; 31 trials per block.
HALF_FILL_KAPPA1 = dict(m=64, t=128, n=63, snr=0.05)
HALF_FILL_KAPPA3 = dict(m=64, t=128, n=21, snr=0.1)
SUBSETS = [d for r in range(1, 6) for d in itertools.combinations(harness.DETECTOR_NAMES, r)]


@pytest.mark.parametrize("config", [KAPPA1, KAPPA3], ids=["kappa1", "kappa3"])
@pytest.mark.parametrize("randomize_truth", [False, True])
@pytest.mark.parametrize("seed", [0, 5, 606])
def test_kernel_matches_reference_for_every_detector_set(config, randomize_truth, seed):
    # One reference run of all five rules gives every subset's counts: each
    # rule reads only its own trial's draws.  300 trials span a full and a
    # partial block.
    spec = harness.ExperimentSpec(trials=300, detectors=harness.DETECTOR_NAMES, seed=seed,
                                  randomize_truth=randomize_truth, **config)
    params, frame = _setup(spec)
    ref, ref_discards = bartlett_reference_counts(spec, params, frame, 0, 300)
    assert sum(ref.values()) > 0
    for dets in SUBSETS:
        sub = dataclasses.replace(spec, detectors=dets)
        counts, discards = harness._trial_counts(sub, params, frame, 0, 300)
        assert counts == {d: ref[d] for d in dets}, dets
        assert discards == ref_discards


@pytest.mark.parametrize("config", [KAPPA1, KAPPA3, HALF_FILL_KAPPA3], ids=["m8", "m16", "m64"])
@pytest.mark.parametrize("loop", [reference_trial_counts, bartlett_reference_counts],
                         ids=["direct", "bartlett"])
def test_lapack_reference_loops_match_the_checked_calls(config, loop):
    spec = harness.ExperimentSpec(trials=150, detectors=harness.DETECTOR_NAMES, seed=12,
                                  randomize_truth=True, **config)
    params, frame = _setup(spec)
    lapack = loop(spec, params, frame, 0, spec.trials)
    assert sum(lapack[0].values()) > 0
    assert lapack == loop(spec, params, frame, 0, spec.trials, CHECKED)


@pytest.mark.parametrize("config", [
    dict(m=64, t=128, n=21, snr=1.0, detectors=("mfml", "ml", "mrdd", "rdd")),  # 31 per block
    dict(m=64, t=64, n=63, snr=0.25, detectors=("mfml", "ml", "mrdd")),  # T = M, 31 per block
    dict(m=32, t=64, n=31, snr=1.0, detectors=("mf", "mfml", "rdd")),  # kappa = 1, 120 per block
], ids=["m64-kappa3", "m64-beta1", "m32-kappa1"])
def test_kernel_matches_reference_at_other_block_sizes(config):
    spec = harness.ExperimentSpec(trials=70, seed=3, randomize_truth=True, **config)
    kernel, reference = _both(spec, 3, 70)
    assert kernel == reference


def _bartlett_draw(config):
    """(draw(trials, attempt, truth, work), work of a size, output names) of the Bartlett stage."""
    params = ModelParams.from_snr(config["m"], config["t"], config["snr"])
    return (functools.partial(harness._draw_bartlett, 13, params),
            lambda size: harness._bartlett_work(size, params), ("truth", "C", "v"))


def _conditional_draw(energies):
    """The same for the conditional stage at M=256, T=512, with or without column energies."""
    params = ModelParams.from_snr(256, 512, 0.03)

    def draw(trials, attempt, truth, work):
        return harness._draw_conditional(13, params, trials, attempt, truth, energies, work)

    return (draw, lambda size: harness._conditional_work(size, params), ("truth", "v", "energy"))


@pytest.mark.parametrize("stage", [
    lambda: _bartlett_draw(KAPPA1), lambda: _bartlett_draw(HALF_FILL_KAPPA3),
    lambda: _conditional_draw(False), lambda: _conditional_draw(True),
], ids=["m8-full-fill", "m64-half-fill", "m256-conditional", "m256-conditional-energies"])
@pytest.mark.parametrize("randomize_truth", [False, True])
def test_a_trial_drawn_alone_replays_its_block_draw(stage, randomize_truth):
    # A trial's stream is addressed by its id and attempt alone: drawn in a
    # one-trial block on fresh buffers, trial k gives the bits it gave inside a
    # block drawn after other blocks on the same buffers.
    draw, work_for, names = stage()
    size = 40
    work = work_for(size)
    truth, one = (None, None) if randomize_truth else (np.ones(size, dtype=np.int64),
                                                       np.ones(1, dtype=np.int64))
    for attempt in (0, 1):
        for start in (0, size, 3 * size):
            block = draw(np.arange(start, start + size), attempt, truth, work)
        for i in (0, 17, size - 1):
            alone = draw(np.array([start + i]), attempt, one, work_for(1))
            for name, got, want in zip(names, alone, block):
                if want is None:  # no energies drawn
                    assert got is None, name
                    continue
                assert got[0].tobytes() == want[i].tobytes(), (attempt, i, name)


# --- forced discards ---


class _ZeroLastGamma:
    """Generator proxy whose gamma fill ends in 0: the factor's last diagonal entry is 0."""

    def __init__(self, gen):
        self._gen = gen

    def standard_normal(self, *args, **kwargs):
        return self._gen.standard_normal(*args, **kwargs)

    def integers(self, *args, **kwargs):
        return self._gen.integers(*args, **kwargs)

    def standard_gamma(self, shape, size=None, out=None):
        x = self._gen.standard_gamma(shape, size, out=out)
        x[..., -1] = 0.0
        return x


class _ScaledFirstRow(_ZeroLastGamma):
    """Generator proxy that scales the first M normals (row 1 of Z) by 1e4: C_11 is large."""

    def __init__(self, gen, m):
        super().__init__(gen)
        self._m = m

    def standard_normal(self, *args, **kwargs):
        x = self._gen.standard_normal(*args, **kwargs)
        x[..., :self._m] *= 1e4
        return x

    def standard_gamma(self, *args, **kwargs):
        return self._gen.standard_gamma(*args, **kwargs)


def _degenerate_streams(monkeypatch, failing: dict):
    """Make attempts 0..failing[id]-1 of the chosen streams draw a factor with a zero diagonal."""
    base = harness.RngStream

    class DegenerateStream(base):
        def generator(self, attempt=0):
            gen = base.generator(self, attempt)
            return _ZeroLastGamma(gen) if attempt < failing.get(self.stream_id, 0) else gen

    monkeypatch.setattr(harness, "RngStream", DegenerateStream)


# Low SNR, so verdicts drawn from a wrong attempt would disagree often.
LOW_SNR = dict(m=8, t=16, n=7, snr=0.2, detectors=harness.DETECTOR_NAMES)
FAILING = {0: 1, 3: 1, 4: 2, 100: 1, 255: 3, 256: 1, 299: 1} | {k: 1 for k in range(120, 150)}


@pytest.mark.parametrize("randomize_truth", [False, True])
def test_forced_gram_discards_redraw_at_the_next_attempt(monkeypatch, randomize_truth):
    _degenerate_streams(monkeypatch, FAILING)
    spec = harness.ExperimentSpec(trials=300, seed=8, randomize_truth=randomize_truth, **LOW_SNR)
    (counts, discards), (ref_counts, ref_discards) = _both(spec, 0, 300)
    assert discards == ref_discards == sum(FAILING.values())
    assert counts == ref_counts
    # Trial by trial: each redrawn trial's verdicts come from its first good attempt.
    for k in FAILING:
        kernel, reference = _both(spec, k, k + 1)
        assert kernel == reference


@pytest.mark.parametrize("config", [HALF_FILL_KAPPA1, HALF_FILL_KAPPA3], ids=["kappa1", "kappa3"])
@pytest.mark.parametrize("forced", [{}, {0: 1, 5: 2, 31: 1, 39: 1}], ids=["clean", "discards"])
def test_kernel_matches_reference_in_the_half_fill(monkeypatch, config, forced):
    assert config["m"] >= harness._HALF_FILL_MIN_M
    _degenerate_streams(monkeypatch, forced)
    spec = harness.ExperimentSpec(trials=40, seed=21, randomize_truth=True,
                                  detectors=harness.DETECTOR_NAMES, **config)
    (counts, discards), (ref_counts, ref_discards) = _both(spec, 0, 40)
    assert discards == ref_discards == sum(forced.values())
    assert counts == ref_counts
    assert all(counts.values()), counts


def test_forced_discards_give_up_after_max_attempts(monkeypatch):
    _degenerate_streams(monkeypatch, {5: harness._MAX_ATTEMPTS})
    spec = harness.ExperimentSpec(trials=40, seed=1, **LOW_SNR)
    with pytest.raises(NumericalFailure, match="trial 5 failed"):
        harness.run(spec)
    params, frame = _setup(spec)
    with pytest.raises(NumericalFailure, match="trial 5 failed"):
        bartlett_reference_counts(spec, params, frame, 0, 40)
    monkeypatch.undo()
    _degenerate_streams(monkeypatch, {5: harness._MAX_ATTEMPTS - 1})
    counts, discards = harness._trial_counts(spec, params, frame, 0, 40)
    assert discards == harness._MAX_ATTEMPTS - 1
    assert (counts, discards) == bartlett_reference_counts(spec, params, frame, 0, 40)


def test_forced_covariance_discards(monkeypatch):
    # At kappa = 3, ML whitens; a trial whose first factor entry is scaled
    # up is declared to have a singular covariance, for a block or alone.
    failing = {2: 1, 7: 2, 200: 1}
    base = harness.RngStream

    class LoudStream(base):
        def generator(self, attempt=0):
            gen = base.generator(self, attempt)
            if attempt < failing.get(self.stream_id, 0):
                return _ScaledFirstRow(gen, KAPPA3["m"])
            return gen

    def picky(whiten):
        def picky_whiten(frame, chol_g):
            if np.any(chol_g[..., 0, 0] > 1000.0):
                raise SingularCovariance("forced")
            return whiten(frame, chol_g)
        return picky_whiten

    monkeypatch.setattr(harness, "RngStream", LoudStream)
    monkeypatch.setattr(harness, "whiten_from_cholesky", picky(harness.whiten_from_cholesky))
    spec = harness.ExperimentSpec(trials=260, seed=4, **dict(KAPPA3, detectors=("mf", "ml", "mrdd")))
    params, frame = _setup(spec)
    counts, discards = harness._trial_counts(spec, params, frame, 0, 260)
    ref_counts, ref_discards = bartlett_reference_counts(spec, params, frame, 0, 260,
                                                         (_cho_solve, picky(_whiten)))
    assert discards == ref_discards == 4
    assert counts == ref_counts


# --- u only where a rule reads it ---


def test_ml_alone_at_kappa_one_forms_no_u(monkeypatch):
    def no_solve(*args):
        raise AssertionError("u formed although no rule reads it")

    monkeypatch.setattr(harness, "cho_solve", no_solve)
    spec = harness.ExperimentSpec(trials=300, seed=0, detectors=("mf", "mfml", "ml"), **KAPPA1)
    harness.run(spec)
    for dets in (("ml", "mrdd"), ("rdd",)):
        with pytest.raises(AssertionError, match="u formed"):
            harness.run(dataclasses.replace(spec, detectors=dets))
    with pytest.raises(AssertionError, match="u formed"):
        harness.run(harness.ExperimentSpec(trials=10, detectors=("ml",), **KAPPA3))


def test_ml_alone_keeps_the_gram_discards(monkeypatch):
    _degenerate_streams(monkeypatch, {1: 1, 2: 2})
    spec = harness.ExperimentSpec(trials=20, seed=2, detectors=("ml",), **KAPPA1)
    (counts, discards), (ref_counts, ref_discards) = _both(spec, 0, 20)
    assert discards == ref_discards == 3
    assert counts == ref_counts
