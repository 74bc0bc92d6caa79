"""The block trial kernel against the per-trial reference loop.

reference_trial_counts is the trial loop the harness ran one trial at a time
before trials were stacked into blocks.  It is kept here as the oracle: for
the same (spec, trial range) the kernel must give the same error counts and
the same discards, also when trials are forced to be redrawn.
"""

import dataclasses
import itertools

import numpy as np
import pytest
from scipy.linalg import cho_solve

from compdet import harness
from compdet.errors import NumericalFailure, SingularCovariance, SingularGram
from compdet.model import ModelParams


def reference_trial_counts(spec, params, frame, lo, hi):
    """Error counts for trials [lo, hi), one trial at a time; (counts, discards)."""
    counts = dict.fromkeys(spec.detectors, 0)
    discards = 0
    sigma = params.sigma
    for trial in range(lo, hi):
        stream = harness.RngStream(spec.seed, trial)
        for attempt in range(harness._MAX_ATTEMPTS):
            gen = stream.generator(attempt)
            signals = params.energy * gen.standard_normal((params.t, params.m))
            truth = int(gen.integers(1, params.m + 1)) if spec.randomize_truth else 1
            y = signals[:, truth - 1] + sigma * gen.standard_normal(params.t)
            v = signals.T @ y
            try:
                verdicts = {}
                if "mf" in counts:
                    verdicts["mf"] = harness.detect_mf(v)
                if "mfml" in counts:
                    verdicts["mfml"] = harness.detect_mfml(v, np.einsum("tm,tm->m", signals, signals))
                if frame is not None:
                    gram = signals.T @ signals
                    try:
                        chol_g = np.linalg.cholesky(gram)
                    except np.linalg.LinAlgError as exc:
                        raise SingularGram("Gram matrix is numerically singular") from exc
                    u = frame.entries @ cho_solve((chol_g, True), v)
                    if "ml" in counts and frame.kappa == 1:
                        verdicts["ml"] = harness.detect_ml_full_group(v, gram)
                    elif "ml" in counts:
                        wf = harness.whiten_from_cholesky(frame, chol_g)
                        verdicts["ml"] = harness.detect_ml_whitened(wf, u)
                    if "mrdd" in counts:
                        verdicts["mrdd"] = harness.detect_mrdd(frame, u)
                    if "rdd" in counts:
                        verdicts["rdd"] = harness.detect_rdd(frame, u)
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


def _setup(spec):
    return ModelParams.from_snr(spec.m, spec.t, spec.snr), harness.build_frame_for(spec)


def _both(spec, lo, hi):
    params, frame = _setup(spec)
    return (harness._trial_counts(spec, params, frame, lo, hi),
            reference_trial_counts(spec, params, frame, lo, hi))


KAPPA1 = dict(m=8, t=16, n=7, snr=2.0)  # 256 trials per block
KAPPA3 = dict(m=16, t=32, n=5, snr=1.0)  # 256 trials per block
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
    ref, ref_discards = reference_trial_counts(spec, params, frame, 0, 300)
    assert sum(ref.values()) > 0
    for dets in SUBSETS:
        sub = dataclasses.replace(spec, detectors=dets)
        counts, discards = harness._trial_counts(sub, params, frame, 0, 300)
        assert counts == {d: ref[d] for d in dets}, dets
        assert discards == ref_discards


@pytest.mark.parametrize("config", [
    dict(m=64, t=128, n=21, snr=1.0, detectors=("mfml", "ml", "mrdd", "rdd")),  # 16 per block
    dict(m=64, t=64, n=63, snr=0.25, detectors=("mfml", "ml", "mrdd")),  # T = M, 32 per block
    dict(m=8, t=16, snr=2.0, detectors=("mf", "mfml")),  # no frame, no Gram
], ids=["m64-kappa3", "m64-beta1", "m8-noframe"])
def test_kernel_matches_reference_at_other_block_sizes(config):
    spec = harness.ExperimentSpec(trials=70, seed=3, randomize_truth=True, **config)
    kernel, reference = _both(spec, 3, 70)
    assert kernel == reference


# --- forced discards ---


class _ZeroFirstSignal:
    """Generator proxy that zeroes signal 1 in its first draw: S is rank deficient."""

    def __init__(self, gen):
        self._gen = gen
        self._first = True

    def standard_normal(self, size=None, out=None):
        x = self._gen.standard_normal(size, out=out)
        if self._first:
            x[..., 0] = 0.0
            self._first = False
        return x

    def integers(self, *args, **kwargs):
        return self._gen.integers(*args, **kwargs)


class _ScaledFirstSignal(_ZeroFirstSignal):
    """Generator proxy that scales signal 1 of its first draw by 1e4."""

    def standard_normal(self, size=None, out=None):
        first = self._first
        x = self._gen.standard_normal(size, out=out)
        if first:
            x[..., 0] *= 1e4
            self._first = False
        return x


def _degenerate_streams(monkeypatch, failing: dict):
    """Make attempts 0..failing[id]-1 of the chosen streams draw a singular Gram."""
    base = harness.RngStream

    class DegenerateStream(base):
        def generator(self, attempt=0):
            gen = base.generator(self, attempt)
            return _ZeroFirstSignal(gen) if attempt < failing.get(self.stream_id, 0) else gen

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


def test_forced_discards_give_up_after_max_attempts(monkeypatch):
    _degenerate_streams(monkeypatch, {5: harness._MAX_ATTEMPTS})
    spec = harness.ExperimentSpec(trials=40, seed=1, **LOW_SNR)
    with pytest.raises(NumericalFailure, match="trial 5 failed"):
        harness.run(spec)
    params, frame = _setup(spec)
    with pytest.raises(NumericalFailure, match="trial 5 failed"):
        reference_trial_counts(spec, params, frame, 0, 40)
    monkeypatch.undo()
    _degenerate_streams(monkeypatch, {5: harness._MAX_ATTEMPTS - 1})
    counts, discards = harness._trial_counts(spec, params, frame, 0, 40)
    assert discards == harness._MAX_ATTEMPTS - 1
    assert (counts, discards) == reference_trial_counts(spec, params, frame, 0, 40)


def test_forced_covariance_discards(monkeypatch):
    # At kappa = 3, ML whitens; a trial whose first signal is scaled up is
    # declared to have a singular covariance, for a block or alone.
    failing = {2: 1, 7: 2, 200: 1}
    base = harness.RngStream

    class LoudStream(base):
        def generator(self, attempt=0):
            gen = base.generator(self, attempt)
            if attempt < failing.get(self.stream_id, 0):
                return _ScaledFirstSignal(gen)
            return gen

    whiten = harness.whiten_from_cholesky

    def picky_whiten(frame, chol_g):
        if np.any(chol_g[..., 0, 0] > 1000.0):
            raise SingularCovariance("forced")
        return whiten(frame, chol_g)

    monkeypatch.setattr(harness, "RngStream", LoudStream)
    monkeypatch.setattr(harness, "whiten_from_cholesky", picky_whiten)
    spec = harness.ExperimentSpec(trials=260, seed=4, **dict(KAPPA3, detectors=("mf", "ml", "mrdd")))
    (counts, discards), (ref_counts, ref_discards) = _both(spec, 0, 260)
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
