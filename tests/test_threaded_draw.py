"""Gram-free blocks drawn on threads against the lone-trial draw and the reference loop.

A block that forms no Gram and whose trials are large draws its trials on a
pool of draw threads when run uses one thread.  Each trial must still draw
exactly what it draws alone, so draw_trial, the per-trial reference loop and
every thread count give the same bits and counts.
"""

import collections
import threading

import numpy as np
import pytest

from compdet import harness
from test_trial_kernel import KAPPA1, _both, _setup, reference_trial_counts

MF_LARGE = dict(m=256, t=512, snr=0.03, detectors=("mf", "mfml"))  # threaded, 2 trials a block
MF_ABOVE = dict(m=64, t=129, snr=0.03, detectors=("mf", "mfml"))  # T*M just above the threshold
MF_BELOW = dict(m=64, t=127, snr=0.03, detectors=("mf", "mfml"))  # T*M just below it


@pytest.fixture
def two_draw_workers(monkeypatch):
    """Two draw workers on any machine, so blocks above the threshold draw on threads."""
    monkeypatch.setattr(harness, "_DRAW_WORKERS", 2)


def test_threshold_sits_between_the_test_configs():
    for config, threaded in ((MF_ABOVE, True), (MF_BELOW, False)):
        assert (config["m"] * config["t"] >= harness._THREADED_DRAW_MIN) is threaded


def _threaded_block_draws(monkeypatch, spec):
    """Every trial's (signals, y, v) as the kernel's blocks drew them, and the stream opens."""
    params, frame = _setup(spec)
    rows, opens, lock = {}, collections.Counter(), threading.Lock()
    real_draw, base = harness._draw_block, harness.RngStream

    class CountingStream(base):
        def generator(self, attempt=0):
            with lock:
                opens[self.stream_id, attempt] += 1
            return base.generator(self, attempt)

    def draw(*args):
        assert args[-1] is not None, "a Gram-free M=256 block drew serially"
        signals, _, y, v = out = real_draw(*args)
        for i, trial in enumerate(args[2].tolist()):
            rows[trial] = tuple(np.copy(a[i]) for a in (signals, y, v))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(harness, "RngStream", CountingStream)
        patch.setattr(harness, "_draw_block", draw)
        harness._trial_counts(spec, params, frame, 0, spec.trials)
    return params, rows, opens


def _lone_trial(spec, params, k):
    """Trial k's (signals, y, v) alone: draw_trial, or a serial one-trial block drawing truth."""
    if not spec.randomize_truth:
        trial = harness.draw_trial(params, harness.RngStream(spec.seed, k))
        return trial.signals, trial.y, trial.v
    work = np.empty((1, params.t, params.m)), np.empty((1, params.t))
    signals, _, y, v = harness._draw_block(spec.seed, params, np.array([k]), 0, None, work)
    return signals[0], y[0], v[0]


def _assert_blocks_match_draw_trial(monkeypatch, spec):
    params, rows, opens = _threaded_block_draws(monkeypatch, spec)
    assert opens == {(k, 0): 1 for k in range(spec.trials)}, "a trial was drawn twice or not at all"
    for k in (0, 1, spec.trials - 1):
        for name, got, want in zip(("signals", "y", "v"), _lone_trial(spec, params, k), rows[k]):
            assert got.tobytes() == want.tobytes(), (k, name)


@pytest.mark.usefixtures("two_draw_workers")
@pytest.mark.parametrize("randomize_truth", [False, True])
def test_threaded_blocks_match_draw_trial(monkeypatch, randomize_truth):
    # Three trials: a two-trial block, then a one-trial block shorter than
    # the worker count.
    spec = harness.ExperimentSpec(trials=3, seed=11, randomize_truth=randomize_truth, **MF_LARGE)
    _assert_blocks_match_draw_trial(monkeypatch, spec)


@pytest.mark.parametrize("split", [
    lambda b, parts: [range(0, b), range(b - 1, b)],  # the last trial drawn twice
    lambda b, parts: [range(0, b - 1)] if b > 1 else [range(b)],  # a block's last trial skipped
], ids=["overlap", "skip"])
@pytest.mark.usefixtures("two_draw_workers")
def test_threaded_block_check_catches_a_bad_split(monkeypatch, split):
    spec = harness.ExperimentSpec(trials=3, seed=11, **MF_LARGE)
    monkeypatch.setattr(harness, "_draw_slices", split)
    with pytest.raises(AssertionError):
        _assert_blocks_match_draw_trial(monkeypatch, spec)


@pytest.mark.usefixtures("two_draw_workers")
@pytest.mark.parametrize("config,trials", [(MF_LARGE, 41), (MF_ABOVE, 101)],
                         ids=["m256", "m64-above"])
@pytest.mark.parametrize("randomize_truth", [False, True])
def test_threaded_blocks_match_reference_counts(config, trials, randomize_truth):
    spec = harness.ExperimentSpec(trials=trials, seed=9, randomize_truth=randomize_truth, **config)
    assert harness._threaded_draw(*_setup(spec))
    kernel, reference = _both(spec, 0, trials)
    assert sum(reference[0].values()) > 0
    assert kernel == reference


def _pools_opened(monkeypatch):
    """A list that records the worker count of every thread pool harness opens."""
    opened, real = [], harness.ThreadPoolExecutor

    def pool(max_workers=None, **kwargs):
        opened.append(max_workers)
        return real(max_workers, **kwargs)

    monkeypatch.setattr(harness, "ThreadPoolExecutor", pool)
    return opened


@pytest.mark.usefixtures("two_draw_workers")
def test_only_large_gram_free_blocks_draw_on_threads(monkeypatch):
    opened = _pools_opened(monkeypatch)
    for config in (MF_BELOW, dict(KAPPA1, detectors=harness.DETECTOR_NAMES),
                   dict(m=256, t=512, n=255, snr=0.03, detectors=("mf", "ml"))):
        harness.run(harness.ExperimentSpec(trials=4, **config))
    assert opened == []
    harness.run(harness.ExperimentSpec(trials=4, **MF_ABOVE))
    assert opened == [2]


@pytest.mark.parametrize("workers", [2, 64])
def test_a_threaded_block_holds_two_trials_past_the_budget(monkeypatch, workers):
    # The block, not the core count, bounds the signals in flight: at most
    # max(_BLOCK_BYTES, two trials) on any machine.
    monkeypatch.setattr(harness, "_DRAW_WORKERS", workers)
    for m, t in ((256, 512), (1024, 2048)):
        assert harness._block_size(m, t, threaded=True) == 2
        assert harness._block_size(m, t, threaded=False) == 1
    assert harness._block_size(64, 129, threaded=True) == harness._block_size(64, 129, False) == 15


class _Boom(RuntimeError):
    pass


@pytest.mark.usefixtures("two_draw_workers")
def test_a_draw_worker_error_reaches_the_caller_and_the_next_run_recovers(monkeypatch):
    spec = harness.ExperimentSpec(trials=9, seed=5, randomize_truth=True, **MF_LARGE)
    base = harness.RngStream

    class FailingStream(base):
        def generator(self, attempt=0):
            if self.stream_id == 7:
                raise _Boom(f"stream {self.stream_id}")
            return base.generator(self, attempt)

    with monkeypatch.context() as patch:
        patch.setattr(harness, "RngStream", FailingStream)
        # Trial 7 is the second slice of the block (6, 7), drawn on a worker.
        with pytest.raises(_Boom, match="stream 7"):
            harness.run(spec)
    params, frame = _setup(spec)
    counts, discards = reference_trial_counts(spec, params, frame, 0, spec.trials)
    result = harness.run(spec)
    assert {d: s.errors for d, s in result.per_detector.items()} == counts
    assert result.discarded_trials == discards == 0


@pytest.mark.usefixtures("two_draw_workers")
def test_chunk_workers_draw_serially_and_match_one_thread(monkeypatch):
    # Three chunks on four chunk workers: the chunk workers fill the cores,
    # so none of them opens a draw pool, and the counts equal threads=1's.
    spec = harness.ExperimentSpec(trials=2 * harness._CHUNK + 50, seed=13, randomize_truth=True,
                                  **MF_LARGE)
    serial = harness.run(spec, threads=1)
    opened = _pools_opened(monkeypatch)
    assert harness.run(spec, threads=4) == serial
    assert opened == [4]
