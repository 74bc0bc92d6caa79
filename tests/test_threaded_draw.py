"""Blocks run on worker threads against lone trials and the reference loop.

run hands whole blocks to one worker per core, with the process's OpenBLAS
libraries held at one thread.  Each trial must still draw exactly what it
draws alone, so a one-trial block, the per-trial reference loop and every
worker count give the same bits and counts, and the BLAS setting is left as
found.  The configs have a compressed rule, so their trials are drawn by
Bartlett (counted as M^2 + 2M numbers in either fill); a spec of only mf
and mfml draws O(T + M) numbers a trial and runs on one worker.
"""

import collections
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from compdet import harness
from test_trial_kernel import KAPPA1, _setup, bartlett_reference_counts

# mf and mfml beside a compressed rule read the Bartlett draw.
MF_LARGE = dict(m=256, t=512, n=255, snr=0.03, detectors=("mf", "mfml", "ml"))  # one trial a block
GRAM_LARGE = dict(m=256, t=512, n=255, snr=0.03, detectors=("ml", "mrdd"))
# M^2 + 2M numbers counted a trial: 4,224 above the threshold, 1,088 below it.
MF_ABOVE = dict(m=64, t=128, n=63, snr=0.03, detectors=("mf", "mfml", "ml"))
MF_BELOW = dict(m=32, t=64, n=31, snr=0.03, detectors=("mf", "mfml", "ml"))
MF_ONLY_LARGE = dict(m=256, t=512, snr=0.03, detectors=("mf", "mfml"))  # the conditional draw


@pytest.fixture
def two_cores(monkeypatch):
    """Two cores on any machine, so trials above the threshold run on two workers."""
    monkeypatch.setattr(harness, "_CORES", 2)


def test_threshold_sits_between_the_test_configs():
    for config, threaded in ((MF_ABOVE, True), (MF_BELOW, False)):
        assert (config["m"] ** 2 + 2 * config["m"] >= harness._THREADED_DRAW_MIN) is threaded


def _pools_opened(monkeypatch):
    """A list that records the worker count of every thread pool harness opens."""
    opened, real = [], harness.ThreadPoolExecutor

    def pool(max_workers=None, **kwargs):
        opened.append(max_workers)
        return real(max_workers, **kwargs)

    monkeypatch.setattr(harness, "ThreadPoolExecutor", pool)
    return opened


def _pooled_block_draws(monkeypatch, spec, block_counts=None):
    """Every trial's (truth, C, v) as the workers drew them, and the stream opens."""
    rows, opens, lock = {}, collections.Counter(), threading.Lock()
    real_draw, base = harness._draw_bartlett, harness.RngStream

    class CountingStream(base):
        def generator(self, attempt=0):
            with lock:
                opens[self.stream_id, attempt] += 1
            return base.generator(self, attempt)

    def draw(*args):
        out = real_draw(*args)
        for i, trial in enumerate(args[2].tolist()):
            rows[trial] = tuple(np.copy(a[i]) for a in out)
        return out

    with monkeypatch.context() as patch:
        opened = _pools_opened(patch)
        patch.setattr(harness, "RngStream", CountingStream)
        patch.setattr(harness, "_draw_bartlett", draw)
        if block_counts is not None:
            patch.setattr(harness, "_block_counts", block_counts)
        harness.run(spec)
    assert opened == [2], "the blocks did not run on two workers"
    return rows, opens


def _lone_trial(spec, params, k):
    """Trial k's (truth, C, v) alone: a one-trial block."""
    truth = None if spec.randomize_truth else np.ones(1, dtype=np.int64)
    out = harness._draw_bartlett(spec.seed, params, np.array([k]), 0, truth,
                                 harness._bartlett_work(1, params))
    return tuple(a[0] for a in out)


def _assert_blocks_match_lone_trials(monkeypatch, spec, block_counts=None):
    rows, opens = _pooled_block_draws(monkeypatch, spec, block_counts)
    assert opens == {(k, 0): 1 for k in range(spec.trials)}, "a trial was drawn twice or not at all"
    params, _ = _setup(spec)
    for k in (0, 1, spec.trials - 1):
        for name, got, want in zip(("truth", "C", "v"), _lone_trial(spec, params, k), rows[k]):
            assert got.tobytes() == want.tobytes(), (k, name)


@pytest.mark.usefixtures("two_cores")
@pytest.mark.parametrize("randomize_truth", [False, True])
def test_threaded_blocks_match_draw_trial(monkeypatch, randomize_truth):
    spec = harness.ExperimentSpec(trials=3, seed=11, randomize_truth=randomize_truth, **MF_LARGE)
    _assert_blocks_match_lone_trials(monkeypatch, spec)


@pytest.mark.parametrize("split", [
    lambda trials: np.append(trials, trials[-1] + 1),  # the next block's first trial drawn twice
    lambda trials: trials[trials != 1],  # trial 1 skipped
], ids=["overlap", "skip"])
@pytest.mark.usefixtures("two_cores")
def test_threaded_block_check_catches_a_bad_split(monkeypatch, split):
    spec = harness.ExperimentSpec(trials=3, seed=11, **MF_LARGE)
    real = harness._block_counts

    def bad_split(spec_, params, frame, trials, work, counts):
        trials = split(trials)
        if not len(trials):
            return 0
        return real(spec_, params, frame, trials, harness._bartlett_work(len(trials), params),
                    counts)

    with pytest.raises(AssertionError):
        _assert_blocks_match_lone_trials(monkeypatch, spec, bad_split)


@pytest.mark.usefixtures("two_cores")
@pytest.mark.parametrize("config,trials", [(MF_LARGE, 41), (GRAM_LARGE, 21), (MF_ABOVE, 101)],
                         ids=["m256", "m256-gram", "m64-above"])
@pytest.mark.parametrize("randomize_truth", [False, True])
def test_threaded_blocks_match_reference_counts(monkeypatch, config, trials, randomize_truth):
    spec = harness.ExperimentSpec(trials=trials, seed=9, randomize_truth=randomize_truth, **config)
    params, frame = _setup(spec)
    reference = bartlett_reference_counts(spec, params, frame, 0, trials)
    assert sum(reference[0].values()) > 0
    opened = _pools_opened(monkeypatch)
    assert harness._trial_counts(spec, params, frame, 0, trials, threads=None) == reference
    assert opened == [2]


@pytest.mark.usefixtures("two_cores")
def test_only_large_trials_run_on_workers(monkeypatch):
    opened = _pools_opened(monkeypatch)
    for config in (MF_BELOW, dict(KAPPA1, detectors=harness.DETECTOR_NAMES), MF_ONLY_LARGE):
        harness.run(harness.ExperimentSpec(trials=300, **config))
    assert opened == []
    harness.run(harness.ExperimentSpec(trials=70, **MF_ABOVE))
    harness.run(harness.ExperimentSpec(trials=40, m=64, t=128, n=21, snr=1.0,
                                       detectors=("mf", "ml", "mrdd")))
    assert opened == [2, 2]


@pytest.mark.parametrize("cores", [2, 64])
def test_signals_in_flight_stay_within_the_budget(monkeypatch, cores):
    # At most max(cores * _BLOCK_BYTES, two trials) of signals on any machine.
    monkeypatch.setattr(harness, "_CORES", cores)
    for m, t in ((32, 129), (256, 512), (1024, 2048)):
        trial_bytes = 8 * m * t
        workers = harness._worker_count(m * t, blocks=10_000, threads=None)
        held = workers * harness._block_size(m * t) * trial_bytes
        assert 2 <= workers <= cores
        assert held <= max(cores * harness._BLOCK_BYTES, 2 * trial_bytes), (m, t)
    assert harness._worker_count(1024 * 2048, blocks=10_000, threads=None) == min(cores, 4)
    assert harness._worker_count(256 * 512, blocks=10_000, threads=None) == cores
    assert harness._worker_count(256 * 512, blocks=10_000, threads=3) == min(cores, 3)
    assert harness._worker_count(256 * 512, blocks=1, threads=None) == 1


class _Boom(RuntimeError):
    pass


@pytest.mark.usefixtures("two_cores")
def test_a_draw_worker_error_reaches_the_caller_and_the_next_run_recovers(monkeypatch):
    spec = harness.ExperimentSpec(trials=41, seed=5, randomize_truth=True, **MF_LARGE)
    base, opened = harness.RngStream, set()

    class FailingStream(base):
        def generator(self, attempt=0):
            opened.add(self.stream_id)
            if self.stream_id == 7:
                raise _Boom(f"stream {self.stream_id}")
            return base.generator(self, attempt)

    with monkeypatch.context() as patch:
        pools = _pools_opened(patch)
        patch.setattr(harness, "RngStream", FailingStream)
        with pytest.raises(_Boom, match="stream 7"):
            harness.run(spec)
    assert pools == [2]
    assert len(opened) < spec.trials, "the other worker kept taking blocks after the error"
    params, frame = _setup(spec)
    counts, discards = bartlett_reference_counts(spec, params, frame, 0, spec.trials)
    result = harness.run(spec)
    assert {d: s.errors for d, s in result.per_detector.items()} == counts
    assert result.discarded_trials == discards == 0


@pytest.mark.usefixtures("two_cores")
def test_an_interrupted_wait_stops_the_workers(monkeypatch):
    spec = harness.ExperimentSpec(trials=200, seed=5, **MF_LARGE)
    base, opened, real_wait = harness.RngStream, set(), harness.wait

    class CountingStream(base):
        def generator(self, attempt=0):
            opened.add(self.stream_id)
            return base.generator(self, attempt)

    def interrupted_wait(futures, return_when):
        real_wait(futures, timeout=0.02)
        raise _Boom("interrupted")

    monkeypatch.setattr(harness, "RngStream", CountingStream)
    monkeypatch.setattr(harness, "wait", interrupted_wait)
    with pytest.raises(_Boom, match="interrupted"):
        harness.run(spec)
    assert 0 < len(opened) < spec.trials, "the workers kept taking blocks after the interrupt"


@pytest.mark.usefixtures("two_cores")
def test_every_worker_cap_gives_the_same_result():
    spec = harness.ExperimentSpec(trials=50, seed=13, randomize_truth=True, **MF_LARGE)
    serial = harness.run(spec, threads=1)
    for threads in (None, 2, 4):
        assert harness.run(spec, threads=threads) == serial


# --- the BLAS held at one thread ---


def _blas_threads():
    return [get() for get, _ in harness._openblas_controls()]


@pytest.fixture
def blas_at_two():
    """The process's OpenBLAS libraries at two threads, restored afterwards."""
    controls = harness._openblas_controls()
    if not controls:
        pytest.skip("no OpenBLAS library whose thread count can be set")
    saved = [get() for get, _ in controls]
    for _, put in controls:
        put(2)
    yield
    for (_, put), count in zip(controls, saved):
        put(count)


@pytest.mark.usefixtures("blas_at_two")
def test_a_run_holds_the_blas_at_one_thread_and_restores_it(monkeypatch):
    seen, real_draw = [], harness._draw_bartlett

    def draw(*args):
        seen.append(_blas_threads())
        return real_draw(*args)

    monkeypatch.setattr(harness, "_draw_bartlett", draw)
    harness.run(harness.ExperimentSpec(trials=5, **GRAM_LARGE))
    assert seen and all(counts == [1, 1] for counts in seen)
    assert _blas_threads() == [2, 2]

    base = harness.RngStream

    class FailingStream(base):
        def generator(self, attempt=0):
            raise _Boom("stream")

    monkeypatch.setattr(harness, "RngStream", FailingStream)
    with pytest.raises(_Boom):
        harness.run(harness.ExperimentSpec(trials=5, **GRAM_LARGE))
    assert _blas_threads() == [2, 2]


@pytest.mark.usefixtures("blas_at_two")
def test_nested_holds_restore_only_at_the_last_exit():
    hold = harness._ONE_BLAS_THREAD
    with hold:
        assert _blas_threads() == [1, 1]
        harness.run(harness.ExperimentSpec(trials=2, **MF_LARGE))
        with hold:
            assert _blas_threads() == [1, 1]
        assert _blas_threads() == [1, 1]
    assert _blas_threads() == [2, 2]


def test_a_fake_library_is_held_and_restored():
    count = [3]
    hold = harness._OneBlasThread(lambda: [(lambda: count[0], lambda n: count.__setitem__(0, n))])
    with pytest.raises(_Boom):
        with hold as held:
            assert held and count == [1]
            with hold:
                pass
            assert count == [1]
            raise _Boom("inside")
    assert count == [3]


def test_a_library_that_cannot_be_loaded_is_skipped(monkeypatch):
    found = harness._openblas_controls()
    if not found:
        pytest.skip("no OpenBLAS library whose thread count can be set")
    real, refused = harness.ctypes.CDLL, []

    def cdll(path):
        if not refused:
            refused.append(path)
            raise OSError(f"{path}: cannot open shared object file")
        return real(path)

    monkeypatch.setattr(harness.ctypes, "CDLL", cdll)
    assert len(harness._openblas_controls()) == len(found) - 1


@pytest.mark.usefixtures("two_cores")
def test_without_a_library_to_hold_a_run_uses_one_worker(monkeypatch):
    spec = harness.ExperimentSpec(trials=20, seed=3, randomize_truth=True, **MF_LARGE)
    expected = harness.run(spec)
    monkeypatch.setattr(harness, "_ONE_BLAS_THREAD", harness._OneBlasThread(lambda: []))
    opened = _pools_opened(monkeypatch)
    assert harness.run(spec) == expected
    assert opened == []


_DRAW_U = """
import hashlib
from compdet import harness
from compdet.model import ModelParams
spec = harness.ExperimentSpec(m=256, t=512, n=255, snr=0.03, trials=1, detectors=("ml",))
params = ModelParams.from_snr(spec.m, spec.t, spec.snr)
trial = harness.draw_trial(params, harness.RngStream(7, 3), harness.build_frame_for(spec))
print(hashlib.sha256(trial.u.tobytes()).hexdigest())
"""


def test_draw_trial_does_not_depend_on_the_blas_thread_setting():
    # The Gram Cholesky's bits at M >= 128 differ between one and two
    # OpenBLAS threads; the hold makes them the same in every environment.
    src = Path(harness.__file__).resolve().parents[1]
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", _DRAW_U], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout.strip())
    assert len(digests) == 1
