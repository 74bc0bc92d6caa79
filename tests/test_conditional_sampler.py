"""The conditional draw of mf/mfml-only specs, gated against the direct draw.

A spec whose rules are only mf and mfml draws each trial from the exact law
of (truth, v, column energies) given y.  Its error rates must match those of
the direct draw, one trial at a time
(test_trial_kernel.reference_trial_counts).  Each gate is a pooled
two-proportion z-test at a two-sided level of 1e-3, with the trial counts
and seeds fixed here.  test_bartlett_sampler.py gates the Bartlett draw
against the same direct runs.
"""

import dataclasses
import math

import numpy as np
import pytest

from compdet import harness
from compdet.model import ModelParams
from test_trial_kernel import direct_counts

LEVEL = 1e-3
# The direct runs both gates read; every rule of a run reads the same draws.
DIRECT_M8 = dict(m=8, t=16, n=7, snr=2.0, trials=200_000, detectors=harness.DETECTOR_NAMES,
                 seed=1902)
DIRECT_M256 = dict(m=256, t=512, n=255, snr=0.03, trials=2_000, detectors=("mf", "ml", "mrdd"),
                   seed=1904, randomize_truth=True)


def _two_sided_p(errors_a, trials_a, errors_b, trials_b):
    """Two-sided p-value of the pooled two-proportion z-test."""
    pooled = (errors_a + errors_b) / (trials_a + trials_b)
    se = math.sqrt(pooled * (1 - pooled) * (1 / trials_a + 1 / trials_b))
    z = (errors_a / trials_a - errors_b / trials_b) / se
    return math.erfc(abs(z) / math.sqrt(2))


def _errors(spec):
    return {name: det.errors for name, det in harness.run(spec).per_detector.items()}


@pytest.mark.parametrize("conditional,direct,rules", [
    (dict(m=8, t=16, snr=2.0, trials=200_000, detectors=("mf", "mfml"), seed=1901), DIRECT_M8,
     ("mf", "mfml")),
    (dict(m=256, t=512, snr=0.03, trials=40_000, detectors=("mf",), seed=1903,
          randomize_truth=True), DIRECT_M256, ("mf",)),
], ids=["m8", "m256"])
def test_conditional_rates_match_the_direct_draw(conditional, direct, rules):
    cond, dire = harness.ExperimentSpec(**conditional), harness.ExperimentSpec(**direct)
    cond_errors, (direct_errors, _) = _errors(cond), direct_counts(dire)
    for rule in rules:
        p = _two_sided_p(cond_errors[rule], cond.trials, direct_errors[rule], dire.trials)
        assert p >= LEVEL, (rule, cond_errors[rule], direct_errors[rule], p)


SMALL = dict(m=8, t=16, snr=1.0, trials=1000, detectors=("mf", "mfml"), seed=7,
             randomize_truth=True)


def test_adding_mfml_leaves_the_mf_counts_unchanged():
    spec = harness.ExperimentSpec(**SMALL)
    alone = _errors(dataclasses.replace(spec, detectors=("mf",)))
    assert alone["mf"] == _errors(spec)["mf"]


def test_a_spec_without_a_compressed_rule_draws_conditionally_with_n_set():
    # n only names a frame; no rule of this spec reads it, so the draw is the same.
    spec = harness.ExperimentSpec(**SMALL)
    assert _errors(dataclasses.replace(spec, n=7)) == _errors(spec)


def test_counts_do_not_depend_on_the_block_size(monkeypatch):
    spec = harness.ExperimentSpec(**SMALL)
    counts = []
    for budget in (1 << 12, 1 << 16, 1 << 20):  # 10, 170 and 256 trials per block
        monkeypatch.setattr(harness, "_BLOCK_BYTES", budget)
        counts.append(_errors(spec))
    assert counts[0] == counts[1] == counts[2]
    assert counts[0]["mf"] > 0


def test_counts_do_not_depend_on_the_worker_count(monkeypatch):
    monkeypatch.setattr(harness, "_CORES", 4)
    monkeypatch.setattr(harness, "_THREADED_DRAW_MIN", 0)  # let small trials use the workers
    opened, real = [], harness.ThreadPoolExecutor

    def pool(max_workers=None, **kwargs):
        opened.append(max_workers)
        return real(max_workers, **kwargs)

    monkeypatch.setattr(harness, "ThreadPoolExecutor", pool)
    monkeypatch.setattr(harness, "_BLOCK_BYTES", 1 << 12)  # many blocks
    spec = harness.ExperimentSpec(**SMALL)
    results = [harness.run(spec, threads=threads) for threads in (1, 2, 4)]
    assert results[0] == results[1] == results[2]
    assert opened == [2, 4]


def test_each_trial_opens_one_stream_at_attempt_zero(monkeypatch):
    opens, base = [], harness.RngStream

    class CountingStream(base):
        def generator(self, attempt=0):
            opens.append((self.stream_id, attempt))
            return base.generator(self, attempt)

    monkeypatch.setattr(harness, "RngStream", CountingStream)
    result = harness.run(harness.ExperimentSpec(**SMALL))
    assert sorted(opens) == [(k, 0) for k in range(SMALL["trials"])]
    assert result.discarded_trials == 0


def test_the_truth_sits_at_its_own_column():
    # With the truth's score made to dominate, every verdict is the truth.
    params = ModelParams.from_snr(16, 32, 1e4)
    trials = np.arange(40)
    work = harness._conditional_work(40, params)
    truth, v, energy = harness._draw_conditional(3, params, trials, 0, None, True, work)
    assert len(set(truth.tolist())) > 5
    assert np.array_equal(harness.detect_mf(v), truth)
    assert np.array_equal(harness.detect_mfml(v, energy), truth)
