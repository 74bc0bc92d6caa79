"""Experiment engine tests: validation, determinism, orderings, sandwiches."""

import dataclasses
import math

import numpy as np
import pytest

from compdet import harness, theory
from compdet.errors import ConfigError
from compdet.model import ModelParams
from compdet.rng import RngStream
from compdet.stats import clopper_pearson


def test_spec_validation_errors():
    good = dict(m=8, t=16, snr=2.0, trials=10, n=7, detectors=("mf", "ml"))
    harness.ExperimentSpec(**good)
    bad_cases = [
        dict(good, t=7),
        dict(good, trials=0),
        dict(good, snr=0.0),
        dict(good, detectors=()),
        dict(good, detectors=("mf", "mf")),
        dict(good, detectors=("bogus",)),
        dict(good, m=12, t=24, n=11),
        dict(good, n=6),
        dict(good, n=1),
        dict(good, ci_level=1.0),
        dict(good, epsilon=0.0),
    ]
    for case in bad_cases:
        with pytest.raises(ConfigError):
            harness.ExperimentSpec(**case)
    with pytest.raises(ConfigError):
        harness.ExperimentSpec(m=8, t=16, snr=2.0, trials=10, detectors=("ml",))  # n missing


def test_spec_rejects_a_set_of_detectors():
    # A set iterates in hash order, which changes from process to process, and
    # so would the order of the result rows.
    for dets in ({"mf", "ml", "mrdd", "rdd"}, frozenset({"mf"})):
        with pytest.raises(ConfigError, match="set"):
            harness.ExperimentSpec(m=8, t=16, snr=2.0, trials=10, n=7, detectors=dets)
    spec = harness.ExperimentSpec(m=8, t=16, snr=2.0, trials=10, n=7, detectors=["ml", "mf"])
    assert spec.detectors == ("ml", "mf")


def _kernel_rows(monkeypatch, spec, params, frame, lo, hi, block_bytes):
    """{trial: (C, v, u)} as the kernel computes them in blocks of block_bytes."""
    rows, block = {}, []
    real_draw, real_mrdd = harness._draw_bartlett, harness.detect_mrdd

    def draw(*args):
        out = real_draw(*args)
        block[:] = args[2].tolist()
        for i, k in enumerate(block):
            rows[k] = [np.copy(out[1][i]), np.copy(out[2][i])]
        return out

    def mrdd(frame_, u):
        for i, k in enumerate(block):
            rows[k].append(np.copy(u[i]))
        return real_mrdd(frame_, u)

    with monkeypatch.context() as patch:
        patch.setattr(harness, "_draw_bartlett", draw)
        patch.setattr(harness, "detect_mrdd", mrdd)
        patch.setattr(harness, "_BLOCK_BYTES", block_bytes)
        harness._trial_counts(spec, params, frame, lo, hi)
    return rows


@pytest.mark.parametrize("config", [dict(m=8, t=16, n=7), dict(m=16, t=32, n=5)],
                         ids=["kappa1", "kappa3"])
def test_draw_trial_is_trial_k_of_a_kernel_block(config, monkeypatch):
    # draw_trial is the direct draw; run's draw of one trial is a one-trial
    # block.  It gives, bit for bit, the factor, v and u that the kernel draws
    # and computes for trial k of a 256-trial block, and of blocks of 12 (M=8)
    # or 3 (M=16) trials.
    spec = harness.ExperimentSpec(snr=2.0, trials=256, detectors=("mrdd",), seed=17, **config)
    params, frame = ModelParams.from_snr(spec.m, spec.t, spec.snr), harness.build_frame_for(spec)
    full = _kernel_rows(monkeypatch, spec, params, frame, 0, 256, 1 << 20)
    small = _kernel_rows(monkeypatch, spec, params, frame, 0, 256, 1 << 13)
    for k in (0, 1, 137, 255):
        (lone,) = _kernel_rows(monkeypatch, spec, params, frame, k, k + 1, 1 << 20).values()
        for name, got, *want in zip(("C", "v", "u"), lone, full[k], small[k]):
            assert all(got.tobytes() == w.tobytes() for w in want), (k, name)


def test_degenerate_frame_rejected_at_run():
    # n=3 divides 63 so the spec is well-formed, but the size-3 subgroup
    # cannot separate 64 columns: the frame has coherence 1 and detection
    # from u is impossible.
    spec = harness.ExperimentSpec(m=64, t=128, snr=2.0, trials=10, n=3, detectors=("ml",))
    with pytest.raises(ConfigError):
        harness.run(spec)


def test_high_snr_sanity():
    spec = harness.ExperimentSpec(
        m=8, t=32, snr=100.0, trials=1000, n=7, detectors=("mf", "ml", "mrdd", "rdd"), seed=2
    )
    result = harness.run(spec)
    for det in result.per_detector.values():
        assert det.errors == 0
        assert det.ci[1] < 0.004


def test_pure_guessing_oracle():
    # At vanishing SNR the matched filter picks among exchangeable statistics:
    # error probability (m-1)/m.
    spec = harness.ExperimentSpec(m=8, t=8, snr=1e-6, trials=10_000, detectors=("mf",), seed=3)
    det = harness.run(spec).per_detector["mf"]
    assert det.ci[0] <= 7 / 8 <= det.ci[1]


def test_thread_count_invariance():
    spec = harness.ExperimentSpec(
        m=8, t=16, snr=2.0, trials=2000, n=7, detectors=("mf", "ml", "mrdd", "rdd"), seed=7
    )
    results = [harness.run(spec, threads=k) for k in (1, 4, 8)]
    base = results[0]
    for other in results[1:]:
        assert other.discarded_trials == base.discarded_trials
        for name in base.per_detector:
            assert other.per_detector[name].errors == base.per_detector[name].errors


def test_adding_mfml_leaves_other_counts_unchanged():
    # mfml reads only the trial's own v and column energies: no extra draws.
    dets = ("mf", "ml", "mrdd", "rdd")
    spec = harness.ExperimentSpec(m=8, t=16, snr=2.0, trials=1000, n=7, detectors=dets, seed=11)
    base = harness.run(spec)
    more = harness.run(dataclasses.replace(spec, detectors=("mfml",) + dets))
    assert more.discarded_trials == base.discarded_trials
    for name in dets:
        assert more.per_detector[name].errors == base.per_detector[name].errors
    assert more.per_detector["mfml"].errors < base.per_detector["mf"].errors


M8_ALL = dict(m=8, t=16, n=7, snr=2.0, trials=4000, detectors=harness.DETECTOR_NAMES)
M16_KAPPA3 = dict(m=16, t=32, n=5, snr=2.0, trials=2000, detectors=("ml", "mrdd"))


# Recorded from the Bartlett draw on counter-addressed streams.  Whitening at every kappa gave the same ML
# counts on the same draws: the rank-one rule at kappa = 1 (M8_ALL) and
# whitening at kappa = 3 (M16_KAPPA3) must give the same verdicts.
@pytest.mark.parametrize("config,seed,errors", [
    (M8_ALL, 0, dict(mf=150, mfml=21, ml=23, mrdd=121, rdd=311)),
    (M8_ALL, 5, dict(mf=138, mfml=11, ml=14, mrdd=118, rdd=303)),
    (M8_ALL, 606, dict(mf=137, mfml=18, ml=24, mrdd=131, rdd=315)),
    (M16_KAPPA3, 0, dict(ml=207, mrdd=303)),
    (M16_KAPPA3, 5, dict(ml=228, mrdd=310)),
    (M16_KAPPA3, 606, dict(ml=208, mrdd=302)),
], ids=["m8-s0", "m8-s5", "m8-s606", "m16-s0", "m16-s5", "m16-s606"])
def test_error_counts_pinned(config, seed, errors):
    result = harness.run(harness.ExperimentSpec(seed=seed, **config))
    assert {k: d.errors for k, d in result.per_detector.items()} == errors
    assert result.discarded_trials == 0


# ML alone at kappa = 1 forms no u; it keeps the verdicts pinned above.
@pytest.mark.parametrize("seed,errors", [(0, 23), (5, 14), (606, 24)], ids=["s0", "s5", "s606"])
def test_ml_only_counts_pinned(seed, errors):
    result = harness.run(harness.ExperimentSpec(seed=seed, **dict(M8_ALL, detectors=("ml",))))
    assert result.per_detector["ml"].errors == errors
    assert result.discarded_trials == 0


def test_run_is_replayable():
    spec = harness.ExperimentSpec(m=8, t=16, snr=2.0, trials=500, n=7, detectors=("ml",), seed=9)
    a = harness.run(spec).per_detector["ml"].errors
    b = harness.run(spec).per_detector["ml"].errors
    assert a == b


def test_randomize_truth_matches_fixed_truth_rate():
    # Hypotheses are exchangeable, so the error rate is the same whether the
    # truth is pinned to 1 or drawn uniformly.
    fixed = harness.ExperimentSpec(m=8, t=16, snr=2.0, trials=4000, n=7, detectors=("ml",), seed=5)
    random = harness.ExperimentSpec(
        m=8, t=16, snr=2.0, trials=4000, n=7, detectors=("ml",), seed=6, randomize_truth=True
    )
    p_fixed = harness.run(fixed).per_detector["ml"].p_hat
    p_random = harness.run(random).per_detector["ml"].p_hat
    w = 2 * 1.96 * math.sqrt(0.02 * 0.98 / 4000)
    assert abs(p_fixed - p_random) < 2 * w + 0.01


def test_empirical_exponent_guard():
    spec = harness.ExperimentSpec(m=8, t=32, snr=100.0, trials=200, n=7, detectors=("ml",), seed=1)
    det = harness.run(spec).per_detector["ml"]
    assert det.errors < 10
    assert det.emp_exponent is None


def test_undersampled_flag():
    spec = harness.ExperimentSpec(m=8, t=32, snr=2.0, trials=100, detectors=("mfml",), seed=1)
    det = harness.run(spec).per_detector["mfml"]
    assert det.bound_upper < 10 / 100
    assert det.undersampled
    spec2 = harness.ExperimentSpec(m=8, t=16, snr=2.0, trials=100_00, n=7, detectors=("ml",), seed=1)
    assert not harness.run(spec2).per_detector["ml"].undersampled


def test_detector_ordering_with_compression():
    # Heavy compression makes the compressed detectors strictly worse than
    # the matched filter, and mRDD worse than ML, with real error counts.
    spec = harness.ExperimentSpec(
        m=16, t=32, snr=2.0, trials=4000, n=5, detectors=("mf", "ml", "mrdd", "rdd"), seed=3
    )
    result = harness.run(spec)
    p = {k: v.p_hat for k, v in result.per_detector.items()}
    w = {k: v.ci[1] - v.ci[0] for k, v in result.per_detector.items()}
    assert p["mf"] <= p["ml"] + max(w["mf"], w["ml"])
    assert p["ml"] <= p["mrdd"] + max(w["ml"], w["mrdd"])
    assert p["mrdd"] <= p["rdd"] + max(w["mrdd"], w["rdd"])


def test_rdd_not_better_than_mrdd():
    # The sign information dropped by the absolute-value rule costs errors.
    spec = harness.ExperimentSpec(
        m=16, t=32, snr=4.0, trials=10_000, n=5, detectors=("mrdd", "rdd"), seed=4
    )
    result = harness.run(spec)
    mrdd, rdd = result.per_detector["mrdd"], result.per_detector["rdd"]
    w = max(mrdd.ci[1] - mrdd.ci[0], rdd.ci[1] - rdd.ci[0])
    assert rdd.p_hat >= mrdd.p_hat - w


def test_theory_columns_attached():
    spec = harness.ExperimentSpec(
        m=8, t=16, snr=2.0, trials=100, n=7, detectors=("mf", "mfml", "ml", "mrdd", "rdd"), seed=1
    )
    result = harness.run(spec)
    ml = result.per_detector["ml"]
    assert abs(ml.theory_exponent - theory.exponent_ml(2.0, 7 / 8, 2.0)) < 1e-12
    assert abs(ml.bound_upper - 0.12031080200126874) < 1e-12
    rdd = result.per_detector["rdd"]
    assert rdd.theory_exponent is None and rdd.bound_upper is None
    mf = result.per_detector["mf"]
    assert mf.theory_exponent is None and mf.bound_upper is None
    mfml = result.per_detector["mfml"]
    assert abs(mfml.theory_exponent - theory.exponent_mf(2.0, 2.0)) < 1e-12


def test_collapsing_frame_rejected():
    # N=7 at M=64 has coherence exactly 1: only 8 distinct columns.
    spec = harness.ExperimentSpec(m=64, t=128, snr=2.0, trials=200, n=7, detectors=("ml",))
    with pytest.raises(ConfigError, match="coherence"):
        harness.run(spec)


# --- sweeps ---

def test_sweep_alpha_walks_divisors():
    base = harness.ExperimentSpec(m=64, t=128, snr=2.0, trials=10, n=63, detectors=("ml",))
    for n in (63, 21, 9, 7, 3):
        derived = harness.spec_for_axis_value(base, "alpha", n)
        assert derived.n == n and derived.m == 64
    with pytest.raises(ConfigError):
        harness.spec_for_axis_value(base, "alpha", 10)  # 10 does not divide 63
    with pytest.raises(ConfigError):
        harness.spec_for_axis_value(base, "alpha", 1)
    with pytest.raises(ConfigError, match="integers"):
        harness.spec_for_axis_value(base, "alpha", 7.5)


def test_sweep_config_error_names_value():
    base = harness.ExperimentSpec(m=64, t=128, snr=2.0, trials=10, n=63, detectors=("ml",))
    with pytest.raises(ConfigError, match="10"):
        harness.spec_for_axis_value(base, "alpha", 10)
    with pytest.raises(ConfigError, match="snr"):
        harness.spec_for_axis_value(base, "snr", -1.0)


def test_sweep_beta_theory_affine():
    base = harness.ExperimentSpec(m=16, t=32, snr=2.0, trials=10, n=5, detectors=("ml",))
    betas = [1.0, 1.25, 1.5, 1.75, 2.0]
    exps = []
    for b in betas:
        derived = harness.spec_for_axis_value(base, "beta", b)
        assert derived.t == round(b * 16)
        exps.append(theory.exponent_ml(derived.beta, derived.alpha, derived.snr))
    second_diffs = np.diff(np.diff(exps))
    assert np.abs(second_diffs).max() < 1e-12


def test_sweep_snr_log_law():
    base = harness.ExperimentSpec(m=64, t=128, snr=2.0, trials=10, n=21, detectors=("ml",))
    snrs = [0.5, 1.0, 2.0, 4.0, 8.0]
    exps = [
        theory.exponent_ml(2.0, harness.spec_for_axis_value(base, "snr", s).alpha, s)
        for s in snrs
    ]
    alpha = 21 / 64
    expect = [((2.0 - 1 + alpha) / 2) * math.log1p(alpha * s / 2) for s in snrs]
    inc = np.diff(exps)
    inc_expect = np.diff(expect)
    assert np.all(np.abs(inc / inc_expect - 1) < 0.05)


def test_sweep_m_axis_keeps_kappa_and_beta():
    base = harness.ExperimentSpec(m=8, t=16, snr=4.0, trials=10, n=7, detectors=("ml",))
    for m in (8, 16, 32, 64):
        derived = harness.spec_for_axis_value(base, "m", m)
        assert derived.n == m - 1
        assert derived.beta == 2.0
    with pytest.raises(ConfigError):
        harness.spec_for_axis_value(base, "m", 12)
    with pytest.raises(ConfigError, match="integers"):
        harness.spec_for_axis_value(base, "m", 8.5)


def test_sweep_runs_end_to_end():
    base = harness.ExperimentSpec(m=8, t=16, snr=1.0, trials=200, n=7, detectors=("ml",), seed=2)
    results = harness.sweep(base, "snr", [0.5, 2.0], threads=2)
    assert len(results) == 2
    assert results[0].spec.snr == 0.5 and results[1].spec.snr == 2.0


def test_sweep_alpha_simulated_over_usable_divisors():
    # Of the divisors of 63, only n in {63, 21, 9} give frames with
    # coherence < 1 (smaller subgroups collapse columns), so a simulated
    # alpha sweep walks those.
    base = harness.ExperimentSpec(m=64, t=128, snr=4.0, trials=50, n=63, detectors=("ml",), seed=8)
    results = harness.sweep(base, "alpha", [63, 21, 9])
    assert [r.spec.n for r in results] == [63, 21, 9]
    assert all(r.spec.t == 128 for r in results)


# --- bound sandwich verdicts ---

def test_sandwich_ml_mrdd_pass():
    spec = harness.ExperimentSpec(
        m=8, t=16, snr=2.0, trials=20_000, n=7, detectors=("ml", "mrdd"), seed=10
    )
    verdicts = harness.bound_sandwich_check(harness.run(spec))
    for v in verdicts.values():
        assert v.upper_pass
        assert v.flag == "ok"
        assert v.lower_ratio is not None and v.lower_ratio > 0


def test_sandwich_vacuous_flag():
    spec = harness.ExperimentSpec(m=8, t=8, snr=0.5, trials=200, n=7, detectors=("mrdd",), seed=1)
    verdict = harness.bound_sandwich_check(harness.run(spec))["mrdd"]
    assert verdict.flag == "vacuous"
    assert verdict.upper_pass


def test_sandwich_insufficient_trials_flag():
    # The matched-filter (mfml) bound at this config is ~1.1e-4; 2000 trials
    # give a CI far wider than that.
    spec = harness.ExperimentSpec(m=8, t=32, snr=2.0, trials=2000, detectors=("mfml",), seed=1)
    verdict = harness.bound_sandwich_check(harness.run(spec))["mfml"]
    assert verdict.flag == "insufficient-trials"


def test_mf_bound_holds_for_energy_corrected_decision():
    # The closed-form matched-filter bound (M-1)(1+SNR/2)^{-T/2} is achieved
    # by the optimal rule argmax_j (v_j - ||s_j||^2 / 2), which corrects the
    # plain argmax for the random signal energies.  This batched check is
    # independent of the harness's mfml detector, which c6 checks.
    m, t, snr, trials = 8, 32, 2.0, 200_000
    energy = math.sqrt(snr)
    bound, _ = theory.finite_bounds("mfml", m, None, t, None, snr)
    errors = 0
    batch = 4096
    for lo in range(0, trials, batch):
        b = min(batch, trials - lo)
        gen = RngStream(12, 50_000_000 + lo).generator()
        s = energy * gen.standard_normal((b, t, m))
        y = s[:, :, 0] + gen.standard_normal((b, t))
        v = np.einsum("btm,bt->bm", s, y)
        en = np.einsum("btm,btm->bm", s, s)
        errors += int((np.argmax(v - 0.5 * en, axis=1) != 0).sum())
    lo_ci, _ = clopper_pearson(errors, trials)
    assert lo_ci <= bound
    assert errors / trials <= 2 * bound
