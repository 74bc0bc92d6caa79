"""Tests of the benchmark itself: the output checks reject corrupted results,
and the tracer computes self time and skips names the program lacks.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from compdet import cli, detectors, frames, gf2m, harness  # noqa: E402

import layers  # noqa: E402
from checks import check_mc_run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, McWorkload, _cli, check_frame, check_simulate_csv, frame_pass_op,
    parse_frame_report, simulate_op,
)

MC = [name for name, w in WORKLOADS.items() if isinstance(w, McWorkload)]
SMALL = dataclasses.replace(WORKLOADS["small_all"], trials_per_call=20_000)


def expected_counts(w, trials):
    return {det: round(rate * trials) for det, rate in w.reference_rates}


@pytest.mark.parametrize("name", MC)
def test_run_check_accepts_reference_counts(name):
    w = WORKLOADS[name]
    assert check_mc_run(w, expected_counts(w, 10_000), 10_000, 0) == []


@pytest.mark.parametrize("name", MC)
def test_run_check_rejects_shifted_rates(name):
    w = WORKLOADS[name]
    counts = expected_counts(w, 10_000)
    det = w.detectors[0]
    for corrupted in (counts[det] * 2, counts[det] // 2, 0):
        assert check_mc_run(w, dict(counts, **{det: corrupted}), 10_000, 0)


def test_run_check_rejects_swapped_detectors_and_discards():
    w = WORKLOADS["large_ml"]
    counts = expected_counts(w, 10_000)
    swapped = {"ml": counts["mrdd"], "mrdd": counts["ml"]}
    assert any("more than MRDD" in p for p in check_mc_run(w, swapped, 10_000, 0))
    assert check_mc_run(w, counts, 10_000, 11)


def test_simulate_check_rejects_a_corrupted_detector(monkeypatch):
    """A program whose ML rule answers like MRDD fails the run check."""
    op = simulate_op(cli, SMALL, 7)
    assert check_mc_run(SMALL, op["errors"], op["trials"], op["discards"]) == []
    monkeypatch.setattr(harness, "detect_ml_whitened",
                        lambda wf, u: int(np.argmax(wf.columns.T @ u)) + 1)
    op = simulate_op(cli, SMALL, 7)
    assert any(p.startswith("ml:") for p in check_mc_run(SMALL, op["errors"], op["trials"], 0))


def test_simulate_csv_check_rejects_corrupted_rows():
    w = dataclasses.replace(WORKLOADS["small_all"], trials_per_call=200)
    rc, text, _ = _cli(cli, w.argv(3))
    assert rc == 0
    errors, discards = check_simulate_csv(w, text, 3)
    assert set(errors) == set(w.detectors) and discards == 0
    header, *rows = text.splitlines()
    cols = header.split(",")

    def with_cell(row, col, value):
        cells = row.split(",")
        cells[cols.index(col)] = value
        return ",".join(cells)

    corruptions = [
        [with_cell(rows[0], "errors", "201")] + rows[1:],
        [with_cell(rows[0], "errors", str(int(rows[0].split(",")[cols.index("errors")]) + 1))]
        + rows[1:],
        [with_cell(rows[0], "seed", "4")] + rows[1:],
        [with_cell(r, "discarded", "1") for r in rows],
        rows[1:],
    ]
    for bad in corruptions:
        with pytest.raises(ValueError):
            check_simulate_csv(w, "\n".join([header, *bad]) + "\n", 3)


def frame_and_report(m, n):
    rc, text, _ = _cli(cli, ["frame", "--m", str(m), "--n", str(n)])
    assert rc == 0
    report = parse_frame_report(text)
    return frames.build_group_hadamard(gf2m.FieldCtx.standard(m.bit_length() - 1), n), report


def test_frame_check_rejects_corrupted_frames():
    rng = np.random.default_rng(0)
    frame, report = frame_and_report(64, 21)
    check_frame(report, frame, 64, 21, detectors.detect_mrdd, rng)

    entries = np.array(frame.entries)
    entries[:, 5] = entries[:, 6]  # two equal columns: a_6 is detected as 6 or 7
    twin = dataclasses.replace(frame, entries=entries)
    rng_all = types.SimpleNamespace(choice=lambda m, size, replace: np.arange(m))
    with pytest.raises(ValueError, match="detect_mrdd"):
        check_frame(report, twin, 64, 21, detectors.detect_mrdd, rng_all)
    for key, value in (("row_orthonormality_error", "1e-6"),
                       ("coherence", str(float(report["coherence_bound"]) * 1.01)),
                       ("n", "63")):
        with pytest.raises(ValueError):
            check_frame(dict(report, **{key: value}), frame, 64, 21, detectors.detect_mrdd, rng)


def test_tracer_self_time_and_missing_names():
    mod = types.ModuleType("fake")

    def leaf():
        return sum(range(20_000))

    def outer():
        return mod.leaf() + mod.leaf()

    mod.leaf, mod.outer = leaf, outer
    tracer = Tracer()
    assert tracer.wrap(mod, "outer", "outer") and tracer.wrap(mod, "leaf", lambda p: f"{p}>leaf")
    assert not tracer.wrap(mod, "gone", "gone")
    mod.outer()
    assert tracer.calls == {"outer>leaf": 2, "outer": 1}
    assert tracer.self_ns["outer"] == tracer.total_ns["outer"] - tracer.total_ns["outer>leaf"]
    tracer.restore()
    assert mod.outer is outer and mod.leaf is leaf
    # Nothing of compdet was wrapped, so no metric that depends on a wrapped name appears.
    metrics = layers.layer_metrics(tracer, 1, 1, 0, WORKLOADS["frame_scale"].sizes)
    assert "rng.draw_us" not in metrics and "harness.discards" in metrics


def test_traced_frame_pass_counts_field_products():
    tracer = Tracer()
    layers.install(tracer)
    try:
        w = dataclasses.replace(WORKLOADS["frame_scale"], sizes=((16, 15), (16, 5)))
        op = frame_pass_op(cli, frames, detectors.detect_mrdd, w, np.random.default_rng(1),
                           tracer.span)
        metrics = layers.layer_metrics(tracer, 0, tracer.calls["cli"], 0, w.sizes)
    finally:
        tracer.restore()
    assert op["units"] == 2 * 200
    assert metrics["gf2m.mul_calls"] > 16 * 10  # at least N*M/2 sign products per frame
    assert metrics["frames.build_s.m16_n15"] > 0 and metrics["frames.apply_us.m16_n5"] > 0
    assert metrics["detectors.ml_us"] == 0
