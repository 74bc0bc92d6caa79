"""Short benchmark runs: each mode must end in one parseable, passing result line.

A run whose child crashes prints no result line, so the benchmark cannot be
scored at all; these runs catch that before a full-length one would.  A
traced run must also report every per-layer metric BENCHMARK.json declares:
the trace wraps program names, and a name the program no longer has drops
its metric from the result, and on the Monte Carlo workloads the stream,
Gram-factor and solve layers must read above zero.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
END_TO_END = ("throughput_per_s", "op_s", "setup_s", "peak_rss_mb")
PER_LAYER = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
# Layers the Monte Carlo workloads must see at work: the trace wraps the stream
# class, numpy's Cholesky and the solve where the harness calls them.
WORK_LAYERS = ("rng.stream_open_us", "rng.draw_us", "model.gram_chol_us",
               "model.compressed_stat_us")


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in the result line")


@pytest.mark.parametrize("workload,trace", [("frame_scale", 0), ("frame_scale", 1),
                                            ("small_all", 0), ("small_all", 1),
                                            ("large_ml", 0), ("large_ml", 1),
                                            ("mf_draw", 0), ("mf_draw", 1)])
def test_bench_run_ends_in_passing_result_line(workload, trace):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] is True and result["failed"] == 0
    if trace == 0:
        for name in END_TO_END:
            assert result["metrics"][name]["value"] > 0, name
    else:
        assert set(result["metrics"]) == PER_LAYER
        if workload in ("small_all", "large_ml"):
            for name in WORK_LAYERS:
                assert result["metrics"][name]["value"] > 0, name
