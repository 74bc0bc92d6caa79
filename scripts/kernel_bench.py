#!/usr/bin/env python3
"""Time in-process ``harness.run`` and ``compdet frame`` runs, for a change against its parent.

    python scripts/kernel_bench.py --parent ../parent-checkout --rounds 3 --out BENCH_20.json
    python scripts/kernel_bench.py --threshold --rounds 4 --out BENCH_20.json
    python scripts/kernel_bench.py --fill --rounds 4 --out BENCH_21.json
    python scripts/kernel_bench.py --frames --parent ../parent-checkout --rounds 5 --out BENCH_27.json

The default mode times five configs at worker caps None/1/2/4 (``run``'s
``threads``), each measurement in a fresh interpreter that imports compdet
from one tree's ``src``: M=64 N=21 and M=256 N=85 (kappa = 3, whitened ML),
M=256 N=255 and M=8 N=7 with all four rules of ``small_all`` (kappa = 1),
which draw by Bartlett, and M=256 ``mf`` with random truth, which has no
compressed rule and so times the conditional draw.  The parent and this tree alternate, and the side that runs first
swaps each round.  The cap None calls ``run`` without one, so each tree runs
at its default.

--threshold times this tree alone at configs on both sides of
``harness._THREADED_DRAW_MIN`` numbers drawn per trial, for both draws of
``run``, one worker against one per core with the threshold lowered to 0.
A trial with a compressed rule (``ml,mrdd``) draws M^2 + 2M numbers by
Bartlett; one without (``mf,mfml``) draws 2T + 2M numbers from the
conditional law.

--fill times this tree's Bartlett stage alone (``harness._draw_bartlett``
on blocks of ``run``'s size, T = 2M, the BLAS held at one thread) in us per
trial at M = 8 to 256, under both layouts: the full fill of M^2 + M normals
and the half fill of M(M-1)/2 + M normals with an array of gamma shapes,
picked by setting ``harness._HALF_FILL_MIN_M``.  That constant's value
comes from this series.

--frames times one ``compdet frame --m M --n N`` process end to end, from
its start to its exit, with its peak RSS, for this tree against --parent,
alternated as above: (M, N) = (2^10, 1023), (2^16, 65535), (2^16, 257),
(2^20, 2^20 - 1) and (2^20, 341).

The results go under one key ("kernel_bench", "threshold", "fill" or
"frames") of the JSON file given by --out; its other keys are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parents[1]

CONFIGS = {
    "m64_n21_k3": (dict(m=64, t=128, n=21, snr=1.0, detectors=("mf", "ml", "mrdd")), 1500),
    "m256_n85_k3": (dict(m=256, t=512, n=85, snr=0.03, detectors=("ml", "mrdd")), 60),
    "m256_n255": (dict(m=256, t=512, n=255, snr=0.03, detectors=("ml", "mrdd")), 200),
    "m256_mf": (dict(m=256, t=512, snr=0.03, detectors=("mf",), randomize_truth=True), 4000),
    "m8_all": (dict(m=8, t=16, n=7, snr=2.0, detectors=("mf", "ml", "mrdd", "rdd")), 40000),
}
THREADS = (None, 1, 2, 4)
# (M, T, N) and the trials of one measurement.  Numbers drawn per trial:
# M^2 + 2M from 288 to 16,640 with ml and mrdd, which draw by Bartlett, and
# 2T + 2M from 2^7 to 2^14 with N None and mf and mfml, which draw
# conditionally.
THRESHOLD_CONFIGS = [
    ((16, 32, 5), 4000), ((32, 64, 31), 3000), ((64, 128, 63), 2000), ((64, 128, 21), 1500),
    ((128, 256, 127), 800),
    ((8, 56, None), 20000), ((64, 960, None), 10000), ((256, 1792, None), 10000),
    ((1024, 1024, None), 10000), ((512, 3584, None), 5000), ((1024, 7168, None), 3000),
]


# M and the trials of one --fill measurement.
FILL_CONFIGS = [(8, 40000), (16, 40000), (32, 20000), (64, 10000), (128, 3000), (256, 1000)]


# (M, N) of the --frames series: kappa = 1 and a large kappa at M = 2^16 and 2^20.
FRAME_SIZES = [(1 << 10, 1023), (1 << 16, 65535), (1 << 16, 257), (1 << 20, (1 << 20) - 1),
               (1 << 20, 341)]


def draws(m: int, t: int, n) -> int:
    """Numbers one trial draws: M^2 + 2M by Bartlett with a frame, 2T + 2M conditionally without."""
    return m * m + 2 * m if n is not None else 2 * (t + m)

# One measurement: a short warm-up run, then the timed run; prints ms/trial.
_MEASURE = """
import json, sys, time
from compdet import harness
spec, trials, threads, lower = json.loads(sys.argv[1])
if lower:
    harness._THREADED_DRAW_MIN = 0
kwargs = {} if threads is None else {"threads": threads}
spec["detectors"] = tuple(spec["detectors"])
harness.run(harness.ExperimentSpec(trials=8, seed=1, **spec), **kwargs)
start = time.perf_counter()
harness.run(harness.ExperimentSpec(trials=trials, seed=7, **spec), **kwargs)
print((time.perf_counter() - start) / trials * 1e3)
"""


# One --fill measurement: the Bartlett stage alone, warmed up, in one layout; prints us/trial.
_FILL = """
import json, sys, time
import numpy as np
from compdet import harness
from compdet.model import ModelParams
m, half, trials = json.loads(sys.argv[1])
harness._HALF_FILL_MIN_M = m if half else m + 1
params = ModelParams.from_snr(m, 2 * m, 1.0)
size = harness._block_size(m * m + 2 * m)
work, truth = harness._bartlett_work(size, params), np.ones(size, dtype=np.int64)
trials = -(-trials // size) * size

def draw(trials):
    with harness._ONE_BLAS_THREAD:
        for start in range(0, trials, size):
            harness._draw_bartlett(7, params, np.arange(start, start + size), 0, truth, work)

draw(4 * size)
start = time.perf_counter()
draw(trials)
print((time.perf_counter() - start) / trials * 1e6)
"""


def child(tree: Path, script: str, *args) -> float:
    """The last line a fresh interpreter running script prints, with compdet from tree's src."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(args)], env=env,
                          capture_output=True, text=True, check=True, timeout=600)
    return float(proc.stdout.strip().splitlines()[-1])


def frame_process(tree: Path, m: int, n: int) -> tuple:
    """(wall s, peak RSS MB) of one ``compdet frame`` process with compdet from tree's src."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "compdet.cli", "frame", "--m", str(m),
                             "--n", str(n)], env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, not by Popen
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, proc.args)
    return wall, usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def measure(tree: Path, spec: dict, trials: int, threads, lower: bool = False) -> float:
    return child(tree, _MEASURE, spec, trials, threads, lower)


def summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "n": len(values)}


def environment() -> dict:
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def compare(parent: Path, rounds: int) -> dict:
    sides = {"parent": parent, "change": ROOT}
    runs = []
    for r in range(rounds):
        order = ["parent", "change"] if r % 2 == 0 else ["change", "parent"]
        for name, (spec, trials) in CONFIGS.items():
            for threads in THREADS:
                for side in order:
                    ms = measure(sides[side], spec, trials, threads)
                    runs.append({"round": r, "config": name, "threads": threads, "side": side,
                                 "ms_per_trial": ms})
                    print(f"round {r} {name} threads={threads} {side}: {ms:.3f} ms/trial",
                          file=sys.stderr)
    medians = {f"{name} threads={threads}": {side: summary(
        [x["ms_per_trial"] for x in runs
         if x["config"] == name and x["threads"] == threads and x["side"] == side])
        for side in sides} for name in CONFIGS for threads in THREADS}
    return {"parent": str(parent), "runs": runs, "medians": medians}


def frame_series(parent: Path, rounds: int) -> dict:
    sides = {"parent": parent, "change": ROOT}
    runs = []
    for r in range(rounds):
        order = ["parent", "change"] if r % 2 == 0 else ["change", "parent"]
        for m, n in FRAME_SIZES:
            for side in order:
                wall, rss = frame_process(sides[side], m, n)
                runs.append({"round": r, "m": m, "n": n, "side": side, "wall_s": wall,
                             "peak_rss_mb": rss})
                print(f"round {r} M={m} N={n} {side}: {wall:.3f} s, {rss:.1f} MB", file=sys.stderr)
    medians = {f"M={m} N={n} {metric}": {side: summary(
        [x[metric] for x in runs if (x["m"], x["n"], x["side"]) == (m, n, side)])
        for side in sides} for m, n in FRAME_SIZES for metric in ("wall_s", "peak_rss_mb")}
    return {"parent": str(parent), "runs": runs, "medians": medians}


def threshold(rounds: int) -> dict:
    runs = []
    for r in range(rounds):
        for (m, t, n), trials in THRESHOLD_CONFIGS:
            spec = dict(m=m, t=t, n=n, snr=1.0,
                        detectors=("mf", "mfml") if n is None else ("ml", "mrdd"))
            for workers in (["one", "per_core"] if r % 2 == 0 else ["per_core", "one"]):
                ms = measure(ROOT, spec, trials, 1 if workers == "one" else None, lower=True)
                runs.append({"round": r, "m": m, "t": t, "n": n, "draws": draws(m, t, n),
                             "workers": workers, "us_per_trial": ms * 1e3})
                print(f"round {r} M={m} T={t} N={n} {workers}: {ms * 1e3:.1f} us/trial",
                      file=sys.stderr)
    medians = {f"M={m} T={t} N={n} (draws={draws(m, t, n)})": {w: summary(
        [x["us_per_trial"] for x in runs if (x["m"], x["t"], x["n"], x["workers"]) == (m, t, n, w)])
        for w in ("one", "per_core")} for (m, t, n), _ in THRESHOLD_CONFIGS}
    return {"runs": runs, "medians": medians}


def fill(rounds: int) -> dict:
    runs = []
    for r in range(rounds):
        for m, trials in FILL_CONFIGS:
            for layout in (["full", "half"] if r % 2 == 0 else ["half", "full"]):
                us = child(ROOT, _FILL, m, layout == "half", trials)
                runs.append({"round": r, "m": m, "layout": layout, "us_per_trial": us})
                print(f"round {r} M={m} {layout}: {us:.1f} us/trial", file=sys.stderr)
    medians = {f"M={m}": {layout: summary(
        [x["us_per_trial"] for x in runs if (x["m"], x["layout"]) == (m, layout)])
        for layout in ("full", "half")} for m, _ in FILL_CONFIGS}
    return {"runs": runs, "medians": medians}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--threshold", action="store_true",
                        help="time one worker against one per core around the threshold")
    parser.add_argument("--fill", action="store_true",
                        help="time the Bartlett stage's full and half fills at M = 8 to 256")
    parser.add_argument("--frames", action="store_true",
                        help="time compdet frame processes at M = 2^10 to 2^20 against --parent")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--out", type=Path, required=True, help="JSON file to update")
    args = parser.parse_args()
    if args.threshold:
        key, result = "threshold", threshold(args.rounds)
    elif args.fill:
        key, result = "fill", fill(args.rounds)
    elif args.parent is None:
        parser.error("--parent is required unless --threshold or --fill is given")
    elif args.frames:
        key, result = "frames", frame_series(args.parent.resolve(), args.rounds)
    else:
        key, result = "kernel_bench", compare(args.parent.resolve(), args.rounds)
    result = {"command": " ".join(["python", "scripts/kernel_bench.py"] + sys.argv[1:]),
              "environment": environment(), **result}
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data[key] = result
    args.out.write_text(json.dumps(data, indent=1) + "\n")
    for name, sides in result["medians"].items():
        print(name, {side: round(s["median"], 3) for side, s in sides.items()})


if __name__ == "__main__":
    main()
