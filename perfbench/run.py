"""compdet benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload small_all --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (``src/compdet`` and
``BENCHMARK.json``).  Each run is a closed loop, one process at a time:
child processes (child.py) import compdet from ``src`` and call its public
entry points one operation after another.

End-to-end metrics (--trace 0), from CHILDREN workers that share the
measuring time, each followed by a set-up probe that stops at its first
timed call:

- throughput_per_s: median over operations of Monte Carlo trials per second
  of a ``simulate`` call, or on frame_scale of A^T u products per second;
- op_s: median operation time, one ``simulate`` call or one build-and-check
  pass over the frame set;
- setup_s: median over all children of the time from process start to the
  first timed call;
- peak_rss_mb: median over workers of their peak resident memory.

Per-layer metrics (--trace 1) come from one traced child, next to one
untraced child (for the tracing overhead) and one child with a single BLAS
thread.  Every other child gets the BLAS thread variables set explicitly to
the library default of one thread per available core, so an inherited
setting cannot change the result.  Both modes check every output.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
line before it records the environment and each metric's sample count and
quartiles.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_mc_run
from workloads import WORKLOADS, McWorkload

HERE = Path(__file__).resolve().parent
CHILDREN = 5
RUN_LIMIT_S = 170  # a run that is not done by then fails
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ChildFailed(RuntimeError):
    pass


def run_child(root: Path, config: dict, blas_threads: int, deadline: float) -> dict:
    """Run one child to completion; its set-up time is added as setup_s."""
    argv = [sys.executable, str(HERE / "child.py"), json.dumps(config)]
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               **{var: str(blas_threads) for var in BLAS_VARS})
    started = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - started, 1))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"child {config['child']} timed out") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"child {config['child']} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["t_first"] - started
    return result


def summary(values: list):
    """Median, quartiles and count, or None without values."""
    if not values:
        return None
    if len(values) < 2:
        return {"n": len(values), "median": values[0], "q1": values[0], "q3": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}


def op_samples(children: list) -> tuple:
    """Per-operation throughputs and operation times, pooled over children."""
    ops = [op for child in children for op in child["ops"]]
    return [op["units"] / op["unit_s"] for op in ops], [op["op_s"] for op in ops]


def end_to_end(workers: list, probes: list) -> dict:
    throughput, op_s = op_samples(workers)
    return {
        "throughput_per_s": summary(throughput),
        "op_s": summary(op_s),
        "setup_s": summary([child["setup_s"] for child in workers + probes]),
        "peak_rss_mb": summary([child["rss_mb"] for child in workers]),
    }


def per_layer(plain: dict, traced: dict, blas1: dict) -> dict:
    def median(values):
        return statistics.median(values) if values else None

    layers = dict(traced["layers"], **traced["work"])
    plain_s, traced_s = median(op_samples([plain])[1]), median(op_samples([traced])[1])
    layers["trace.overhead_frac"] = traced_s / plain_s - 1 if plain_s and traced_s else None
    layers["blas1.throughput_per_s"] = median(op_samples([blas1])[0])
    return {name: summary([value]) for name, value in layers.items() if value is not None}


def source_identity(root: Path) -> dict:
    """Git revision when the checkout has one, and a hash of the sources."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    rev = None
    head = root / ".git" / "HEAD"
    if head.is_file():
        rev = head.read_text().strip()
        if rev.startswith("ref: ") and (root / ".git" / rev[5:]).is_file():
            rev = (root / ".git" / rev[5:]).read_text().strip()
    return {"git_rev": rev, "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "compdet" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: run from the root of a compdet checkout (src/compdet, BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    w = WORKLOADS[args.workload]
    cores = len(os.sched_getaffinity(0))
    deadline = time.monotonic() + RUN_LIMIT_S

    def child(index: int, budget_s: float, trace: bool = False, blas_threads: int = cores):
        config = {"workload": args.workload, "seed": args.seed, "child": index,
                  "budget_s": budget_s, "trace": trace}
        return run_child(root, config, blas_threads, deadline)

    try:
        if args.trace:
            plain = child(0, args.seconds / 4)
            traced = child(1, args.seconds / 2, trace=True)
            blas1 = child(2, args.seconds / 4, blas_threads=1)
            children = [plain, traced, blas1]
            metrics = per_layer(plain, traced, blas1)
        else:
            # A set-up probe after each worker samples set-up time at more
            # moments of the run.
            workers, probes = [], []
            for i in range(CHILDREN):
                workers.append(child(i, args.seconds / CHILDREN))
                probes.append(child(CHILDREN + i, 0))
            children = workers + probes
            metrics = end_to_end(workers, probes)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    problems = [f for c in children for f in c["failures"]]
    if isinstance(w, McWorkload):
        errors = {}
        for c in children:
            for det, count in c["errors"].items():
                errors[det] = errors.get(det, 0) + count
        problems += check_mc_run(w, errors, sum(c["trials"] for c in children),
                                 sum(c["discards"] for c in children))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": cores, "blas_threads": cores,
        **children[0]["versions"], **source_identity(root),
        "metrics": metrics,
    }))
    print(json.dumps({
        "correct": not problems and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name]["median"], "unit": unit}
                    for name, unit in units.items() if metrics.get(name)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
