"""One benchmark child process: set up, run operations for a time budget,
print a JSON summary as the last line of stdout.

    python3 perfbench/child.py '{"workload": ..., "seed": ..., "child": ...,
                                 "budget_s": ..., "trace": false}'

run.py starts it with PYTHONPATH and the BLAS thread variables set.  Set-up
time is what passes between the parent starting this process and the first
timed call, so the imports below belong to it.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import numpy
import scipy
from compdet import cli, detectors, frames

import layers
from tracer import Tracer
from workloads import WORKLOADS, McWorkload, frame_pass_op, frame_work, mc_work, sim_seed, simulate_op

MAX_REPORTED_FAILURES = 5


def _versions() -> dict:
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(config: dict) -> dict:
    w = WORKLOADS[config["workload"]]
    mc = isinstance(w, McWorkload)
    tracer = None
    if config["trace"]:
        tracer = Tracer()
        layers.install(tracer)
    rng = numpy.random.default_rng([config["seed"], config["child"]])
    ops, failures = [], []
    totals = {"errors": {}, "trials": 0, "discards": 0}
    t_first = time.monotonic()
    start = time.perf_counter()
    while config["budget_s"] > 0:  # a zero budget makes a set-up probe
        t0 = time.perf_counter()
        try:
            if mc:
                op = simulate_op(cli, w, sim_seed(config["seed"], config["child"], len(ops) + len(failures)))
            else:
                op = frame_pass_op(cli, frames, detectors.detect_mrdd, w, rng,
                                   tracer.span if tracer else None)
        except (Exception, SystemExit) as exc:  # a failed operation is counted, not fatal
            failures.append(f"{type(exc).__name__}: {exc}")
        else:
            ops.append({key: op[key] for key in ("op_s", "units", "unit_s")})
            for det, count in op["errors"].items():
                totals["errors"][det] = totals["errors"].get(det, 0) + count
            totals["trials"] += op["trials"]
            totals["discards"] += op["discards"]
        now = time.perf_counter()
        if now - start + (now - t0) > config["budget_s"]:
            break
    flops, nbytes = mc_work(w) if mc else frame_work(w)
    result = {
        "t_first": t_first,
        "ops": ops,
        "attempted": len(ops) + len(failures),
        "failed": len(failures),
        "failures": failures[:MAX_REPORTED_FAILURES],
        **totals,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "versions": _versions(),
        "work": {"computed.flops_per_op": flops, "computed.bytes_per_op": nbytes},
    }
    if tracer is not None:
        result["layers"] = layers.layer_metrics(
            tracer, totals["trials"], tracer.calls["cli"], totals["discards"],
            WORKLOADS["frame_scale"].sizes)
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
