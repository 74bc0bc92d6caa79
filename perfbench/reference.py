"""Measure the reference error rates that the output check tests against.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/reference.py WORKLOAD TRIALS

Runs ``simulate`` calls of the workload at seeds REFERENCE_SEED_BASE + i,
which no timed run uses, until TRIALS trials are done, and prints the
``reference_rates`` and ``reference_trials`` to record in workloads.py.
The BLAS thread count changes no rate, only how long this takes.
"""

from __future__ import annotations

import dataclasses
import json
import sys

from compdet import cli

from workloads import REFERENCE_SEED_BASE, WORKLOADS, simulate_op

CALL_TRIALS = {"small_all": 20_000, "large_ml": 200, "mf_draw": 2_000}


def main(argv) -> int:
    name, trials = argv[0], int(argv[1])
    w = dataclasses.replace(WORKLOADS[name], trials_per_call=CALL_TRIALS[name])
    errors = dict.fromkeys(w.detectors, 0)
    done = 0
    for call in range(-(-trials // w.trials_per_call)):
        op = simulate_op(cli, w, REFERENCE_SEED_BASE + call)
        for det, count in op["errors"].items():
            errors[det] += count
        done += op["trials"]
    rates = tuple((det, errors[det] / done) for det in w.detectors)
    print(json.dumps({"workload": name, "reference_rates": rates, "reference_trials": done,
                      "errors": errors}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
