#!/usr/bin/env python3
"""Emit plot-ready CSVs of the three error exponents along each parameter.

Produces four files in --out-dir:
  exponents_vs_alpha.csv  (fixed beta, snr; alpha on a dense grid)
  exponents_vs_beta.csv   (fixed alpha, snr)
  exponents_vs_snr.csv    (fixed alpha, beta; log-spaced snr)
  exponents_vs_eps.csv    (coupled axis alpha = eps, beta = 1 + eps)

Pure formula evaluation; nothing is simulated.
"""

import argparse
import csv
import os

import numpy as np

from compdet import theory


def write_rows(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {path} ({len(rows)} rows)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--beta", type=float, default=2.0)
    parser.add_argument("--alpha", type=float, default=0.5)
    parser.add_argument("--snr", type=float, default=4.0)
    parser.add_argument("--points", type=int, default=200)
    parser.add_argument("--out-dir", default="out")
    args = parser.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)

    header = ["axis_value", "exponent_mf", "exponent_ml", "exponent_mrdd"]
    # (file stem, grid, grid value -> (beta, alpha, snr))
    axes = (
        ("alpha", np.linspace(0.01, 1.0, args.points), lambda a: (args.beta, a, args.snr)),
        ("beta", np.linspace(1.0, 4.0, args.points), lambda b: (b, args.alpha, args.snr)),
        ("snr", np.geomspace(1e-2, 1e2, args.points), lambda s: (args.beta, args.alpha, s)),
        ("eps", np.linspace(0.01, 1.0, args.points), lambda e: (1 + e, e, args.snr)),
    )
    for name, grid, point in axes:
        write_rows(
            os.path.join(args.out_dir, f"exponents_vs_{name}.csv"),
            header,
            [[x] + [theory.exponent(rule, *point(x)) for rule in theory.BOUNDED_RULES] for x in grid],
        )


if __name__ == "__main__":
    main()
