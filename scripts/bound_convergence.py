#!/usr/bin/env python3
"""Track how the finite-M bounds squeeze onto the ML exponent as M doubles.

For kappa = 1 frames (n = m - 1) at fixed beta and SNR, prints and saves the
exponent window implied by the upper/lower probability bounds, together with
a simulated point wherever the error rate is large enough to measure.
"""

import argparse
import csv
import math

from compdet import frames, harness, theory


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--beta", type=float, default=2.0)
    parser.add_argument("--snr", type=float, default=2.0)
    parser.add_argument("--m-max", type=int, default=1024)
    parser.add_argument("--trials", type=int, default=50_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--out", default="bound_convergence.csv")
    args = parser.parse_args()

    target = theory.exponent_ml(args.beta, 1.0, args.snr)
    rows = []
    m = 8
    while m <= args.m_max:
        n = m - 1
        t = round(args.beta * m)
        mu = frames.coherence_bound(m, n)
        log_upper, log_lower = theory.log_finite_bounds("ml", m, n, t, mu, args.snr)
        exp_lo = -log_upper / m
        exp_hi = -log_lower / m
        emp = ""
        if m <= 16 and math.exp(log_upper) * args.trials >= 10:
            spec = harness.ExperimentSpec(
                m=m, t=t, snr=args.snr, trials=args.trials, n=n,
                detectors=("ml",), seed=args.seed,
            )
            det = harness.run(spec, threads=args.threads).per_detector["ml"]
            if det.emp_exponent is not None:
                emp = det.emp_exponent
        rows.append([m, n, t, mu, exp_lo, exp_hi, emp, target])
        shown = f"emp={emp:.4f}" if emp != "" else "emp=n/a"
        print(f"m={m:5d}  bound window [{exp_lo:.4f}, {exp_hi:.4f}]  {shown}  target {target:.4f}")
        m *= 2

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "n", "t", "mu_bound", "exp_from_upper", "exp_from_lower",
                         "emp_exponent", "limit_exponent"])
        writer.writerows(rows)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
