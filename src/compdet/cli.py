"""Command-line interface: frame construction, simulation, sweeps, validation.

Exit codes: 0 success, 1 numerical or validation failure, 2 configuration
error, 3 constructibility error (M not a power of two in 4..2^20, N not dividing M-1).

All randomized output is a pure function of (config, seed); CSV files are
byte-identical across runs and thread counts.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Optional

from . import frames, gf2m, harness, stats, theory
from .errors import (
    CompdetError,
    ConfigError,
    DomainError,
    NotADivisor,
    NumericalFailure,
    SingularCovariance,
    SingularGram,
)
from .model import ModelParams
from .rng import RngStream

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2
EXIT_CONSTRUCT = 3

ORDERING_MIN_ERRORS = 100

CSV_COLUMNS = (
    "m", "n", "t", "alpha", "beta", "snr", "detector", "trials", "errors",
    "p_hat", "ci_lo", "ci_hi", "emp_exponent", "theory_exponent",
    "bound_upper", "bound_lower", "seed", "discarded",
)

CONFIG_KEYS = {
    "m", "t", "n", "snr", "trials", "detectors", "seed", "epsilon",
    "ci_level", "randomize_truth", "output_path", "threads", "format",
}


def _fmt(value) -> str:
    """Full-precision decimal cell: 17 significant digits for floats."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return format(value, ".17g")
    return str(value)


def _result_rows(result: harness.ExperimentResult) -> list:
    spec = result.spec
    rows = []
    for det in result.per_detector.values():
        rows.append([
            spec.m, spec.n, spec.t, spec.alpha, spec.beta, spec.snr,
            det.detector, det.trials, det.errors, det.p_hat,
            det.ci[0], det.ci[1], det.emp_exponent, det.theory_exponent,
            det.bound_upper, det.bound_lower, spec.seed, result.discarded_trials,
        ])
    return rows


def _write_csv(rows, path: Optional[str]):
    text = ",".join(CSV_COLUMNS) + "\n"
    for row in rows:
        text += ",".join(_fmt(cell) for cell in row) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path}: expected a flat JSON object")
    unknown = sorted(set(raw) - CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"config file {path}: unknown keys {unknown}")
    return raw


def _parse_detectors(value) -> tuple:
    if isinstance(value, str):
        return tuple(part.strip() for part in value.split(",") if part.strip())
    if isinstance(value, (list, tuple)):
        return tuple(value)
    raise ConfigError(f"detectors must be a comma list or array, got {value!r}")


def _merged_config(args) -> dict:
    """Config file values with command-line flags taking precedence.

    Tracks where each setting came from so validation errors can name the
    offending source; stored under the reserved "_sources" key.
    """
    cfg = _load_config(args.config)
    sources = {key: f"config file {args.config}" for key in cfg}
    flag_map = {
        "m": args.m, "t": args.t, "n": args.n, "snr": args.snr,
        "trials": args.trials, "detectors": args.detectors, "seed": args.seed,
        "epsilon": args.epsilon, "ci_level": args.ci_level,
        "randomize_truth": args.randomize_truth,
        "output_path": args.out, "threads": args.threads,
    }
    for key, value in flag_map.items():
        if value is not None:
            cfg[key] = value
            sources[key] = f"--{key.replace('_', '-')} flag"
    if cfg.get("format", "csv") != "csv":
        raise ConfigError(f"unsupported output format {cfg.get('format')!r} (only csv)")
    cfg["_sources"] = sources
    return cfg


def _spec_from_config(cfg: dict) -> harness.ExperimentSpec:
    sources = cfg.get("_sources", {})
    for key in ("m", "t", "snr", "trials"):
        if cfg.get(key) is None:
            raise ConfigError(f"missing required setting {key!r} (flag or config file)")
    detectors = _parse_detectors(cfg.get("detectors", "mf"))
    try:
        return harness.ExperimentSpec(
            m=int(cfg["m"]),
            t=int(cfg["t"]),
            snr=float(cfg["snr"]),
            trials=int(cfg["trials"]),
            n=None if cfg.get("n") is None else int(cfg["n"]),
            detectors=detectors,
            seed=int(cfg.get("seed", 0)),
            epsilon=float(cfg.get("epsilon", theory.DEFAULT_EPSILON)),
            ci_level=float(cfg.get("ci_level", 0.95)),
            randomize_truth=bool(cfg.get("randomize_truth", False)),
        )
    except ConfigError as exc:
        provenance = ", ".join(f"{k} from {v}" for k, v in sorted(sources.items()))
        suffix = f" [settings: {provenance}]" if provenance else ""
        raise ConfigError(f"{exc}{suffix}") from exc


def _summarize(result: harness.ExperimentResult, stream=None):
    stream = stream if stream is not None else sys.stdout
    spec = result.spec
    print(
        f"m={spec.m} n={spec.n} t={spec.t} snr={spec.snr:g} trials={spec.trials} "
        f"seed={spec.seed} discarded={result.discarded_trials}",
        file=stream,
    )
    for det in result.per_detector.values():
        parts = [
            f"  {det.detector:5s} errors={det.errors:<8d} p_hat={det.p_hat:.6g}",
            f"ci=[{det.ci[0]:.3g}, {det.ci[1]:.3g}]",
        ]
        if det.emp_exponent is not None:
            parts.append(f"emp_exp={det.emp_exponent:.4g}")
        if det.theory_exponent is not None:
            parts.append(f"theory_exp={det.theory_exponent:.4g}")
        if det.bound_upper is not None:
            parts.append(f"bounds=[{det.bound_lower:.3g}, {det.bound_upper:.3g}]")
        if det.undersampled:
            parts.append("UNDERSAMPLED")
        print(" ".join(parts), file=stream)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_frame(args) -> int:
    m, n = args.m, args.n
    if m < 4 or m & (m - 1) or m > 1 << gf2m.MAX_DEGREE:
        print(f"error: M must be a power of two in 4..2^{gf2m.MAX_DEGREE}, got {m}", file=sys.stderr)
        return EXIT_CONSTRUCT
    if n < 1 or (m - 1) % n != 0:
        print(f"error: N must divide M-1, got N={n}, M-1={m - 1}", file=sys.stderr)
        return EXIT_CONSTRUCT
    ctx = gf2m.FieldCtx.standard(m.bit_length() - 1)
    frame = frames.build_group_hadamard(ctx, n)
    report_cols = ("m", "n", "alpha", "kappa", "coherence", "coherence_bound",
                   "row_orthonormality_error")
    report = [frame.m, frame.n, frame.alpha, frame.kappa, frame.mu,
              frames.coherence_bound(m, n), frames.row_orthonormality_error(frame)]
    sys.stdout.write(",".join(report_cols) + "\n")
    sys.stdout.write(",".join(_fmt(v) for v in report) + "\n")
    if args.out is not None:
        with open(args.out, "w", newline="") as fh:
            for row in frame.entries:
                fh.write(",".join(_fmt(float(v)) for v in row) + "\n")
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _merged_config(args)
    spec = _spec_from_config(cfg)
    threads = int(cfg.get("threads", 1))
    result = harness.run(spec, threads=threads)
    out = cfg.get("output_path")
    _write_csv(_result_rows(result), out)
    if out is not None:
        _summarize(result)
    return EXIT_OK


def _parse_values(raw: str) -> list:
    try:
        return [float(part) for part in raw.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"could not parse sweep values {raw!r}: {exc}") from exc


def _theory_only_rows(cfg: dict, axis: str, values) -> list:
    """Exponent-only sweep rows on a dense grid; nothing is simulated."""
    for key in ("m", "t"):
        if cfg.get(key) is None:
            raise ConfigError(f"theory-only sweeps need {key!r} to fix the base point")
    m, t = int(cfg["m"]), int(cfg["t"])
    beta = t / m
    alpha = (int(cfg["n"]) / m) if cfg.get("n") is not None else None
    snr = float(cfg["snr"]) if cfg.get("snr") is not None else None
    rows = []
    for value in values:
        b, a, s = beta, alpha, snr
        if axis == "alpha":
            a = float(value)
        elif axis == "beta":
            b = float(value)
        elif axis == "snr":
            s = float(value)
        else:
            raise ConfigError(f"axis {axis!r} is not available in theory-only mode")
        if s is None:
            raise ConfigError("missing snr for theory-only sweep")
        entries = [("mfml", theory.exponent_mf(b, s))]
        if a is not None:
            entries.append(("ml", theory.exponent_ml(b, a, s)))
            entries.append(("mrdd", theory.exponent_mrdd(b, a, s)))
        for det, exp in entries:
            rows.append([
                None, None, None, a if det != "mfml" else None, b, s, det, 0,
                None, None, None, None, None, exp, None, None, None, None,
            ])
    return rows


def cmd_sweep(args) -> int:
    cfg = _merged_config(args)
    values = _parse_values(args.values)
    if not values:
        raise ConfigError("sweep requires at least one axis value")
    if args.theory_only:
        rows = _theory_only_rows(cfg, args.axis, values)
        _write_csv(rows, cfg.get("output_path"))
        return EXIT_OK
    base = _spec_from_config(cfg)
    threads = int(cfg.get("threads", 1))
    results = harness.sweep(base, args.axis, values, threads=threads)
    rows = []
    for result in results:
        rows.extend(_result_rows(result))
    out = cfg.get("output_path")
    _write_csv(rows, out)
    if out is not None:
        for result in results:
            _summarize(result)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Validation suite


def _check_frame_geometry(sizes) -> tuple:
    worst_excess = -math.inf
    worst_ortho = 0.0
    for m in sizes:
        ctx = gf2m.FieldCtx.standard(m.bit_length() - 1)
        for n in range(1, m):
            if (m - 1) % n:
                continue
            frame = frames.build_group_hadamard(ctx, n)
            worst_excess = max(worst_excess, frame.mu - frames.coherence_bound(m, n))
            worst_ortho = max(worst_ortho, frames.row_orthonormality_error(frame))
    exact = frames.build_group_hadamard(gf2m.FieldCtx.standard(3), 7)
    exact_err = abs(exact.mu - 1 / 7)
    ok = worst_excess <= 1e-12 and worst_ortho <= 1e-10 and exact_err <= 1e-12
    detail = (
        f"max coherence excess {worst_excess:.3g}, "
        f"max row-orthonormality error {worst_ortho:.3g}, "
        f"|mu(8,7) - 1/7| = {exact_err:.3g}"
    )
    return ok, detail


def _check_wishart(seed: int, n_samples: int) -> tuple:
    # One draw feeds the exact-dof KS test, the mean ratio and the wrong-dof control.
    params = ModelParams.from_snr(m=16, t=32, snr=1.0)
    frame = frames.build_group_hadamard(gf2m.FieldCtx.standard(4), 5)
    pair = (1, 2)
    samples = stats.sample_pair_distance2(params, frame, pair, n_samples, RngStream(seed, 900001))
    scale = stats.pair_scale(params.energy, frame, pair)
    dof = params.t - params.m + frame.n
    crit = stats.ks_critical_value(n_samples)
    ks = stats.ks_statistic(samples / scale, lambda x: stats.chi2_cdf(x, dof))
    ks_wrong = stats.ks_statistic(samples / scale,
                                  lambda x: stats.chi2_cdf(x, params.t - params.m))
    mean_ratio = float(samples.mean()) / (scale * dof)
    ok = ks < crit and abs(mean_ratio - 1) < 0.1 and ks_wrong >= crit
    detail = (
        f"KS D={ks:.4f} (crit {crit:.4f}), "
        f"mean ratio {mean_ratio:.3f}, wrong-dof D={ks_wrong:.4f} "
        f"{'rejected' if ks_wrong >= crit else 'NOT rejected'}"
    )
    return ok, detail


def _validate_run(seed: int, snr: float, trials: int, detectors: tuple, threads: int):
    spec = harness.ExperimentSpec(
        m=8, t=16, snr=snr, trials=trials, n=7, detectors=detectors, seed=seed
    )
    return harness.run(spec, threads=threads)


def _check_sandwich(result: harness.ExperimentResult) -> tuple:
    verdicts = harness.bound_sandwich_check(result)
    verdicts = {name: verdicts[name] for name in ("ml", "mrdd")}
    ok = all(v.upper_pass for v in verdicts.values())
    detail = "; ".join(
        f"{name}: ci_lo={result.per_detector[name].ci[0]:.4g} <= upper={v.bound_upper:.4g} "
        f"[{v.flag}], p_hat/lower={v.lower_ratio:.3g}"
        for name, v in verdicts.items()
    )
    return ok, detail


def _ordering_run(seed: int, quick: bool, threads: int) -> harness.ExperimentResult:
    return _validate_run(seed, 1.0 if quick else 2.0, 6000 if quick else 100_000,
                         ("mfml", "ml", "mrdd"), threads)


def _check_ordering(seed: int, quick: bool, threads: int, result=None) -> tuple:
    # The paper's order, ML on v (mfml) <= ML <= MRDD, at a config where every
    # rule errs often; too few errors fail the check instead of passing it.
    if result is None:
        result = _ordering_run(seed, quick, threads)
    stats_ = result.per_detector
    widths = {k: stats_[k].ci[1] - stats_[k].ci[0] for k in stats_}
    p = {k: stats_[k].p_hat for k in stats_}
    detail = f"p_mfml={p['mfml']:.4g}, p_ml={p['ml']:.4g}, p_mrdd={p['mrdd']:.4g}"
    few = [f"{k}={d.errors}" for k, d in stats_.items() if d.errors < ORDERING_MIN_ERRORS]
    if few:
        return False, f"insufficient errors ({', '.join(few)} < {ORDERING_MIN_ERRORS}); {detail}"
    pairs = (("mfml", "ml"), ("ml", "mrdd"))
    return all(p[a] <= p[b] + max(widths[a], widths[b]) for a, b in pairs), detail


def cmd_validate(args) -> int:
    seed = args.seed if args.seed is not None else 0
    quick = args.quick
    threads = args.threads if args.threads is not None else 1
    ordering_run = functools.cache(lambda: _ordering_run(seed, quick, threads))
    # In full mode the ordering run has the sandwich's config and seed, and so
    # its draws: one run feeds both checks.  --quick orders at a lower SNR.
    sandwich_run = ordering_run if not quick else (
        lambda: _validate_run(seed, 2.0, 20_000, ("ml", "mrdd"), threads))
    checks = [
        ("frame-geometry", lambda: _check_frame_geometry((8, 16) if quick else (8, 16, 32, 64))),
        ("wishart-projection-ks", lambda: _check_wishart(seed, 800 if quick else 2000)),
        ("bound-sandwich", lambda: _check_sandwich(sandwich_run())),
        ("detector-ordering", lambda: _check_ordering(seed, quick, threads, ordering_run())),
    ]
    all_ok = True
    for name, check in checks:
        ok, detail = check()
        all_ok &= ok
        print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return EXIT_OK if all_ok else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# Entry point


def _add_common_flags(sub):
    sub.add_argument("--config", help="flat JSON config file; flags take precedence")
    sub.add_argument("--m", type=int)
    sub.add_argument("--t", type=int)
    sub.add_argument("--n", type=int)
    sub.add_argument("--snr", type=float)
    sub.add_argument("--trials", type=int)
    sub.add_argument("--detectors", help="comma list from mf (plain argmax of v, no closed "
                     "forms), mfml (ML on v, with the MF exponent and bound), ml, mrdd, rdd")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--epsilon", type=float)
    sub.add_argument("--ci-level", dest="ci_level", type=float)
    sub.add_argument("--randomize-truth", dest="randomize_truth", action="store_const", const=True)
    sub.add_argument("--out", help="CSV output path (stdout when omitted)")
    sub.add_argument("--threads", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compdet",
        description="Detection with compressed matched-filter statistics: "
                    "frames, simulation, theory, validation.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_frame = subs.add_parser("frame", help="build a sensing frame and report its geometry")
    p_frame.add_argument("--m", type=int, required=True)
    p_frame.add_argument("--n", type=int, required=True)
    p_frame.add_argument("--out", help="write the N x M matrix as CSV")
    p_frame.set_defaults(func=cmd_frame)

    p_sim = subs.add_parser("simulate", help="run one Monte Carlo experiment")
    _add_common_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = subs.add_parser("sweep", help="run experiments along one parameter axis")
    _add_common_flags(p_sweep)
    p_sweep.add_argument("--axis", required=True, choices=harness.SWEEP_AXES)
    p_sweep.add_argument("--values", required=True, help="comma list of axis values")
    p_sweep.add_argument("--theory-only", dest="theory_only", action="store_true",
                         help="evaluate exponents only; alpha/beta values need not be realizable")
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = subs.add_parser("validate", help="run the built-in validation suite")
    p_val.add_argument("--seed", type=int)
    p_val.add_argument("--quick", action="store_true", help="m <= 16 subset, runs in seconds")
    p_val.add_argument("--threads", type=int)
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NotADivisor,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCT
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SingularGram, SingularCovariance, NumericalFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except CompdetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
