"""The benchmark's workloads, the operations a child process times, and
the per-operation output checks.

An operation is one ``compdet simulate`` call (Monte Carlo workloads) or one
build-and-check pass over the frame set (``frame_scale``).  The program is driven
only through ``compdet.cli.main`` and ``compdet.detectors.detect_mrdd``;
results are read back through the CSV schema and the ``frame`` report, never
by comparing bytes, so a change of random stream version keeps passing.

Importing this module does not import compdet; the child does that itself so
the import counts towards set-up time.
"""

from __future__ import annotations

import contextlib
import csv
import io
import time
from dataclasses import dataclass
from typing import Optional

# Fixed in advance.  MAX_DISCARD_FRACTION mirrors the harness constant of the
# same name at the time the benchmark was defined; the check does not follow
# later edits of the program's own constant.
MAX_DISCARD_FRACTION = 1e-3
ROW_ORTHO_TOL = 1e-10
COHERENCE_SLACK = 1e-12  # the same float slack `compdet validate` allows
APPLY_PER_FRAME = 200  # A^T u products timed per frame and pass
DETECT_SAMPLES = 16  # columns k checked for detect_mrdd(frame, a_k) == k


@dataclass(frozen=True)
class McWorkload:
    """A ``simulate`` job at a fixed (M, T, N, SNR, detectors)."""

    m: int
    t: int
    n: Optional[int]
    snr: float
    detectors: tuple
    trials_per_call: int
    randomize_truth: bool = False
    # Error rates per detector measured once by reference.py at
    # REFERENCE_SEED_BASE, with reference_trials trials.
    reference_rates: tuple = ()
    reference_trials: int = 0
    ordered: bool = False  # check ML <= MRDD on run totals

    def argv(self, seed: int) -> list:
        argv = ["simulate", "--m", str(self.m), "--t", str(self.t), "--snr", repr(self.snr),
                "--detectors", ",".join(self.detectors),
                "--trials", str(self.trials_per_call), "--seed", str(seed)]
        if self.n is not None:
            argv += ["--n", str(self.n)]
        if self.randomize_truth:
            argv.append("--randomize-truth")
        return argv


@dataclass(frozen=True)
class FrameWorkload:
    """Build and check each (M, N) frame, then apply A^T u through detect_mrdd."""

    sizes: tuple


WORKLOADS = {
    "small_all": McWorkload(
        m=8, t=16, n=7, snr=2.0, detectors=("mf", "ml", "mrdd", "rdd"), trials_per_call=2000,
        reference_rates=(("mf", 0.035967), ("ml", 0.004914), ("mrdd", 0.033923), ("rdd", 0.078043)),
        reference_trials=1_000_000, ordered=True,
    ),
    "large_ml": McWorkload(
        m=256, t=512, n=255, snr=0.03, detectors=("ml", "mrdd"), trials_per_call=40,
        reference_rates=(("ml", 0.1633), ("mrdd", 0.5199)), reference_trials=20_000, ordered=True,
    ),
    "mf_draw": McWorkload(
        m=256, t=512, n=None, snr=0.03, detectors=("mf",), trials_per_call=250,
        randomize_truth=True, reference_rates=(("mf", 0.1649),), reference_trials=100_000,
    ),
    # M = 2^6 .. 2^10 at kappa = (M-1)/N = 1, and kappa = 3 wherever 3 divides M-1.
    "frame_scale": FrameWorkload(
        sizes=((64, 63), (64, 21), (128, 127), (256, 255), (256, 85), (512, 511),
               (1024, 1023), (1024, 341)),
    ),
}

# Seeds of the reference measurement; timing seeds are seed * 2**20 + ..., so
# they meet this range only for --seed values of 2**40 and above.
REFERENCE_SEED_BASE = 1 << 60


def sim_seed(seed: int, child: int, call: int) -> int:
    """Simulate seed of one call; a pure function of the benchmark seed."""
    return seed * (1 << 20) + child * (1 << 12) + call


# ---------------------------------------------------------------------------
# Computed work labels (not measured: derived from the array shapes).


def mc_work(w: McWorkload) -> tuple:
    """(flops, bytes) per trial of the direct trial pipeline, computed.

    Bytes count each float64 array once per write and once per read by a
    kernel, ignoring caches; drawing the normals counts as writes only.
    """
    m, t, n, dets = w.m, w.t, w.n or 0, set(w.detectors)
    flops = 2 * t * m + t  # y = s_truth + z, v = S^T y
    words = 2 * t * m + 2 * t + m  # S written and read for v; y; v
    if "mf" in dets:
        flops += m
        words += m
    if dets - {"mf"}:
        # G = S^T S, its Cholesky factor L, cho_solve with L, u = A x
        flops += 2 * t * m * m + m ** 3 / 3 + 2 * m * m + 2 * n * m
        words += t * m + 5 * m * m + n * m
    if "ml" in dets:
        # whiten: X = L^{-1} A^T, C = X^T X, chol C, L_C^{-1} A, column norms;
        # then the ML score: L_C^{-1} u and columns^T u_w
        flops += m * m * n + 2 * n * n * m + n ** 3 / 3 + n * n * m + 2 * n * m + n * n + 2 * n * m
        words += 7 * n * m + 5 * n * n + m * m
    for name in ("mrdd", "rdd"):
        if name in dets:
            flops += 2 * n * m
            words += n * m
    return float(flops), float(8 * words)


def frame_work(w: FrameWorkload) -> tuple:
    """(flops, bytes) per A^T u product, averaged over the frame set, computed."""
    flops = sum(2 * n * m for m, n in w.sizes) / len(w.sizes)
    return float(flops), float(8 * sum(n * m for m, n in w.sizes) / len(w.sizes))


# ---------------------------------------------------------------------------
# Operations, run inside a child process that has imported compdet.


def _cli(cli, argv: list) -> tuple:
    """(exit code, captured stdout, wall seconds) of one cli.main call."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue(), time.perf_counter() - t0


def check_simulate_csv(w: McWorkload, text: str, seed: int) -> tuple:
    """Parse one simulate CSV; return ({detector: errors}, discards).

    Raises ValueError when the output breaks the schema or the discard limit.
    """
    rows = list(csv.DictReader(io.StringIO(text)))
    if sorted(r["detector"] for r in rows) != sorted(w.detectors):
        raise ValueError(f"detectors {[r['detector'] for r in rows]} != {list(w.detectors)}")
    errors = {}
    discards = set()
    for row in rows:
        trials, errs = int(row["trials"]), int(row["errors"])
        if trials != w.trials_per_call or int(row["seed"]) != seed:
            raise ValueError(f"row reports trials={trials} seed={row['seed']}")
        if not 0 <= errs <= trials:
            raise ValueError(f"{row['detector']}: {errs} errors in {trials} trials")
        if abs(float(row["p_hat"]) - errs / trials) > 1e-12:
            raise ValueError(f"{row['detector']}: p_hat {row['p_hat']} != {errs}/{trials}")
        errors[row["detector"]] = errs
        discards.add(int(row["discarded"]))
    if len(discards) != 1:
        raise ValueError(f"rows disagree on discards: {sorted(discards)}")
    (discarded,) = discards
    if not 0 <= discarded <= MAX_DISCARD_FRACTION * w.trials_per_call:
        raise ValueError(f"{discarded} discards in {w.trials_per_call} trials")
    return errors, discarded


def simulate_op(cli, w: McWorkload, seed: int) -> dict:
    """One timed simulate call and its check; raises on a failed check."""
    rc, text, elapsed = _cli(cli, w.argv(seed))
    if rc != 0:
        raise ValueError(f"simulate exited with {rc}")
    errors, discards = check_simulate_csv(w, text, seed)
    return {"op_s": elapsed, "units": w.trials_per_call, "unit_s": elapsed,
            "errors": errors, "trials": w.trials_per_call, "discards": discards}


def parse_frame_report(text: str) -> dict:
    """The header and value line that ``compdet frame`` prints, as a dict."""
    header, values = text.strip().splitlines()
    return dict(zip(header.split(","), values.split(",")))


def check_frame(report: dict, frame, m: int, n: int, detect_mrdd, rng) -> None:
    """Check one frame report and frame; raises ValueError on a failure."""
    if int(report["m"]) != m or int(report["n"]) != n:
        raise ValueError(f"report is for m={report['m']} n={report['n']}, asked m={m} n={n}")
    ortho = float(report["row_orthonormality_error"])
    if not ortho <= ROW_ORTHO_TOL:
        raise ValueError(f"m={m} n={n}: row orthonormality error {ortho}")
    mu, bound = float(report["coherence"]), float(report["coherence_bound"])
    if not mu <= bound + COHERENCE_SLACK:
        raise ValueError(f"m={m} n={n}: coherence {mu} above bound {bound}")
    for k in rng.choice(m, size=min(DETECT_SAMPLES, m), replace=False) + 1:
        got = detect_mrdd(frame, frame.entries[:, k - 1])
        if got != k:
            raise ValueError(f"m={m} n={n}: detect_mrdd(frame, a_{k}) = {got}")


def frame_pass_op(cli, frames_mod, detect_mrdd, w: FrameWorkload, rng, span=None) -> dict:
    """Build, check and apply every frame of the set once.

    op_s is the summed wall time of the ``frame`` calls (build plus geometry
    report); unit_s is the summed time of the A^T u products.  ``span``, when
    given, wraps each product in a trace span named after the frame size.
    """
    captured = []
    build = frames_mod.build_group_hadamard

    def capturing_build(*args, **kwargs):
        captured.append(build(*args, **kwargs))
        return captured[-1]

    build_s = apply_s = 0.0
    frames_mod.build_group_hadamard = capturing_build
    try:
        for m, n in w.sizes:
            rc, text, elapsed = _cli(cli, ["frame", "--m", str(m), "--n", str(n)])
            build_s += elapsed
            if rc != 0:
                raise ValueError(f"frame --m {m} --n {n} exited with {rc}")
            report = parse_frame_report(text)
            frame = captured.pop()
            us = rng.standard_normal((APPLY_PER_FRAME, n))
            name = f"frames.apply.m{m}_n{n}"
            t0 = time.perf_counter()
            if span is None:
                for u in us:
                    detect_mrdd(frame, u)
            else:
                for u in us:
                    span(name, detect_mrdd, frame, u)
            apply_s += time.perf_counter() - t0
            check_frame(report, frame, m, n, detect_mrdd, rng)
    finally:
        frames_mod.build_group_hadamard = build
    return {"op_s": build_s, "units": APPLY_PER_FRAME * len(w.sizes), "unit_s": apply_s,
            "errors": {}, "trials": 0, "discards": 0}
