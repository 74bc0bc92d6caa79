"""Which program names the traced run wraps, and the per-layer metrics
derived from the spans.

Normalisation: MC layers per trial, the reduction and the CLI per
``simulate``/``frame`` call ("experiment"), frame layers per frame built,
A^T u per product.  ``frames.build_s.*`` is inclusive time; every other
timing is self time, with the numpy/scipy leaf calls attributed to the span
that called them.
"""

from __future__ import annotations

from tracer import Tracer


def install(tracer: Tracer) -> None:
    """Wrap the program's layers; the compdet modules must be importable."""
    import numpy
    from compdet import cli, detectors, frames, gf2m, harness

    tracer.wrap(cli, "main", "cli")
    tracer.wrap(harness, "run", "harness.run")
    tracer.wrap_streams(harness)
    tracer.wrap(harness, "whiten_from_cholesky", "detectors.whiten")
    for rule in ("mf", "mrdd", "rdd"):
        tracer.wrap(harness, f"detect_{rule}", f"detectors.{rule}")
    tracer.wrap(harness, "detect_ml_whitened", "detectors.ml")
    tracer.wrap(harness, "cho_solve", "model.compressed_stat")
    tracer.wrap(harness, "clopper_pearson", "stats.clopper_pearson")
    tracer.wrap(harness, "_theory_for", "theory.bounds")
    tracer.wrap(harness, "build_frame_for", "harness.build_frame_for")
    tracer.wrap(detectors, "solve_triangular", lambda parent, *a, **k: f"{parent}>solve_triangular")
    tracer.wrap(numpy.linalg, "cholesky", lambda parent, *a, **k: f"{parent}>cholesky")
    tracer.wrap(frames, "build_group_hadamard",
                lambda parent, ctx, n, *a, **k: f"frames.build.m{ctx.order}_n{n}")
    tracer.wrap(frames, "_coherence_of", "frames.coherence")
    tracer.wrap(frames, "row_orthonormality_error", "frames.check")
    tracer.wrap(frames, "coherence_bound", "frames.check")
    tracer.wrap(gf2m, "mul", "gf2m.mul")
    tracer.wrap(gf2m, "trace", "gf2m.trace")
    tracer.wrap(gf2m, "subgroup", "gf2m.subgroup")


def _per(value, count, scale=1.0):
    return value / count / scale if count else 0.0


def layer_metrics(tracer: Tracer, trials: int, experiments: int, discards: int,
                  frame_sizes) -> dict:
    """Per-layer metric values; a metric whose wrapped name is absent is left out."""
    s, tot, calls = tracer.self_ns, tracer.total_ns, tracer.calls
    have = tracer.wrapped.__contains__
    us, s_, ms = 1e3, 1e9, 1e6  # ns per unit
    frames_built = sum(n for name, n in calls.items() if name.startswith("frames.build."))

    def rows():
        streams = have("compdet.harness.RngStream")
        chol = have("numpy.linalg.cholesky")
        solve = have("compdet.detectors.solve_triangular")
        whiten = have("compdet.harness.whiten_from_cholesky")
        yield "rng.stream_open_us", streams, _per(s["rng.stream_open"], trials, us)
        yield "rng.draw_us", streams, _per(s["rng.draw"], trials, us)
        yield "rng.opens_per_trial", streams, _per(calls["rng.stream_open"], trials)
        yield "model.gram_chol_us", chol, _per(s["harness.run>cholesky"], trials, us)
        yield ("model.compressed_stat_us", have("compdet.harness.cho_solve"),
               _per(s["model.compressed_stat"], trials, us))
        yield "detectors.whiten_us", whiten, _per(s["detectors.whiten"], trials, us)
        yield ("detectors.whiten_chol_us", whiten and chol,
               _per(s["detectors.whiten>cholesky"], trials, us))
        yield ("detectors.whiten_solve_us", whiten and solve,
               _per(s["detectors.whiten>solve_triangular"], trials, us))
        yield ("detectors.ml_us", have("compdet.harness.detect_ml_whitened") and solve,
               _per(s["detectors.ml"] + s["detectors.ml>solve_triangular"], trials, us))
        for rule in ("mrdd", "rdd", "mf"):
            yield (f"detectors.{rule}_us", have(f"compdet.harness.detect_{rule}"),
                   _per(s[f"detectors.{rule}"], trials, us))
        yield "harness.trial_self_us", have("compdet.harness.run"), _per(s["harness.run"], trials, us)
        yield "harness.discards", True, float(discards)
        cp, th = have("compdet.harness.clopper_pearson"), have("compdet.harness._theory_for")
        yield ("harness.reduce_us", cp and th,
               _per(tot["stats.clopper_pearson"] + tot["theory.bounds"], experiments, us))
        yield "stats.clopper_pearson_us", cp, _per(tot["stats.clopper_pearson"], experiments, us)
        yield "theory.bounds_us", th, _per(tot["theory.bounds"], experiments, us)
        yield "cli.self_ms", have("compdet.cli.main"), _per(s["cli"], experiments, ms)
        builds = have("compdet.frames.build_group_hadamard")
        for m, n in frame_sizes:
            name = f"m{m}_n{n}"
            yield f"frames.build_s.{name}", builds, _per(tot[f"frames.build.{name}"],
                                                          calls[f"frames.build.{name}"], s_)
            yield (f"frames.apply_us.{name}", True,
                   _per(tot[f"frames.apply.{name}"], calls[f"frames.apply.{name}"], us))
        yield ("frames.coherence_s", have("compdet.frames._coherence_of"),
               _per(s["frames.coherence"], frames_built, s_))
        yield ("frames.check_s", have("compdet.frames.row_orthonormality_error"),
               _per(s["frames.check"], frames_built, s_))
        mul, trace = have("compdet.gf2m.mul"), have("compdet.gf2m.trace")
        yield "gf2m.mul_calls", mul, _per(calls["gf2m.mul"], frames_built)
        yield "gf2m.trace_calls", trace, _per(calls["gf2m.trace"], frames_built)
        yield "gf2m.mul_s", mul, _per(s["gf2m.mul"], frames_built, s_)
        yield "gf2m.subgroup_s", have("compdet.gf2m.subgroup"), _per(s["gf2m.subgroup"], frames_built, s_)

    return {name: value for name, present, value in rows() if present}
