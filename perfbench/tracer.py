"""Per-layer spans recorded from outside the program.

The traced child replaces public functions, and the module-level names the
harness resolves at call time, with wrappers that open a span.  Spans nest
on a stack and are folded into per-name totals as they close: a span's self
time is its duration minus the time its child spans cover.  Totals, not
individual spans, stay in memory, because a run opens millions of spans.

A name that the program no longer has is skipped, so the metric built on it
is left out of the result instead of failing the run.  The harness runs
with one thread, so one stack suffices.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

_now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self._stack = []  # [name, ns covered by child spans]
        self.self_ns = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.wrapped = set()  # names of the wrapped program attributes
        self._undo = []

    @property
    def parent(self) -> str:
        return self._stack[-1][0] if self._stack else "root"

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        entry = [name, 0]
        self._stack.append(entry)
        t0 = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = _now() - t0
            self._stack.pop()
            self.total_ns[name] += dt
            self.self_ns[name] += dt - entry[1]
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][1] += dt

    def wrap(self, owner, attr: str, name) -> bool:
        """Replace owner.attr by a spanned wrapper; False if it is absent.

        name is a span name, or a function of (parent span name, call
        arguments) that returns one.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            return False
        name_of = name if callable(name) else (lambda parent, *args, **kwargs: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name_of(self.parent, *args, **kwargs), fn, *args, **kwargs)

        self._replace(owner, attr, fn, traced)
        return True

    def wrap_streams(self, owner) -> bool:
        """Trace owner.RngStream: opening a generator, and every draw from it."""
        base = getattr(owner, "RngStream", None)
        if base is None or not hasattr(base, "generator"):
            return False
        tracer = self

        class TracedRngStream(base):
            def generator(self, *args, **kwargs):
                gen = tracer.span("rng.stream_open", base.generator, self, *args, **kwargs)
                return _TracedGenerator(gen, tracer)

        self._replace(owner, "RngStream", base, TracedRngStream)
        return True

    def _replace(self, owner, attr, old, new):
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))
        self.wrapped.add(f"{owner.__name__}.{attr}")

    def restore(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)
        self.wrapped.clear()


class _TracedGenerator:
    """numpy Generator proxy whose method calls are rng.draw spans."""

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, attr):
        value = getattr(self._gen, attr)
        if not callable(value):
            return value
        return functools.partial(self._tracer.span, "rng.draw", value)
