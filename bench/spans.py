"""Spans recorded from outside the program, by wrapping module attributes.

The experiment pipeline calls its layers through module globals
(``experiments.aberth_solve``, ``roots.as_arrays``, ...), so replacing those
attributes with timing wrappers records a span at every layer boundary without
touching the library.  A span is a tuple (id, parent, name, thread, wall
start, wall end, thread-CPU start, thread-CPU end); spans are kept in memory
and written out once at the end.

Wall self time is a span's duration minus the union of its children's
intervals, on any thread.  CPU self time is the span's thread CPU time minus
that of its children on the same thread; unlike wall time it leaves out the
time a worker thread waits for the interpreter lock.

The solve wrapper also keeps each solved polynomial, so that the Newton
polygon hull can be timed on its own after the traced passes, outside every
span.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from collections import defaultdict

# (module, attribute, span name): the calls each layer makes through a
# module global.  Attributes a later version no longer has are skipped.
TARGETS = (
    ("experiments", "_run_trial", "experiments.trial"),
    ("experiments", "sample_coefficients", "sampler.sample"),
    ("experiments", "evaluate_certificate_events", "localization.events"),
    ("experiments", "aberth_solve", "roots.solve"),
    ("experiments", "predicted_roots", "roots.predict"),
    ("experiments", "match_roots", "matcher.match"),
    ("experiments", "summarize", "experiments.summarize"),
    ("matcher", "bottleneck_assignment", "matcher.bottleneck"),
    ("sampler", "from_arrays", "xvec.convert"),
    ("roots", "as_arrays", "xvec.convert"),
    ("roots", "from_arrays", "xvec.convert"),
    ("matcher", "as_arrays", "xvec.convert"),
)


class Tracer:
    """Span recorder shared by the pool threads.  It relies on list.append
    and next() on itertools.count being single atomic steps in CPython."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.polynomials: list = []  # every polynomial passed to the solver
        self.root = 0  # parent for spans opened on a thread with no open span
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    @contextlib.contextmanager
    def span(self, name: str):
        st = self._stack()
        parent = st[-1] if st else self.root
        sid = next(self._ids)
        st.append(sid)
        c0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            yield sid
        finally:
            t1 = time.perf_counter()
            c1 = time.thread_time()
            st.pop()
            self.spans.append(
                (sid, parent, name, threading.get_ident(), t0, t1, c0, c1)
            )

    @contextlib.contextmanager
    def root_span(self, name: str):
        """A span that also parents the spans opened, while it is open, on
        threads that have no open span of their own (the trial pool)."""
        with self.span(name) as sid:
            self.root = sid
            try:
                yield sid
            finally:
                self.root = 0

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def installed(self, modules: dict):
        """Wrap every TARGETS attribute in ``modules`` until the block exits."""
        saved = []
        try:
            for mod_name, attr, name in TARGETS:
                mod = modules[mod_name]
                if not hasattr(mod, attr):
                    continue
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                wrapped = self.wrap(fn, name)
                if name == "roots.solve":
                    wrapped = self._keeping_polynomial(wrapped)
                setattr(mod, attr, wrapped)
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def _keeping_polynomial(self, solve):
        def traced(p, *args, **kwargs):
            self.polynomials.append(p)
            return solve(p, *args, **kwargs)

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": [
                        "id", "parent", "name", "thread",
                        "start", "end", "cpu_start", "cpu_end",
                    ],
                    "spans": self.spans,
                },
                fh,
            )


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total = 0.0
    cur_a = cur_b = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> list[tuple[float, float]]:
    """Per span: (wall self time, CPU self time)."""
    children = defaultdict(list)
    for span in spans:
        children[span[1]].append(span)
    out = []
    for sid, _parent, _name, thread, t0, t1, c0, c1 in spans:
        kids = children.get(sid, [])
        covered = _union_length([(k[4], k[5]) for k in kids], t0, t1)
        kid_cpu = sum(k[7] - k[6] for k in kids if k[3] == thread)
        out.append(((t1 - t0) - covered, (c1 - c0) - kid_cpu))
    return out


def layer_totals(spans, main_thread: int):
    """Per span name: wall self time, CPU self time, wall duration and call
    count; plus the CPU self time summed over threads other than
    ``main_thread`` (the trial pool)."""
    wall_self: dict[str, float] = defaultdict(float)
    cpu_self: dict[str, float] = defaultdict(float)
    dur: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    pool_cpu = 0.0
    for span, (ws, cs) in zip(spans, self_times(spans)):
        name, thread = span[2], span[3]
        wall_self[name] += ws
        cpu_self[name] += cs
        dur[name] += span[5] - span[4]
        calls[name] += 1
        if thread != main_thread:
            pool_cpu += cs
    return wall_self, cpu_self, dur, calls, pool_cpu
