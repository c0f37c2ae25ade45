"""In-memory spans around the calls into each chtg layer, from outside.

The tracer replaces public functions at the names their callers look up
(``chtg.analysis.enumerate_words``, ``chtg.arithmetic.trace_polynomial``,
...) with timing wrappers, and puts the originals back on ``uninstall``.
Nothing under ``src/`` is edited.  A span is (name, start_ns, end_ns,
parent index); spans nest because the program is single
threaded and every wrapper pushes and pops one stack entry.
"""

from __future__ import annotations

import json
import sys
import time

_now = time.perf_counter_ns

# (module, attribute, span name, kind); kind "gen" times each __next__ of
# the returned generator as one span.
PATCHES = (
    ("chtg.analysis", "scan_elliptic", "analysis.scan_elliptic", "call"),
    ("chtg.analysis", "non_discreteness_certificate", "analysis.certificate", "call"),
    ("chtg.analysis", "thresholds", "analysis.thresholds", "call"),
    ("chtg.analysis", "enumerate_words", "words.enumerate", "gen"),
    ("chtg.analysis", "realize", "triangle.realize", "call"),
    ("chtg.analysis", "trace_oracle", "traces.oracle", "call"),
    ("chtg.analysis", "classify", "classify.classify", "call"),
    ("chtg.words", "enumerate_words", "words.enumerate", "gen"),
    ("chtg.arithmetic", "group_with_rotation", "arithmetic.group_with_rotation", "call"),
    ("chtg.arithmetic", "group_ring_check", "arithmetic.ring_check", "call"),
    ("chtg.arithmetic", "group_conjugate_traces", "arithmetic.conjugate", "call"),
    ("chtg.arithmetic", "basis_ring_check", "arithmetic.basis_check", "call"),
    ("chtg.arithmetic", "integer_ring_check", "arithmetic.integer_check", "call"),
    ("chtg.arithmetic", "trace_combinatorial", "traces.combinatorial", "call"),
    ("chtg.arithmetic", "trace_polynomial", "traces.exact", "call"),
    ("chtg.arithmetic", "realize", "triangle.realize", "call"),
    ("chtg.traces", "trace_oracle", "traces.oracle", "call"),
    ("chtg.traces", "trace_combinatorial", "traces.combinatorial", "call"),
    ("chtg.traces", "trace_recursive", "traces.recursive", "call"),
    ("chtg.traces", "trace_polynomial", "traces.exact", "call"),
    ("chtg.traces.TracePolynomial", "evaluate", "traces.evaluate", "call"),
    ("chtg.triangle", "realize", "triangle.realize", "call"),
    # chtg.classify is the re-exported function, so the module comes from
    # sys.modules; chtg.cli imported the function by name.
    ("chtg.classify", "classify", "classify.classify", "call"),
    ("chtg.cli", "classify", "classify.classify", "call"),
)


def _resolve(path):
    """sys.modules[path], a class of a loaded module for 'module.Class', or
    None when the workload never imported that module (chtg.cli in sweep)."""
    if path in sys.modules:
        return sys.modules[path]
    mod, _, attr = path.rpartition(".")
    return getattr(sys.modules.get(mod), attr, None)


class Tracer:
    def __init__(self):
        self.names = []
        self.start = []
        self.end = []
        self.parent = []
        self.yielded = 0
        self._stack = [-1]
        self._saved = []

    def open(self, name):
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(i)
        self.start.append(_now())
        return i

    def close(self, i):
        self.end[i] = _now()
        self._stack.pop()

    def span(self, name, fn, *args, **kwargs):
        i = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(i)

    def _wrap(self, fn, name, kind):
        tracer = self

        if kind == "gen":
            def wrapper(*args, **kwargs):
                return _TimedIter(tracer, name, fn(*args, **kwargs))
        else:
            def wrapper(*args, **kwargs):
                i = tracer.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(i)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for path, attr, name, kind in PATCHES:
            owner = _resolve(path)
            if owner is None:
                continue
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, kind))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def dump(self, path):
        rows = [{"name": n, "start_ns": s, "end_ns": e, "parent": p}
                for n, s, e, p in zip(self.names, self.start, self.end,
                                      self.parent)]
        with open(path, "w") as fh:
            json.dump(rows, fh)


class _TimedIter:
    """Times each __next__ of a generator as one span."""

    def __init__(self, tracer, name, gen):
        self._tracer = tracer
        self._name = name
        self._gen = gen

    def __iter__(self):
        return self

    def __next__(self):
        i = self._tracer.open(self._name)
        try:
            value = next(self._gen)
        finally:
            self._tracer.close(i)
        self._tracer.yielded += 1
        return value


def span_totals(tracer: Tracer) -> dict:
    """Per span name: [calls, total seconds, self seconds], where self time
    is a span's duration minus the durations of its direct children."""
    n = len(tracer.names)
    dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
    own = list(dur)
    for i in range(n):
        if tracer.parent[i] >= 0:
            own[tracer.parent[i]] -= dur[i]
    table: dict = {}
    for i in range(n):
        row = table.setdefault(tracer.names[i], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur[i] / 1e9
        row[2] += own[i] / 1e9
    return table


def layer_metrics(tracer: Tracer, root: int) -> dict:
    """Per-layer totals of a traced job whose root span is ``root``.

    ``trace.unattributed_frac`` is the share of the job no layer span
    covers: the benchmark's own loop and the stdout capture.
    """
    table = span_totals(tracer)

    def calls(name):
        return table.get(name, (0,))[0]

    def total(name):
        return table.get(name, (0, 0.0))[1]

    def own(name):
        return table.get(name, (0, 0.0, 0.0))[2]

    _, job, unattributed = table[tracer.names[root]]
    yielded = tracer.yielded
    enum_s = own("words.enumerate")
    return {
        "cli.self_s": own("cli.main"),
        "analysis.scan_self_s": own("analysis.scan_elliptic"),
        "analysis.certificate_s": total("analysis.certificate"),
        "words.enumerate_s": enum_s,
        "words.yielded": yielded,
        "words.us_per_yield": enum_s * 1e6 / yielded if yielded else 0.0,
        "traces.oracle_s": own("traces.oracle"),
        "traces.combinatorial_calls": calls("traces.combinatorial"),
        "traces.combinatorial_s": own("traces.combinatorial"),
        "traces.exact_calls": calls("traces.exact"),
        "traces.exact_s": own("traces.exact"),
        "traces.recursive_s": own("traces.recursive"),
        "traces.evaluate_s": own("traces.evaluate"),
        "classify.calls": calls("classify.classify"),
        "classify.s": own("classify.classify"),
        "triangle.realize_calls": calls("triangle.realize"),
        "triangle.realize_s": own("triangle.realize"),
        "arithmetic.ring_check_self_s": own("arithmetic.ring_check"),
        "arithmetic.conjugate_self_s": own("arithmetic.conjugate"),
        "arithmetic.basis_check_s": total("arithmetic.basis_check"),
        "trace.unattributed_frac": unattributed / job if job else 0.0,
    }

