"""Spans and counts taken from outside the program.

Three sources, all installed by the benchmark and removed again after a
traced pass; nothing in ``src/`` changes:

- ``OracleProxy``, an ``Objective`` that forwards every oracle to the real
  one, counts calls by kind (and, when asked, distinct (kind, point) pairs)
  and records a span per call when it has a tracer;
- wrappers around the names the ``solver`` and ``cli`` modules look up at
  call time (``evaluate``, the x-strategies, ``stationary_y``, the
  certificate fold, trace I/O, the numerics checks);
- a counter on ``bcdcert.problem.as_vector``.

A wrapped name the program no longer has is reported as absent, and every
metric built on it reads zero.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from array import array

import numpy as np

from bcdcert.problem import Objective

ORACLE_KINDS = ("value", "grad_x", "grad_y", "exact_min_x", "exact_min_y", "lipschitz_x")

X_STRATEGIES = ("fixed_step_gradient_x", "exact_min_x", "backtracking_gradient_x")

# (module, attribute, span name). Span names are "<layer>.<function>".
WRAPPED = [
    ("bcdcert.solver", "evaluate", "problem.evaluate"),
    ("bcdcert.solver", "fixed_step_gradient_x", "strategies.fixed_step_gradient_x"),
    ("bcdcert.solver", "exact_min_x", "strategies.exact_min_x"),
    ("bcdcert.solver", "backtracking_gradient_x", "strategies.backtracking_gradient_x"),
    ("bcdcert.solver", "stationary_y", "strategies.stationary_y"),
    ("bcdcert.solver", "check_step", "certificate.check_step"),
    ("bcdcert.solver", "accumulate", "certificate.accumulate"),
    ("bcdcert.problems", "spectral_norm", "numerics.spectral_norm"),
    ("bcdcert.cli", "cmd_run", "cli.run"),
    ("bcdcert.cli", "cmd_report", "cli.report"),
    ("bcdcert.cli", "cmd_check", "cli.check"),
    ("bcdcert.cli", "solve", "solver.solve"),
    ("bcdcert.cli", "write_trace", "traceio.write_trace"),
    ("bcdcert.cli", "write_json", "traceio.write_json"),
    ("bcdcert.cli", "read_trace", "traceio.read_trace"),
    ("bcdcert.cli", "verify_trace", "traceio.verify_trace"),
    ("bcdcert.cli", "fd_check_gradients", "numerics.fd_check_gradients"),
    ("bcdcert.cli", "probe_lipschitz_x", "numerics.probe_lipschitz_x"),
]


class Tracer:
    """Spans (name, start, end, parent) in flat arrays; index order is open order."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.last = array("i")
        self._stack = [-1]
        self.counters: dict[str, int] = {}

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self.last.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.last[i] = len(self.start)
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self.open(self.intern(name))
        try:
            yield i
        finally:
            self.close(i)

    def __len__(self):
        return len(self.start)

    def wrap(self, name: str, fn):
        nid = self.intern(name)

        def traced(*args, **kwargs):
            i = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)

        return traced

    def count(self, name: str, fn):
        self.counters.setdefault(name, 0)

        def counted(*args, **kwargs):
            self.counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    def arrays(self):
        return (np.frombuffer(self.name, dtype=np.int32), np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start), np.frombuffer(self.end))

    def save(self, path: str, meta: dict) -> None:
        name, parent, start, end = self.arrays()
        np.savez(path, name=name, parent=parent, start=start, end=end,
                 names=np.array(self.names), meta=np.array(repr(meta)))


class OracleProxy(Objective):
    """Forwards every oracle exactly (``None`` returns and exceptions too), adding no calls."""

    def __init__(self, inner: Objective, tracer: Tracer | None = None, distinct: bool = False):
        self.inner = inner
        self.n_x = inner.n_x
        self.n_y = inner.n_y
        self.counts = dict.fromkeys(ORACLE_KINDS + ("lower_bound",), 0)
        self.seen = set() if distinct else None
        self.tracer = tracer
        self._ids = {k: tracer.intern("problems." + k) for k in ORACLE_KINDS} if tracer is not None else None

    def _call(self, kind, fn, arg, key):
        self.counts[kind] += 1
        if self.seen is not None:
            self.seen.add(hash((kind,) + tuple(np.asarray(a).tobytes() for a in key)))
        if self.tracer is None:
            return fn(arg)
        i = self.tracer.open(self._ids[kind])
        try:
            return fn(arg)
        finally:
            self.tracer.close(i)

    def value(self, p):
        return self._call("value", self.inner.value, p, (p.x, p.y))

    def grad_x(self, p):
        return self._call("grad_x", self.inner.grad_x, p, (p.x, p.y))

    def grad_y(self, p):
        return self._call("grad_y", self.inner.grad_y, p, (p.x, p.y))

    def exact_min_x(self, y):
        return self._call("exact_min_x", self.inner.exact_min_x, y, (y,))

    def exact_min_y(self, x):
        return self._call("exact_min_y", self.inner.exact_min_y, x, (x,))

    def lipschitz_x(self, y):
        return self._call("lipschitz_x", self.inner.lipschitz_x, y, (y,))

    def lower_bound(self):
        self.counts["lower_bound"] += 1
        return self.inner.lower_bound()

    def check_point(self, p):
        return self.inner.check_point(p)

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def distinct(self) -> int:
        return len(self.seen) if self.seen is not None else 0


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install every wrapper; objectives the CLI builds get a traced proxy.

    Yields the list of wrapped names the program does not have.
    """
    saved = []
    absent = []

    def patch(module, attr, new):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    try:
        for mod_name, attr, span in WRAPPED:
            module = importlib.import_module(mod_name)
            fn = getattr(module, attr, None)
            if fn is None:
                absent.append(f"{mod_name}.{attr}")
                continue
            patch(module, attr, tracer.wrap(span, fn))
        problem = importlib.import_module("bcdcert.problem")
        if hasattr(problem, "as_vector"):
            patch(problem, "as_vector", tracer.count("problem.as_vector", problem.as_vector))
        else:
            absent.append("bcdcert.problem.as_vector")
        cli = importlib.import_module("bcdcert.cli")
        make = getattr(cli, "make_problem", None)
        if make is None:
            absent.append("bcdcert.cli.make_problem")
        else:
            def make_traced(spec):
                return OracleProxy(make(spec), tracer)

            patch(cli, "make_problem", make_traced)
        yield absent
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


class SpanTable:
    """Per-name aggregates over a contiguous range of spans."""

    def __init__(self, tracer: Tracer):
        name, parent, start, end = tracer.arrays()
        self.last = np.frombuffer(tracer.last, dtype=np.int32)
        self.names = tracer.names
        self.name = name
        self.parent = parent
        self.dur = end - start
        child = np.zeros(len(name))
        has = parent >= 0
        np.add.at(child, parent[has], self.dur[has])
        self.self_time = self.dur - child

    def _mask(self, span_names, lo=0, hi=None):
        ids = [self.names.index(n) for n in span_names if n in self.names]
        mask = np.isin(self.name, ids)
        mask[:lo] = False
        if hi is not None:
            mask[hi:] = False
        return mask

    def count(self, span_names, lo=0, hi=None) -> int:
        return int(np.count_nonzero(self._mask(span_names, lo, hi)))

    def total(self, span_names, lo=0, hi=None) -> float:
        return float(np.sum(self.dur[self._mask(span_names, lo, hi)]))

    def self_total(self, span_names, lo=0, hi=None) -> float:
        return float(np.sum(self.self_time[self._mask(span_names, lo, hi)]))

    def children_of(self, parent_names, child_names, lo=0, hi=None) -> int:
        """Spans named in child_names whose direct parent is named in parent_names."""
        child = self._mask(child_names, lo, hi)
        pmask = self._mask(parent_names)
        idx = np.nonzero(child)[0]
        par = self.parent[idx]
        return int(np.count_nonzero(pmask[par[par >= 0]]))

    def within(self, outer_name, lo=0, hi=None):
        """Index ranges [i, j) of every span named outer_name; a subtree is contiguous."""
        return [(int(i), int(self.last[i])) for i in np.nonzero(self._mask([outer_name], lo, hi))[0]]
