"""Span and call-count shim for the traced benchmark run.

The shim times layers from outside: it replaces a public function with a
timing wrapper in every landscape_lab module that binds it, so each call
records a span (name, start, end, parent) no matter which module makes the
call. Spans go on a per-thread stack; a span opened on a thread whose stack
is empty (a census worker thread) takes the innermost open span of the
tracing thread as its parent. A name that no longer exists is skipped, so
the program can be refactored without editing the benchmark.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

# Functions traced, named "<layer module>.<name as that module binds it>";
# each gets a per-unit self_ms metric.
TRACED = (
    "qdyn.propagate",
    "qdyn.expm_step",
    "qdyn.expm_with_directional_derivatives",
    "landscape.objective",
    "landscape.gradient",
    "landscape.psi_tangent_map",
    "landscape.local_surjectivity_rank",
    "landscape.boundary_cone_surjectivity",
    "landscape.lsq_linear",
    "traps.gradient_ascent",
    "traps.classify_point",
    "traps.finite_difference_hessian",
    "traps.basin_census",
    "traps.critical_value_census_1d",
    "counterexamples.corner_escape_analysis",
    "counterexamples.slice_census_2d",
    "counterexamples.analytic2d_trap_free_scan",
    "cli.main",
)

# Per-unit call counts are reported for these spans.
CALLS = ("qdyn.propagate", "landscape.objective", "landscape.gradient")


def per_layer_metrics() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    out = [(f"{n}.calls", "count") for n in CALLS]
    out += [(f"{n}.self_ms", "ms") for n in TRACED]
    out += [
        ("traps.ascent.evals_per_iter", "evals/iter"),
        ("traps.classify_point.gradients_per_call", "grads/call"),
        ("landscape.lsq_linear.calls_per_cone_test", "calls/test"),
        ("trace.overhead_pct", "%"),
    ]
    return out


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent


class Tracer:
    """Installs timing wrappers into a package's modules; collects spans and their per-unit totals."""

    def __init__(self, package: str, names=TRACED):
        self.package = package
        self.names = names
        self.spans = []
        self.totals = LayerTotals()
        self.skipped = []
        self._stacks = {}
        self._home = None
        self._patches = []

    def _modules(self) -> list:
        prefix = self.package + "."
        return [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == self.package or key.startswith(prefix))
        ]

    def install(self) -> None:
        self._home = threading.get_ident()
        modules = self._modules()
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        self.skipped = []
        for name in self.names:
            layer, attr = name.split(".", 1)
            original = getattr(by_name.get(layer), attr, None)
            if not callable(original):
                self.skipped.append(name)
                continue
            wrapper = self._wrap(name, original)
            for m in modules:
                if m.__dict__.get(attr) is original:
                    self._patches.append((m, attr, original))
                    setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            m, attr, original = self._patches.pop()
            setattr(m, attr, original)

    def _wrap(self, name, fn):
        stacks = self._stacks
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = stacks.get(tid)
            if stack is None:
                stack = stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                home = stacks.get(self._home)
                parent = home[-1] if home and tid != self._home else None
            span = Span(name, clock(), parent)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                spans.append(span)

        return traced

    def take(self) -> list:
        """Hand over the spans recorded so far and start a new list."""
        out = list(self.spans)
        self.spans.clear()
        return out


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def _has_ancestor(span, name) -> bool:
    p = span.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False


class LayerTotals:
    """Accumulates span statistics over traced units."""

    def __init__(self):
        self.units = 0
        self.calls = {}
        self.self_s = {}
        self.ascent_evals = 0
        self.ascent_iters = 0
        self.classify_gradients = 0

    def add_unit(self, spans) -> None:
        self.units += 1
        children = {}
        for s in spans:
            if s.parent is not None:
                children.setdefault(id(s.parent), []).append((s.start, s.end))
        for s in spans:
            own = (s.end - s.start) - _covered(children.get(id(s), ()))
            self.self_s[s.name] = self.self_s.get(s.name, 0.0) + own
            self.calls[s.name] = self.calls.get(s.name, 0) + 1
            parent = s.parent.name if s.parent is not None else None
            if s.name == "landscape.objective" and parent == "traps.gradient_ascent":
                self.ascent_evals += 1
            elif s.name == "landscape.gradient":
                if parent == "traps.gradient_ascent":
                    self.ascent_iters += 1
                if _has_ancestor(s, "traps.classify_point"):
                    self.classify_gradients += 1
        # Every ascent takes one gradient at its start, then one per accepted step.
        self.ascent_iters -= sum(
            1 for s in spans if s.name == "traps.gradient_ascent"
        )

    def metrics(self, overhead_pct: float) -> dict:
        n = max(self.units, 1)

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        for name in CALLS:
            out[f"{name}.calls"] = self.calls.get(name, 0) / n
        for name in TRACED:
            out[f"{name}.self_ms"] = 1e3 * self.self_s.get(name, 0.0) / n
        out["traps.ascent.evals_per_iter"] = ratio(self.ascent_evals, self.ascent_iters)
        out["traps.classify_point.gradients_per_call"] = ratio(
            self.classify_gradients, self.calls.get("traps.classify_point", 0)
        )
        out["landscape.lsq_linear.calls_per_cone_test"] = ratio(
            self.calls.get("landscape.lsq_linear", 0),
            self.calls.get("landscape.boundary_cone_surjectivity", 0),
        )
        out["trace.overhead_pct"] = overhead_pct
        return out
