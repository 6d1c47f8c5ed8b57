"""Span tracing of sharpsphere from outside the package.

Every public function of the traced modules is replaced, in each module
namespace that binds it, by a wrapper that records a span: name, start, end
and parent span. Spans stay in memory until the run ends; the per-layer
metrics are computed from them afterwards. Nothing under src/ is touched, so
an untraced run executes exactly the package's own code.
"""

import importlib
import inspect
import time
from dataclasses import dataclass

import numpy as np

MODULES = ("quadrature", "legendre", "harmonics", "convolution", "forms",
           "maximizer", "verification", "cli")


@dataclass
class Span:
    name: str
    start: float
    parent: int            # index of the enclosing span, -1 for a root
    end: float = 0.0
    size: float = 0.0      # work measure of the call (points, centres, ...)
    aux: float = 0.0       # second measure (table entries, complex matvec)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Single-threaded span recorder; spans nest by call order."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, measure=None):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                if measure is not None:
                    span.size, span.aux = measure(*args, **kwargs)
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)

        traced.__wrapped__ = fn
        return traced


def _coeff_vector(func):
    c = getattr(func, "coeffs", None)
    if c is None:
        src = getattr(func, "sharp_source", None)
        c = getattr(src, "coeffs", None)
    return None if c is None else c.coeffs


def _measure_eval_with_table(func, table, flat, negate=False):
    co = _coeff_vector(func)
    matvec = co is not None and table is not None
    return 1.0, float(matvec and np.iscomplexobj(co))


def _measure_harmonic_values(L, points):
    n = len(np.atleast_2d(points))
    return float(n), float((L + 1) ** 2 * n)


def _measure_h_direct_many(gs, grid, block=1024):
    # the partner grid has the same node count, so the chord matrix is square
    return float(grid.n_nodes) ** 2, 0.0


# Work measure per call, for the functions whose per-layer metrics need one.
MEASURES = {
    "harmonics.harmonic_values": _measure_harmonic_values,
    "convolution.slice_point_table": lambda X, n_c: (float(len(X)), 0.0),
    "convolution.convolve_many":
        lambda f, g, X, n_c: (float(len(np.atleast_2d(X))), 0.0),
    "convolution.eval_with_table": _measure_eval_with_table,
    "forms.h_direct_many": _measure_h_direct_many,
}


def public_functions():
    """(span name, function) for each public module-level function."""
    for modname in MODULES:
        mod = importlib.import_module(f"sharpsphere.{modname}")
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                yield f"{modname}.{name}", obj


class Instrumented:
    """Context manager that installs traced wrappers and restores the originals.

    A function is replaced wherever a traced module (or the package itself)
    binds it by name, so calls through `from .x import f` bindings are traced
    too. The Workspace constructor, as make_workspace looks it up, records a
    maximizer.workspace_build span; watch_workspace wraps one Workspace
    instance's q_value/q_gradient as instance attributes, which shadow the
    class methods for that object only.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo = []
        self._workspaces = []

    def _replace(self, namespaces, span_name, fn, attr):
        wrapper = self.tracer.wrap(span_name, fn, MEASURES.get(span_name))
        for ns in namespaces:
            if getattr(ns, attr, None) is fn:
                setattr(ns, attr, wrapper)
                self._undo.append((ns, attr, fn))

    def __enter__(self):
        namespaces = [importlib.import_module("sharpsphere")] + [
            importlib.import_module(f"sharpsphere.{m}") for m in MODULES]
        for span_name, fn in list(public_functions()):
            self._replace(namespaces, span_name, fn, fn.__name__)
        maximizer = importlib.import_module("sharpsphere.maximizer")
        self._replace([maximizer], "maximizer.workspace_build", maximizer.Workspace,
                      "Workspace")
        return self

    def watch_workspace(self, ws):
        ws.q_value = self.tracer.wrap("maximizer.q_value", ws.q_value)
        ws.q_gradient = self.tracer.wrap("maximizer.q_gradient", ws.q_gradient)
        self._workspaces.append(ws)

    def __exit__(self, *exc):
        for ns, attr, fn in reversed(self._undo):
            setattr(ns, attr, fn)
        self._undo.clear()
        for ws in self._workspaces:
            del ws.q_value
            del ws.q_gradient
        self._workspaces.clear()
        return False


def _children(spans):
    kids = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            kids[s.parent].append(i)
    return kids


def _count_descendants(i, kids, spans, name) -> int:
    n, todo = 0, list(kids[i])
    while todo:
        j = todo.pop()
        n += spans[j].name == name
        todo.extend(kids[j])
    return n


def self_seconds(spans) -> dict:
    """Self time per module: span duration minus the time its children cover."""
    kids = _children(spans)
    out = {m: 0.0 for m in MODULES}
    for i, s in enumerate(spans):
        module = s.name.split(".", 1)[0]
        if module in out:
            out[module] += s.duration - sum(spans[j].duration for j in kids[i])
    return out


def layer_metrics(spans, table_bytes: float) -> dict:
    """Per-layer metrics as {name: (value, unit)}.

    table_bytes is the Workspace basis size; the q_value and q_gradient
    kernels stream it 2x and 4x per call (two and four (L+1)^2-by-N matvecs),
    so their bytes and operations per byte are computed from it, not measured.
    """
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)
    kids = _children(spans)

    def durations(name):
        return np.array([spans[i].duration for i in by_name.get(name, [])])

    def calls(name):
        return float(len(by_name.get(name, [])))

    def seconds(name):
        return float(durations(name).sum())

    def size(name):
        return float(sum(spans[i].size for i in by_name.get(name, [])))

    def aux(name):
        return float(sum(spans[i].aux for i in by_name.get(name, [])))

    m = {}
    for kernel, streams in (("q_value", 2), ("q_gradient", 4)):
        name = f"maximizer.{kernel}"
        d = durations(name)
        bytes_per_call = streams * table_bytes
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.s"] = (seconds(name), "s")
        m[f"{name}.p50_ms"] = (float(np.percentile(d, 50)) * 1e3 if d.size else 0.0, "ms")
        m[f"{name}.p99_ms"] = (float(np.percentile(d, 99)) * 1e3 if d.size else 0.0, "ms")
        m[f"{name}.mb_per_call_computed"] = (bytes_per_call / 1e6, "MB")
        # each matvec does 2 flops per 8-byte table entry
        m[f"{name}.flop_per_byte_computed"] = (0.25 if table_bytes else 0.0, "flop/B")
        m[f"{name}.gbs_computed"] = (
            bytes_per_call * d.size / d.sum() / 1e9 if d.size else 0.0, "GB/s")

    searches = by_name.get("maximizer.search", [])
    trials = sum(_count_descendants(i, kids, spans, "maximizer.q_value") for i in searches)
    grads = sum(_count_descendants(i, kids, spans, "maximizer.q_gradient") for i in searches)
    accepted = grads - len(searches)     # one gradient per accepted step, plus the start
    m["maximizer.search.starts"] = (float(len(searches)), "count")
    m["maximizer.search.iterations"] = (float(accepted), "count")
    m["maximizer.search.backtracks"] = (float(trials - accepted), "count")
    m["maximizer.search.accept_ratio"] = (accepted / trials if trials else 0.0, "ratio")
    m["maximizer.search.q_value_per_start"] = (
        trials / len(searches) if searches else 0.0, "count")
    m["maximizer.search.q_gradient_per_start"] = (
        grads / len(searches) if searches else 0.0, "count")
    m["maximizer.workspace_build.s"] = (seconds("maximizer.workspace_build"), "s")
    m["maximizer.workspace.table_mb"] = (table_bytes / 1e6, "MB")

    hv = "harmonics.harmonic_values"
    m[f"{hv}.calls"] = (calls(hv), "count")
    m[f"{hv}.s"] = (seconds(hv), "s")
    m[f"{hv}.points"] = (size(hv), "count")
    m[f"{hv}.mb_computed"] = (aux(hv) * 8 / 1e6, "MB")

    for name, extra in (("convolution.slice_point_table", "centres"),
                        ("convolution.convolve_many", "centres"),
                        ("forms.h_direct_many", "chord_entries")):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.s"] = (seconds(name), "s")
        m[f"{name}.{extra}"] = (size(name), "count")

    ev = "convolution.eval_with_table"
    n_ev = calls(ev)
    n_complex = aux(ev)
    m[f"{ev}.calls"] = (n_ev, "count")
    m[f"{ev}.s"] = (seconds(ev), "s")
    m[f"{ev}.complex_share"] = (n_complex / n_ev if n_ev else 0.0, "ratio")

    forms_calls = by_name.get("forms.quadrilinear_q", []) + by_name.get("forms.bilinear_b", [])
    for name in ("forms.quadrilinear_q", "forms.bilinear_b"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.s"] = (seconds(name), "s")
    reused = sum(_count_descendants(i, kids, spans, hv) == 0 for i in forms_calls)
    m["forms.table_reuse_ratio"] = (reused / len(forms_calls) if forms_calls else 0.0, "ratio")

    m["legendre.chord_spectrum_quadrature.s"] = (seconds("legendre.chord_spectrum_quadrature"), "s")
    for module, s in self_seconds(spans).items():
        m[f"{module}.self_s"] = (s, "s")
    m["trace.spans"] = (float(len(spans)), "count")
    return m

