"""Span tracing for the traced benchmark run, installed from outside the program.

Timing wrappers are set by attribute name on cimfem's modules and classes, at
the places where one layer calls into another: ``cimfem.cim.thomas_solve`` is
the name through which ``cim`` calls the ``linalg`` solver, so wrapping it
there times every such call.  A span records its name, start, end, parent
span and request; spans are kept in memory and analysed after the run.  A
target that no longer exists is reported, and every metric that depends only
on missing targets is reported as not measured.

Layers are cimfem's modules: cli, bench, cim, contour, symbols, fem, linalg,
mlf.  A span's layer is the prefix of its name.  The benchmark's own root span
of each request is called ``request``; its self time is the request time that
no layer span covers.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import time
from array import array
from typing import Callable

import numpy as np

ROOT = "request"

# (module, attribute, span name).  The attribute is looked up on the module
# through which the caller reaches the callee, since cimfem's modules import
# each other's functions by name.
SPAN_TARGETS = (
    ("cimfem.cli", "run", "bench.run"),
    ("cimfem.bench", "discretize", "cim.discretize"),
    ("cimfem.bench", "problem_parameters", "cim.problem_parameters"),
    ("cimfem.bench", "solve_nodes", "cim.solve_nodes"),
    ("cimfem.bench", "solve_nodes_accelerated", "cim.solve_nodes_accelerated"),
    ("cimfem.bench", "evaluate", "cim.evaluate"),
    ("cimfem.bench", "quadrature_nodes", "contour.quadrature_nodes"),
    ("cimfem.bench", "assemble", "fem.assemble"),
    ("cimfem.bench", "l2_error", "fem.l2_error"),
    ("cimfem.bench", "mass_norm", "fem.mass_norm"),
    ("cimfem.bench", "prolong_1d", "fem.prolong"),
    ("cimfem.bench", "prolong_2d", "fem.prolong"),
    ("cimfem.cim", "standard_parameters", "contour.standard_parameters"),
    ("cimfem.cim", "quadrature_nodes", "contour.quadrature_nodes"),
    ("cimfem.cim", "contour_point", "contour.contour_point"),
    ("cimfem.cim", "barycentric_interpolate", "cim.barycentric_interpolate"),
    ("cimfem.cim", "assemble", "fem.assemble"),
    ("cimfem.cim", "load_vector", "fem.load_vector"),
    ("cimfem.cim", "thomas_solve", "linalg.thomas_solve"),
    ("cimfem.cim", "sparse_solve", "linalg.sparse_solve"),
    ("cimfem.linalg", "solve_banded", "linalg.solve_banded"),
    ("cimfem.linalg", "splu", "linalg.splu"),
    ("cimfem.contour", "optimize_rho", "contour.optimize_rho"),
    ("cimfem.mlf", "optimize_rho", "contour.optimize_rho"),
    ("cimfem.mlf", "quadrature_nodes", "contour.quadrature_nodes"),
    ("cimfem.mlf", "complex_pow", "symbols.complex_pow"),
    ("cimfem.mlf", "ml_biv_series", "mlf.ml_biv_series"),
    ("cimfem.mlf", "ml_biv_contour", "mlf.ml_biv_contour"),
    ("cimfem.symbols", "FractionalSymbol.eta", "symbols.eta"),
    ("cimfem.symbols", "FractionalSymbol.history_weight", "symbols.history_weight"),
    ("cimfem.symbols", "SourceTransform.evaluate", "symbols.source_evaluate"),
    ("cimfem.symbols", "SourceTerm.transform", "symbols.source_transform"),
)
# Calls that are counted without a span, so that they do not split the self
# time of the code around them.
COUNT_TARGETS = (("cimfem.cim", "_node_solve", "cim.node_systems"),)

# Per-layer metrics computed from the spans of one request.
#   time: summed duration of the named spans      count: number of them
#   failed: number of them that raised            self: their summed self time
#   layer_self: self time of every span of a layer
#   layer_calls: spans of a layer whose parent is in another layer
SPAN_METRICS = {
    "linalg.tridiag_s": ("time", ("linalg.thomas_solve",)),
    "linalg.tridiag_solves": ("count", ("linalg.thomas_solve",)),
    "linalg.banded_fallbacks": ("count", ("linalg.solve_banded",)),
    "linalg.sparse_s": ("time", ("linalg.sparse_solve",)),
    "linalg.sparse_solves": ("count", ("linalg.sparse_solve",)),
    "linalg.splu_s": ("time", ("linalg.splu",)),
    "fem.assemble_s": ("time", ("fem.assemble",)),
    "fem.assemble_calls": ("count", ("fem.assemble",)),
    "fem.load_s": ("time", ("fem.load_vector",)),
    "fem.load_calls": ("count", ("fem.load_vector",)),
    "fem.norm_s": ("time", ("fem.mass_norm", "fem.l2_error")),
    "cim.select_s": ("time", ("cim.problem_parameters",)),
    "cim.solve_nodes_self_s": ("self", ("cim.solve_nodes", "cim.solve_nodes_accelerated")),
    "cim.evaluate_s": ("time", ("cim.evaluate",)),
    "cim.evaluate_calls": ("count", ("cim.evaluate",)),
    "cim.interp_s": ("time", ("cim.barycentric_interpolate",)),
    "bench.discretize_calls": ("count", ("cim.discretize",)),
    "contour.optimize_s": ("time", ("contour.optimize_rho",)),
    "contour.optimize_calls": ("count", ("contour.optimize_rho",)),
    "contour.quadrature_s": ("time", ("contour.quadrature_nodes",)),
    "mlf.series_s": ("time", ("mlf.ml_biv_series",)),
    "mlf.series_calls": ("count", ("mlf.ml_biv_series",)),
    "mlf.series_failed": ("failed", ("mlf.ml_biv_series",)),
    "mlf.contour_s": ("time", ("mlf.ml_biv_contour",)),
    "mlf.contour_calls": ("count", ("mlf.ml_biv_contour",)),
    "symbols.eval_s": ("layer_self", "symbols"),
    "symbols.eval_calls": ("layer_calls", "symbols"),
    "cli.self_s": ("layer_self", "cli"),
    "bench.self_s": ("layer_self", "bench"),
    "cim.self_s": ("layer_self", "cim"),
    "contour.self_s": ("layer_self", "contour"),
    "fem.self_s": ("layer_self", "fem"),
    "linalg.self_s": ("layer_self", "linalg"),
    "mlf.self_s": ("layer_self", "mlf"),
}

# Per-layer metrics derived from counts, the request spans and the untraced run.
DERIVED_UNITS = {
    "cim.node_systems": "count",
    "bench.node_systems_ratio": "ratio",
    "trace.request_s": "s",
    "trace.unattributed_frac": "fraction",
    "trace.overhead_frac": "fraction",
}
PER_LAYER = (*SPAN_METRICS, *DERIVED_UNITS)


def metric_unit(name: str) -> str:
    if name in DERIVED_UNITS:
        return DERIVED_UNITS[name]
    return "count" if SPAN_METRICS[name][0] in ("count", "failed", "layer_calls") else "s"


def _resolve(module: str, attribute: str):
    """(owner, attribute name, current value); raises LookupError if missing."""
    try:
        owner = importlib.import_module(module)
    except ImportError as exc:
        raise LookupError(f"{module} cannot be imported: {exc}") from None
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(f"{module}.{attribute} not found")
    value = getattr(owner, leaf, None)
    if not callable(value):
        raise LookupError(f"{module}.{attribute} not found")
    return owner, leaf, value


class Tracer:
    """Spans and counts of traced requests, held in compact arrays."""

    def __init__(self, span_targets=SPAN_TARGETS, count_targets=COUNT_TARGETS) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.counts: dict[tuple[int, str], int] = {}
        self._stack = [-1]
        self._request = -1
        self._installed: list[tuple[object, str, object]] = []
        self._wrappers: list[tuple[object, str, object]] = []
        self.present: set[str] = set()
        self.missing: dict[str, str] = {}
        for module, attribute, name in span_targets:
            self._prepare(module, attribute, name, self._timed)
        for module, attribute, name in count_targets:
            self._prepare(module, attribute, name, self._counted)

    def _prepare(self, module: str, attribute: str, name: str, make: Callable) -> None:
        try:
            owner, leaf, fn = _resolve(module, attribute)
        except LookupError as exc:
            self.missing[f"{module}.{attribute}"] = str(exc)
            return
        self.present.add(name)
        self._wrappers.append((owner, leaf, make(fn, name)))

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.request.append(self._request)
        self.raised.append(0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def _timed(self, fn: Callable, name: str) -> Callable:
        nid = self._intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.raised[i] = 1
                raise
            finally:
                self._close(i)

        return traced

    def _counted(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            key = (self._request, name)
            self.counts[key] = self.counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a call into cimfem."""
        i = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(i)

    @contextlib.contextmanager
    def traced_request(self, request_id: int):
        """Install the wrappers for one request and remove them afterwards."""
        self._request = request_id
        for owner, leaf, wrapper in self._wrappers:
            self._installed.append((owner, leaf, getattr(owner, leaf)))
            setattr(owner, leaf, wrapper)
        try:
            with self.span(ROOT):
                yield
        finally:
            while self._installed:
                owner, leaf, original = self._installed.pop()
                setattr(owner, leaf, original)
            self._request = -1

    def not_measured(self, metric: str) -> str | None:
        """Why a metric cannot be measured, or None if it can."""
        kind, arg = SPAN_METRICS.get(metric, (None, ()))
        if metric in ("cim.node_systems", "bench.node_systems_ratio"):
            arg = ("cim.node_systems",)
        elif kind is None or kind.startswith("layer_"):
            return None
        if any(name in self.present for name in arg):
            return None
        missing = ", ".join(sorted(self.missing)) or "none"
        return f"no wrapped target records {', '.join(arg)} (missing targets: {missing})"

    def analyse(self) -> dict[int, dict[str, float]]:
        """Per-request values of SPAN_METRICS, node-system counts and coverage."""
        n = len(self.name_id)
        if n == 0:
            return {}
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        request = np.frombuffer(self.request, dtype=np.int32)
        raised = np.frombuffer(self.raised, dtype=np.int8)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - covered
        layer_of = np.array([nm.split(".")[0] for nm in self.names])
        span_layer = layer_of[name_id]
        parent_layer = np.where(has_parent, span_layer[np.maximum(parent, 0)], "")
        entering = span_layer != parent_layer

        out: dict[int, dict[str, float]] = {}
        for r in np.unique(request):
            sel = request == r
            names = name_id[sel]
            d, s, f, e = dur[sel], self_time[sel], raised[sel], entering[sel]
            lay = span_layer[sel]
            values: dict[str, float] = {}
            for metric, (kind, arg) in SPAN_METRICS.items():
                if kind.startswith("layer_"):
                    mask = lay == arg
                    if kind == "layer_self":
                        values[metric] = float(np.sum(s[mask]))
                    else:
                        values[metric] = float(np.count_nonzero(mask & e))
                    continue
                ids = [self._ids[a] for a in arg if a in self._ids]
                mask = np.isin(names, ids)
                if kind == "time":
                    values[metric] = float(np.sum(d[mask]))
                elif kind == "self":
                    values[metric] = float(np.sum(s[mask]))
                elif kind == "failed":
                    values[metric] = float(np.count_nonzero(f[mask]))
                else:
                    values[metric] = float(np.count_nonzero(mask))
            root = names == self._ids[ROOT]
            values["trace.request_s"] = float(np.sum(d[root]))
            values["trace.unattributed_frac"] = float(np.sum(s[root]) / np.sum(d[root]))
            values["cim.node_systems"] = float(self.counts.get((int(r), "cim.node_systems"), 0))
            out[int(r)] = values
        return out

    def write_spans(self, path) -> None:
        """All spans as gzipped CSV: id, name, parent id, request, start, end, raised."""
        with gzip.open(path, "wt") as fh:
            fh.write("id,name,parent,request,start,end,raised\n")
            for i in range(len(self.name_id)):
                fh.write(
                    f"{i},{self.names[self.name_id[i]]},{self.parent[i]},{self.request[i]},"
                    f"{self.start[i]:.9f},{self.end[i]:.9f},{self.raised[i]}\n"
                )
