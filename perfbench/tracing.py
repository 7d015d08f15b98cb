"""Spans around toricflow's layers, recorded from outside the package.

`Tracer.installed()` replaces the public functions of each layer module, and
the public methods of the classes it defines, by recording wrappers.  A
function is replaced in every toricflow namespace that holds it, so calls
through `from .flow import subspace_angle` (looked up as
`cli.subspace_angle`) are caught as well as calls through `flow.`.  The
integrand handed to `integrate_many` and scipy's `linprog` as seen by
`polytopes` are wrapped too.  Leaving the context restores every original.

A span is (id, name, layer, start, end, parent, op, info).  Spans are kept in
memory; `layer_metrics` turns one pass's spans into the per-layer metrics.
A span's self time is its duration minus the union of its children's
intervals; a layer's time is the union of its outermost spans.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import NamedTuple, Optional

LAYERS = (
    "polytopes", "quadrature", "potentials", "flow",
    "sections", "convergence", "config", "cli",
)

# Geometric predicates called once per point inside sampling and clipping
# loops: a span each would cost more than the work it times.
SKIP_METHODS = {
    ("polytopes", "DelzantPolytope", "facet_values"),
    ("polytopes", "DelzantPolytope", "contains"),
    ("polytopes", "DelzantPolytope", "is_interior"),
    ("polytopes", "DelzantPolytope", "bounding_box"),
}

GRID = "polytopes.DelzantPolytope.grid_cells"
VALIDATE = ("polytopes.DelzantPolytope.validate", "polytopes.validate_delzant")
LINPROG = "polytopes.linprog"
INTEGRATE_MANY = "quadrature.integrate_many"
INTEGRAND = "quadrature.integrand"
SUBSPACE_ANGLE = "flow.subspace_angle"
NORM = "sections.section_norm_sq"
CHECKS = tuple(
    "sections." + name
    for name in (
        "route_equality_residual", "gluing_check_cp1",
        "lift_section_consistency", "frame_holomorphicity_residual",
    )
)
EXPERIMENT = "convergence.convergence_experiment"
MAIN = "cli.main"
NAMED = (GRID, *VALIDATE, LINPROG, INTEGRATE_MANY, SUBSPACE_ANGLE, NORM, *CHECKS, EXPERIMENT, MAIN)


class Span(NamedTuple):
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]
    info: Optional[dict]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op: Optional[int] = None
        self.wrapped: set[str] = set()
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = self._stack()
        self._grid_seen: dict = {}
        self._patches: list = []

    # -- span recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, fn, name, layer, args, kwargs, info=None):
        stack = self._stack()
        # a worker thread's first span hangs under the main thread's open span
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        sid = next(self._ids)
        stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, layer, start, end, parent, self.op, info))

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self._grid_seen.clear()

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans

    def _wrapper(self, fn, name, layer):
        tracer = self

        def traced(*args, **kwargs):
            return tracer._record(fn, name, layer, args, kwargs)

        return traced

    def _grid_wrapper(self, fn):
        # hit = the same (polytope, resolution, margin, clip_depth) seen
        # before in this operation; the polytope is kept alive with its key
        signature = inspect.signature(fn)
        tracer = self

        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            key = (id(a["self"]), a["resolution"], float(a["margin"]), a["clip_depth"])
            info = {"hit": key in tracer._grid_seen}
            tracer._grid_seen[key] = a["self"]
            cells = tracer._record(fn, GRID, "polytopes", args, kwargs, info)
            info["cells"] = 0 if info["hit"] else len(cells)
            return cells

        return traced

    def _integrate_many_wrapper(self, fn):
        signature = inspect.signature(fn)
        tracer = self

        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            matrix_f = bound.arguments["matrix_f"]

            def integrand(pts):
                info = {"points": len(pts)}
                return tracer._record(matrix_f, INTEGRAND, "integrand", (pts,), {}, info)

            bound.arguments["matrix_f"] = integrand
            return tracer._record(fn, INTEGRATE_MANY, "quadrature", bound.args, bound.kwargs)

        return traced

    # -- installation ------------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    @contextmanager
    def installed(self):
        modules = {
            name: importlib.import_module(f"toricflow.{name}") for name in LAYERS
        }
        namespaces = [importlib.import_module("toricflow"), *modules.values()]
        try:
            for layer, mod in modules.items():
                for fname, fn in vars(mod).copy().items():
                    if fname.startswith("_") or not inspect.isfunction(fn):
                        continue
                    if fn.__module__ != mod.__name__:
                        continue
                    name = f"{layer}.{fname}"
                    if name == INTEGRATE_MANY:
                        new = self._integrate_many_wrapper(fn)
                    else:
                        new = self._wrapper(fn, name, layer)
                    for ns in namespaces:
                        for attr, value in vars(ns).copy().items():
                            if value is fn:
                                self._patch(ns, attr, new)
                    self.wrapped.add(name)
                for cname, cls in vars(mod).copy().items():
                    if not inspect.isclass(cls) or cls.__module__ != mod.__name__:
                        continue
                    for mname, fn in vars(cls).copy().items():
                        if mname.startswith("_") or not inspect.isfunction(fn):
                            continue
                        if (layer, cname, mname) in SKIP_METHODS:
                            continue
                        name = f"{layer}.{cname}.{mname}"
                        if name == GRID:
                            new = self._grid_wrapper(fn)
                        else:
                            new = self._wrapper(fn, name, layer)
                        self._patch(cls, mname, new)
                        self.wrapped.add(name)
            polytopes = modules["polytopes"]
            self._patch(polytopes, "linprog", self._wrapper(polytopes.linprog, LINPROG, "polytopes"))
            self.wrapped.add(LINPROG)
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    def missing(self) -> list[str]:
        """Named span targets that no longer exist in the package."""
        return [name for name in NAMED if name not in self.wrapped]


# -- metrics --------------------------------------------------------------------


def _union(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = children.get(s.id, ())
        covered = _union((max(k.start, s.start), min(k.end, s.end)) for k in kids if k.end > s.start)
        out[s.id] = (s.end - s.start) - covered
    return out


def _outer_time(spans: list[Span], by_id: dict[int, Span], match) -> float:
    """Union of the spans that match and have no matching ancestor."""
    intervals = []
    for s in spans:
        if not match(s):
            continue
        parent = by_id.get(s.parent)
        while parent is not None and not match(parent):
            parent = by_id.get(parent.parent)
        if parent is None:
            intervals.append((s.start, s.end))
    return _union(intervals)


def layer_metrics(spans: list[Span], artifact_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (times in s, counts as floats)."""
    by_id = {s.id: s for s in spans}
    own = self_times(spans)

    def named(*names):
        return lambda s: s.name in names

    def count(*names):
        return float(sum(s.name in names for s in spans))

    def outer(*names):
        return _outer_time(spans, by_id, named(*names))

    def self_sum(match):
        return sum(own[s.id] for s in spans if match(s))

    grid = [s for s in spans if s.name == GRID]
    integrand = [s for s in spans if s.name == INTEGRAND]
    points = float(sum(s.info["points"] for s in integrand))
    integrand_s = outer(INTEGRAND)
    main_s = sum(s.end - s.start for s in spans if s.name == MAIN)
    cli_self = self_sum(lambda s: s.layer == "cli")

    m = {
        "polytopes.grid_cells.calls": float(len(grid)),
        "polytopes.grid_cells.s": outer(GRID),
        "polytopes.grid_cells.cells": float(sum(s.info["cells"] for s in grid)),
        "polytopes.grid_cells.cache_hit_ratio": (
            sum(s.info["hit"] for s in grid) / len(grid) if grid else 0.0
        ),
        "polytopes.validate.s": outer(*VALIDATE),
        "polytopes.lp_solves": count(LINPROG),
        "quadrature.integrate_many.calls": count(INTEGRATE_MANY),
        "quadrature.integrate_many.self_s": self_sum(named(INTEGRATE_MANY)),
        "quadrature.integrand.calls": float(len(integrand)),
        "quadrature.integrand.points": points,
        "quadrature.integrand.s": integrand_s,
        "quadrature.integrand.points_per_s": points / integrand_s if integrand_s > 0 else 0.0,
        "potentials.calls": float(sum(s.layer == "potentials" for s in spans)),
        "potentials.s": _outer_time(spans, by_id, lambda s: s.layer == "potentials"),
        "flow.subspace_angle.calls": count(SUBSPACE_ANGLE),
        "flow.subspace_angle.s": outer(SUBSPACE_ANGLE),
        "flow.s": _outer_time(spans, by_id, lambda s: s.layer == "flow"),
        "sections.section_norm_sq.calls": count(NORM),
        "sections.section_norm_sq.self_s": self_sum(named(NORM)),
        "sections.checks.s": outer(*CHECKS),
        "convergence.convergence_experiment.s": outer(EXPERIMENT),
        "config.calls": float(sum(s.layer == "config" for s in spans)),
        "config.s": _outer_time(spans, by_id, lambda s: s.layer == "config"),
        "cli.self_s": cli_self,
        "cli.artifact_bytes": float(artifact_bytes),
        "trace.coverage": 1.0 - cli_self / main_s if main_s > 0 else 0.0,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_sum(lambda s: s.layer == layer)
    return m


COUNT_METRICS = (
    "polytopes.grid_cells.calls",
    "polytopes.grid_cells.cells",
    "polytopes.grid_cells.cache_hit_ratio",
    "polytopes.lp_solves",
    "quadrature.integrate_many.calls",
    "quadrature.integrand.calls",
    "quadrature.integrand.points",
    "potentials.calls",
    "flow.subspace_angle.calls",
    "sections.section_norm_sq.calls",
    "config.calls",
    "cli.artifact_bytes",
)


def self_time_check() -> list[str]:
    """Self time and layer time on a synthetic nested span tree, against
    values computed by hand; returns the mismatches."""
    spans = [
        Span(0, MAIN, "cli", 0.0, 10.0, None, 0, None),
        Span(1, "flow.a", "flow", 1.0, 4.0, 0, 0, None),
        Span(2, "flow.b", "flow", 3.0, 6.0, 0, 0, None),  # overlaps a (threads)
        Span(3, "potentials.c", "potentials", 2.0, 3.0, 1, 0, None),
        Span(4, "flow.d", "flow", 5.0, 5.5, 2, 0, None),  # nested in its layer
    ]
    expected_self = {0: 5.0, 1: 2.0, 2: 2.5, 3: 1.0, 4: 0.5}
    got = self_times(spans)
    problems = [
        f"self time of span {i}: {got[i]} != {want}"
        for i, want in expected_self.items()
        if abs(got[i] - want) > 1e-12
    ]
    m = layer_metrics(spans, 0)
    for name, want in (("flow.s", 5.0), ("flow.self_s", 5.0), ("cli.self_s", 5.0),
                       ("potentials.s", 1.0), ("trace.coverage", 0.5)):
        if abs(m[name] - want) > 1e-12:
            problems.append(f"{name}: {m[name]} != {want}")
    return problems
