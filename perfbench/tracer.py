"""Span tracer that wraps geoequiv's public functions from outside.

Installing the tracer replaces every binding of each target function in
every loaded ``geoequiv`` module (the defining module, re-exports such as
``geoequiv.equiv.compatibility_residual``, and copies made by
``from .fields import christoffel``).  Call-time imports read the
defining module, so they see the wrapper too.  ``uninstall`` puts every
original back.

Each wrapped call is a span with a name, start, end and parent span.
Spans are aggregated as they close (calls, inclusive and self time, and
parent -> child call counts); the first ``KEEP_SPANS`` spans are also kept
verbatim for the trace file.  A span's self time is its duration minus the
durations of its direct children.

``exprdsl.compile_dual`` returns compiled closures; the wrapper returns
them wrapped as ``exprdsl.eval`` spans.  ``fields._compile_cache`` keeps
compiled closures for the life of the process, so ``install`` also wraps
the closures already cached and ``uninstall`` unwraps every cached
closure; the benchmark installs the tracer before the first scene is
generated or loaded, so set-up compilation is traced too.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, attribute path, span name)
TARGETS = (
    ("geoequiv.cli", "main", "cli.main"),
    ("geoequiv.cli", "load_scene", "cli.load_scene"),
    ("geoequiv.cli", "emit", "cli.emit"),
    ("geoequiv.exprdsl", "compile_dual", "exprdsl.compile_dual"),
    ("geoequiv.fields", "_Backing.value", "fields.value"),
    ("geoequiv.fields", "_Backing.value_and_derivative", "fields.vd"),
    ("geoequiv.fields", "christoffel", "fields.christoffel"),
    ("geoequiv.fields", "covariant_derivative_op", "fields.covariant_derivative_op"),
    ("geoequiv.fields", "nijenhuis", "fields.nijenhuis"),
    ("geoequiv.smallmat", "eigen", "smallmat.eigen"),
    ("geoequiv.smallmat", "char_poly", "smallmat.char_poly"),
    ("geoequiv.smallmat", "matrix_function", "smallmat.matrix_function"),
    ("geoequiv.smallmat", "MonicPoly.from_roots", "smallmat.from_roots"),
    ("geoequiv.equiv.core", "compatibility_residual", "equiv.compatibility_residual"),
    ("geoequiv.equiv.core", "topalov_sinjukov", "equiv.topalov_sinjukov"),
    ("geoequiv.equiv.factorization", "track_eigenvalue_groups", "equiv.track"),
    ("geoequiv.equiv.factorization", "FactorizationResult.groups_at", "equiv.groups_at"),
    ("geoequiv.equiv.splitglue", "split", "equiv.split"),
    ("geoequiv.equiv.splitglue", "glue", "equiv.glue"),
    ("geoequiv.equiv.splitglue", "glue_fields", "equiv.glue_fields"),
    ("geoequiv.equiv.splitglue", "block_condition_residuals",
     "equiv.block_condition_residuals"),
    ("geoequiv.oracle", "integrate_geodesic", "oracle.integrate"),
    ("geoequiv.oracle", "unparam_defect", "oracle.defect"),
    ("geoequiv.oracle", "geodesic_defect_report", "oracle.report"),
)

_MARK = "__perfbench_original__"
KEEP_SPANS = 20000  # spans kept verbatim for the trace file; all are aggregated


def _geoequiv_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "geoequiv" or name.startswith("geoequiv."))]


def _resolve(module_name, path):
    """(owner, attribute, raw original) for a dotted attribute path."""
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack = []
        self._next_id = 0
        self.agg = defaultdict(lambda: [0, 0.0, 0.0])  # calls, incl, self
        self.edges = Counter()   # (parent name, child name) -> calls
        self.counts = Counter()  # counters filled by post hooks
        self.spans = []          # (id, parent id, name, start, end)
        self.dropped_spans = 0
        self._patches = []       # (owner, attribute, original value)
        self.originals = {}      # span name -> original function
        self._glue_points = set()

    # -- spans -----------------------------------------------------------

    def wrap(self, name, fn, post=None):
        """Return fn wrapped as a span called ``name``; ``post(result,
        args)`` runs after the call, outside the span."""
        stack, agg, edges, spans, clock = (self._stack, self.agg, self.edges,
                                           self.spans, self.clock)

        def wrapper(*args, **kwargs):
            self._next_id += 1
            frame = [name, self._next_id, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                rec = agg[name]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                    edges[(parent[0], name)] += 1
                if len(spans) < KEEP_SPANS:
                    spans.append((frame[1], parent[1] if parent else 0, name, t0, t1))
                else:
                    self.dropped_spans += 1
            if post is not None:
                post(result, args)
            return result

        setattr(wrapper, _MARK, fn)
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def reset(self):
        """Forget aggregates and spans (bindings stay installed)."""
        self.agg.clear()
        self.edges.clear()
        self.counts.clear()
        self.spans.clear()
        self.dropped_spans = 0

    def snapshot(self):
        return {
            "agg": {k: list(v) for k, v in self.agg.items()},
            "edges": {f"{a}>{b}": c for (a, b), c in self.edges.items()},
            "counts": dict(self.counts),
            "dropped_spans": self.dropped_spans,
        }

    # -- post hooks ------------------------------------------------------

    def _compile_dual(self, span, original):
        """compile_dual whose closures are ``exprdsl.eval`` spans."""
        def compile_dual(e, dim):
            return self.wrap("exprdsl.eval", span(e, dim))

        setattr(compile_dual, _MARK, original)
        return compile_dual

    def _backing_post(self, kind):
        def post(result, args):
            backing = args[0]
            if backing._exprs is not None:
                self.counts[f"{kind}.expr"] += 1
            else:
                self.counts[f"{kind}.function"] += 1
                if kind == "vd":
                    exact = backing._jac is not None
                    self.counts["vd.jac" if exact else "vd.fd"] += 1
        return post

    def _trajectory_post(self, traj, args):
        self.counts["oracle.steps_accepted"] += traj.steps
        self.counts["oracle.box_exits"] += int(traj.truncated)

    def _report_post(self, rep, args):
        self.counts["oracle.skipped_null"] += rep.skipped_null

    def _glue_post(self, result, args):
        inp, p = args
        key = (id(inp), np.asarray(p, dtype=float).tobytes())
        if key not in self._glue_points:
            self._glue_points.add(key)
            self.counts["glue.distinct_points"] += 1

    def _main_post(self, result, args):
        self._glue_points.clear()

    # -- installation ----------------------------------------------------

    def install(self):
        """Patch every binding of every target in loaded geoequiv modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import geoequiv.cli  # noqa: F401  (loads every geoequiv module)
        from geoequiv import fields

        posts = {
            "fields.value": self._backing_post("value"),
            "fields.vd": self._backing_post("vd"),
            "oracle.integrate": self._trajectory_post,
            "oracle.report": self._report_post,
            "equiv.glue": self._glue_post,
            "cli.main": self._main_post,
        }
        modules = _geoequiv_modules()
        for module_name, path, name in TARGETS:
            owner, attr, raw = _resolve(module_name, path)
            func = raw.__func__ if isinstance(raw, classmethod) else raw
            new = self.wrap(name, func, posts.get(name))
            if name == "exprdsl.compile_dual":
                new = self._compile_dual(new, func)
            if isinstance(raw, classmethod):
                new = classmethod(new)
            self.originals[name] = func
            if isinstance(owner, type):
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is func:
                        self._patches.append((module, key, func))
                        setattr(module, key, new)

        # closures behind function-backed fields, counted as fields.closure
        init = fields._Backing.__init__

        def backing_init(backing, *args, **kwargs):
            init(backing, *args, **kwargs)
            if backing._fn is not None:
                backing._fn = self.wrap("fields.closure", backing._fn)
            if backing._jac is not None:
                backing._jac = self.wrap("fields.closure", backing._jac)

        setattr(backing_init, _MARK, init)
        self.originals["fields._Backing.__init__"] = init
        self._patches.append((fields._Backing, "__init__", init))
        fields._Backing.__init__ = backing_init

        cache = fields._compile_cache
        for key, fn in list(cache.items()):
            cache[key] = self.wrap("exprdsl.eval", fn)
        return self

    def uninstall(self):
        from geoequiv import fields

        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        cache = fields._compile_cache
        for key, fn in list(cache.items()):
            cache[key] = getattr(fn, _MARK, fn)
