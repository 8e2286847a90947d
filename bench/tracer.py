"""Spans and counts around calls into the library's layers.

The tracer patches the library from the outside: each wrapped function or
method opens a span (name, start, end, parent span, operation id) and adds to
the layer's counters.  A plain function is replaced wherever a module of the
package binds it, so names imported with ``from .x import y`` are traced
where they are called.  ``uninstall`` restores every original.

Self time of a span is its duration minus the time covered by its child
spans.  Work the tracer itself adds (the unrefined comparison call behind
``refine_useful_ratio``) runs inside an untraced child span, so it is charged
to no layer.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

# (metric, unit) for every per-layer metric, in report order.  Scenario and
# builtin names are filled in from the canonical manifest and the registry.
CANONICAL_SCENARIOS = (
    "c01_norm_indicator", "c02_gap_indicator", "c02_gap_ramp", "c02_gap_sinc",
    "c02_gap_bump", "c03_isometry", "c04_decay_sqrt", "c05_osc_bump",
    "c06_primitive_gap_canonical", "c06_primitive_gap_witness",
    "c07_weight_reciprocal_quadratic", "c07_weight_exponential", "c07_weight_step",
    "c07_weighted_sweep", "c08_lemma_bounded", "c08_lemma_violation",
    "c09_poisson_disc", "c10_poisson_halfplane",
)
BUILTINS = (
    "bump", "constant", "cosine", "exponential", "gaussian", "indicator_01",
    "one_period", "ramp", "reciprocal_quadratic", "sinc_primitive", "step_signal",
    "step_weight",
)


def _layer(name, *parts):
    units = {"calls": "count", "points": "count", "self_s": "s"}
    return [(f"{name}.{p}", units[p]) for p in parts]


PER_LAYER = (
    _layer("realfn.eval.cheb", "calls", "points", "self_s")
    + _layer("realfn.eval.table", "calls", "points", "self_s")
    + _layer("realfn.eval.closed", "calls", "points", "self_s")
    + [("realfn.build.calls", "count"), ("realfn.build.panels", "count"),
       ("realfn.build.panels_fitted", "count"), ("realfn.build.f_points", "count"),
       ("realfn.build.tail_estimated", "count"), ("realfn.build.self_s", "s"),
       ("realfn.build.panel_yield", "ratio")]
    + [("realfn.grid_extrema.calls", "count"), ("realfn.grid_extrema.points", "count"),
       ("realfn.grid_extrema.refine_calls", "count"), ("realfn.grid_extrema.self_s", "s"),
       ("realfn.grid_extrema.refine_useful_ratio", "ratio")]
    + _layer("realfn.cheb_extrema", "calls", "self_s")
    + _layer("realfn.variation", "calls", "points", "self_s")
    + _layer("norms.difference_extrema", "calls", "self_s")
    + _layer("norms.primitive_gap_norm", "calls", "self_s")
    + _layer("norms.primitive_gap_l1", "calls", "self_s")
    + _layer("weights.weighted_gap_single", "calls", "self_s")
    + _layer("weights.product_integrand", "calls", "self_s")
    + [("weights.audit.self_s", "s")]
    + _layer("poisson.halfplane.init", "calls", "self_s")
    + _layer("poisson.halfplane.value", "calls", "self_s")
    + _layer("poisson.kernel_pair", "calls", "self_s")
    + _layer("poisson.disc", "calls", "self_s")
    + [(f"cli.scenario.{s}.wall_s", "s") for s in CANONICAL_SCENARIOS]
    + [("cli.write_s", "s")]
    + [(f"registry.builtin.{b}.build_s", "s") for b in BUILTINS]
    + [("trace.untraced_round_s", "s"), ("trace.traced_round_s", "s"),
       ("trace.overhead_ratio", "ratio")]
)

_REL_MOVE = 1e-12   # a refinement is useful when it moves an extremum by more


class Tracer:
    """In-memory spans plus per-name totals.  Not thread-safe: the benchmark
    runs every workload on one thread."""

    def __init__(self):
        self.enabled = False
        self.op_id = -1
        self.keep_spans = True
        self._stack = []                 # open frames: [name, start, child_s, index]
        self.names = {}                  # span name -> id
        self.spans = []                  # (name_id, op_id, parent_index, start, end)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._refine_sink = None
        self._undo = []

    # -- spans ----------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1][3] if self._stack else -1
        index = -1
        if self.keep_spans:
            index = len(self.spans)
            self.spans.append([self.names.setdefault(name, len(self.names)),
                               self.op_id, parent, 0.0, 0.0])
        frame = [name, time.perf_counter(), 0.0, index]
        self._stack.append(frame)
        return frame

    def _close(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame[1]
        if self._stack:
            self._stack[-1][2] += dur
        if frame[3] >= 0:
            self.spans[frame[3]][3:] = [frame[1], end]
        self.total_s[frame[0]] += dur
        self.self_s[frame[0]] += dur - frame[2]
        self.counts[frame[0] + ".calls"] += 1

    def span(self, name, fn, args, kwargs):
        frame = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(frame)

    def untraced(self, fn, *args, **kwargs):
        """Run fn as a child span charged to no layer, with tracing off inside."""
        frame = self._open("trace.untraced")
        self.enabled = False
        try:
            return fn(*args, **kwargs)
        finally:
            self.enabled = True
            self._close(frame)

    def in_span(self, name) -> bool:
        return bool(self._stack) and self._stack[-1][0] == name

    # -- patching ---------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, package, module, attr, make):
        """Replace module.attr, and every binding of the same object in the
        package's modules, by make(original)."""
        orig = getattr(module, attr)
        wrapper = make(orig)
        for name, mod in list(sys.modules.items()):
            if name == package or name.startswith(package + "."):
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, key, wrapper)

    def patch_method(self, cls, attr, make):
        self._set(cls, attr, make(cls.__dict__[attr]))

    def patch_dict(self, table, key, make):
        self._undo.append((table, key, table[key]))
        table[key] = make(table[key])

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)

    # -- wrappers -------------------------------------------------------------

    def timed(self, name, points=None):
        """Span wrapper; points(args, kwargs) adds to name.points."""
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not self.enabled:
                    return fn(*args, **kwargs)
                if points is not None:
                    self.counts[name + ".points"] += points(args, kwargs)
                return self.span(name, fn, args, kwargs)
            return wrapper
        return make

    def counted(self, name):
        """Counter-only wrapper: one call adds 1 to the named counter."""
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                if self.enabled:
                    self.counts[name] += 1
                return result
            return wrapper
        return make

    def builder(self, fn):
        """build_primitive_from_pointwise: panels kept, pointwise evaluations
        and tail estimates.  Panels fitted come from the _fit_panel counter."""
        @functools.wraps(fn)
        def wrapper(f_eval, *args, **kwargs):
            if not self.enabled:
                return fn(f_eval, *args, **kwargs)

            def counting(y):
                out = f_eval(y)
                self.counts["realfn.build.f_points"] += np.size(y)
                return out

            out = self.span("realfn.build", fn, (counting,) + args, kwargs)
            self.counts["realfn.build.panels"] += len(out.edges) - 1
            self.counts["realfn.build.tail_estimated"] += bool(out.tail_estimated)
            return out
        return wrapper

    def grid_extrema(self, fn):
        """grid_extrema: grid and refinement points, refinement calls, and how
        many refinements moved an extremum past the unrefined grid value."""
        @functools.wraps(fn)
        def wrapper(ev, window, **kwargs):
            if not self.enabled:
                return fn(ev, window, **kwargs)
            refine = kwargs.get("refine", True)
            if refine:
                lo0, hi0 = self.untraced(fn, ev, window, **{**kwargs, "refine": False})

            def counting(y):
                out = ev(y)
                self.counts["realfn.grid_extrema.points"] += np.size(y)
                return out

            sink, self._refine_sink = self._refine_sink, []
            try:
                out = self.span("realfn.grid_extrema", fn, (counting, window), kwargs)
                found = self._refine_sink
            finally:
                self._refine_sink = sink
            if refine and found:
                # the maximum searches come first, then the minimum searches
                half = len(found) // 2
                scale = max(abs(lo0), abs(hi0), np.finfo(float).tiny)
                useful = sum(-v > hi0 + _REL_MOVE * scale for v in found[:half])
                useful += sum(v < lo0 - _REL_MOVE * scale for v in found[half:])
                self.counts["realfn.grid_extrema.refine_useful"] += useful
            return out
        return wrapper

    def refinement(self, fn):
        """minimize_scalar as bound in realfn: one call is one refinement."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            res = fn(*args, **kwargs)
            if self.enabled and self._refine_sink is not None:
                self.counts["realfn.grid_extrema.refine_calls"] += 1
                self._refine_sink.append(float(res.fun))
            return res
        return wrapper

    def scenario(self, fn):
        @functools.wraps(fn)
        def wrapper(sc, seed):
            if not self.enabled:
                return fn(sc, seed)
            return self.span(f"cli.scenario.{sc.name}", fn, (sc, seed), {})
        return wrapper

    # -- installation -----------------------------------------------------------

    def install(self, alexnorm):
        """Wrap the layers of an imported alexnorm package."""
        from alexnorm import cli, norms, poisson, realfn, registry, weights
        pkg = alexnorm.__name__
        size = lambda args, kwargs: np.size(args[1] if len(args) > 1 else kwargs["x"])
        self.patch_method(realfn.PiecewiseChebyshevPrimitive, "eval",
                          self.timed("realfn.eval.cheb", size))
        self.patch_method(realfn.PiecewiseLinearPrimitive, "eval",
                          self.timed("realfn.eval.table", size))
        self.patch_method(realfn.ClosedFormPrimitive, "eval",
                          self.timed("realfn.eval.closed", size))
        self.patch_method(realfn.PiecewiseChebyshevPrimitive, "extrema",
                          self.timed("realfn.cheb_extrema"))
        self.patch_function(pkg, realfn, "build_primitive_from_pointwise", self.builder)
        self.patch_function(pkg, realfn, "_fit_panel",
                            self.counted("realfn.build.panels_fitted"))
        self.patch_function(pkg, realfn, "grid_extrema", self.grid_extrema)
        # only realfn's binding: norms binds the same scipy function for itself
        self._set(realfn, "minimize_scalar", self.refinement(realfn.minimize_scalar))
        self.patch_function(pkg, realfn, "variation", self.timed("realfn.variation"))
        dyadic = realfn.Partition.__dict__["dyadic"].__func__

        @classmethod
        @functools.wraps(dyadic)
        def counted_dyadic(cls, *args, **kwargs):
            out = dyadic(cls, *args, **kwargs)
            if self.enabled and self.in_span("realfn.variation"):
                self.counts["realfn.variation.points"] += len(out.points)
            return out
        self._set(realfn.Partition, "dyadic", counted_dyadic)

        self.patch_function(pkg, norms, "_difference_extrema",
                            self.timed("norms.difference_extrema"))
        self.patch_function(pkg, norms, "primitive_gap_norm",
                            self.timed("norms.primitive_gap_norm"))
        self.patch_function(pkg, norms, "primitive_gap_l1",
                            self.timed("norms.primitive_gap_l1"))
        self.patch_function(pkg, weights, "_weighted_gap_single",
                            self.timed("weights.weighted_gap_single"))
        self.patch_function(pkg, weights, "product_integrand",
                            self.timed("weights.product_integrand"))
        for audit in ("ratio_conditions_check", "sufficient_conditions_check",
                      "variation_bound_check"):
            self.patch_function(pkg, weights, audit, self.timed("weights.audit"))
        self.patch_method(poisson.HalfPlaneOperator, "__init__",
                          self.timed("poisson.halfplane.init"))
        self.patch_method(poisson.HalfPlaneOperator, "value",
                          self.timed("poisson.halfplane.value"))
        self.patch_function(pkg, poisson, "kernel_pair", self.timed("poisson.kernel_pair"))
        self.patch_function(pkg, poisson, "poisson_disc", self.timed("poisson.disc"))
        for kind in list(cli._EXECUTORS):
            self.patch_dict(cli._EXECUTORS, kind, self.scenario)
        self.patch_function(pkg, cli, "run", self.timed("cli.run"))
        for table in (registry._FUNCTION_BUILDERS, registry._WEIGHT_BUILDERS):
            for key in list(table):
                self.patch_dict(table, key, self.timed(f"registry.builtin.{key}"))

    def reset(self, keep=""):
        """Drop the totals, except those of spans whose name starts with keep."""
        for table in (self.total_s, self.self_s, self.counts):
            for key in [k for k in table if not (keep and k.startswith(keep))]:
                del table[key]

    # -- report -------------------------------------------------------------------

    def metrics(self, rounds: int) -> dict:
        """Per-round layer metrics (totals divided by the traced rounds);
        registry build times are per build."""
        per = lambda v: v / rounds
        out = {}
        for metric, unit in PER_LAYER:
            base, _, kind = metric.rpartition(".")
            if metric.startswith("trace."):
                continue
            if metric.startswith("registry."):
                name = metric[: -len(".build_s")]
                n = self.counts[name + ".calls"]
                value = self.total_s[name] / n if n else 0.0
            elif metric.startswith("cli.scenario."):
                value = per(self.total_s[metric[: -len(".wall_s")]])
            elif metric == "cli.write_s":
                value = per(self.self_s["cli.run"])
            elif metric == "realfn.build.panel_yield":
                fitted = self.counts["realfn.build.panels_fitted"]
                value = self.counts["realfn.build.panels"] / fitted if fitted else 0.0
            elif metric == "realfn.grid_extrema.refine_useful_ratio":
                tried = self.counts["realfn.grid_extrema.refine_calls"]
                value = (self.counts["realfn.grid_extrema.refine_useful"] / tried
                         if tried else 0.0)
            elif kind == "self_s":
                value = per(self.self_s[base])
            else:
                value = per(self.counts[metric])
            out[metric] = (value, unit)
        return out

    def save(self, path):
        """Write the kept spans as arrays (one row per span) plus the name table."""
        rows = np.asarray(self.spans, dtype=float).reshape(-1, 5)
        names = np.asarray(sorted(self.names, key=self.names.get))
        np.savez_compressed(path, name_id=rows[:, 0].astype(np.int32),
                            op_id=rows[:, 1].astype(np.int32),
                            parent=rows[:, 2].astype(np.int64),
                            start=rows[:, 3], end=rows[:, 4], names=names)
