"""Per-layer tracing of reciprange from outside the package.

``Tracer.install`` wraps each layer's public functions and rebinds the
wrapper wherever a reciprange module holds the original, so calls made
through ``from .geometry import region_from_vertices`` style bindings are
seen too.  Each wrapper records one span: self time (its duration minus the
spans it encloses), a call count and, for some layers, a count of the work
it was handed.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import importlib
import statistics
import sys
from time import perf_counter_ns


def _len_arg(args, kwargs, out):
    return len(args[0])


def _len_out(args, kwargs, out):
    return len(out)


def _degenerate_samples(args, kwargs, out):
    return sum(1 for s in out if s.degenerate)


def _classify_mode(args, kwargs):
    mode = kwargs.get("mode", args[1] if len(args) > 1 else "float")
    return f"ellipses.classify.{mode}"


#: (module, attribute, span name or namer, count of the work handed to the span)
TIMED = [
    ("ellipses", "classify", _classify_mode, None),
    ("ellipses", "brute_force_decompositions", "ellipses.brute_force_decompositions", None),
    ("bipoly", "ZetaPoly.divmod_monic", "bipoly.divmod_monic", None),
    ("concentric6", "candidate_axes", "concentric6.candidate_axes", None),
    ("concentric6", "audit_concentric_criterion", "concentric6.audit_concentric_criterion", None),
    ("kippenhahn", "closed_form_poly", "kippenhahn.closed_form_poly", None),
    ("kippenhahn", "eigencurves", "kippenhahn.eigencurves", None),
    ("kippenhahn", "envelope_points", "kippenhahn.envelope_points", _degenerate_samples),
    ("kippenhahn", "curve_components", "kippenhahn.curve_components", None),
    ("kippenhahn", "determinant_poly_eval", "kippenhahn.determinant_poly_eval", None),
    ("jsonio", "dumps", "jsonio.dumps", _len_out),
    ("svgplot", "render_curve", "svgplot.render_curve", None),
    ("geometry", "halfplane_intersection", "geometry.halfplane_intersection", _len_arg),
    ("geometry", "region_from_vertices", "geometry.region_from_vertices", _len_arg),
    ("geometry", "intersect_regions", "geometry.intersect_regions", None),
    ("geometry", "convex_hull", "geometry.convex_hull", None),
    ("geometry", "hausdorff_distance", "geometry.hausdorff_distance", None),
    ("ranges", "rank_k_numeric", "ranges.rank_k_numeric", None),
    ("ranges", "rank_k_analytic", "ranges.rank_k_analytic", None),
    ("ranges", "region_distance", "ranges.region_distance", None),
    ("cli", "main", "cli.main", None),
]

#: counted but not timed: called too often for a span each
COUNTED = [
    ("numberfield", "FieldElement.__mul__", "numberfield.FieldElement.mul"),
]

#: (metric, unit, span name, field): the per-layer metrics a traced run reports
LAYER_METRICS = [
    ("ellipses.classify.float.ms", "ms", "ellipses.classify.float", "ms"),
    ("ellipses.classify.exact.ms", "ms", "ellipses.classify.exact", "ms"),
    ("ellipses.classify.extended.ms", "ms", "ellipses.classify.extended", "ms"),
    ("bipoly.divmod_monic.calls", "count", "bipoly.divmod_monic", "calls"),
    ("bipoly.divmod_monic.ms", "ms", "bipoly.divmod_monic", "ms"),
    ("numberfield.FieldElement.mul.calls", "count", "numberfield.FieldElement.mul", "calls"),
    ("concentric6.candidate_axes.ms", "ms", "concentric6.candidate_axes", "ms"),
    ("kippenhahn.closed_form_poly.ms", "ms", "kippenhahn.closed_form_poly", "ms"),
    ("kippenhahn.eigencurves.ms", "ms", "kippenhahn.eigencurves", "ms"),
    ("kippenhahn.envelope_points.ms", "ms", "kippenhahn.envelope_points", "ms"),
    ("kippenhahn.envelope_points.degenerate", "count", "kippenhahn.envelope_points", "extra"),
    ("kippenhahn.curve_components.ms", "ms", "kippenhahn.curve_components", "ms"),
    ("jsonio.dumps.ms", "ms", "jsonio.dumps", "ms"),
    ("jsonio.dumps.bytes", "bytes", "jsonio.dumps", "extra"),
    ("svgplot.render_curve.ms", "ms", "svgplot.render_curve", "ms"),
    ("geometry.halfplane_intersection.ms", "ms", "geometry.halfplane_intersection", "ms"),
    ("geometry.halfplane_intersection.halfplanes", "count", "geometry.halfplane_intersection", "extra"),
    ("geometry.region_from_vertices.ms", "ms", "geometry.region_from_vertices", "ms"),
    ("geometry.region_from_vertices.vertices", "count", "geometry.region_from_vertices", "extra"),
    ("ranges.rank_k_numeric.ms", "ms", "ranges.rank_k_numeric", "ms"),
    ("ranges.rank_k_analytic.ms", "ms", "ranges.rank_k_analytic", "ms"),
    ("geometry.intersect_regions.ms", "ms", "geometry.intersect_regions", "ms"),
    ("geometry.convex_hull.ms", "ms", "geometry.convex_hull", "ms"),
    ("ranges.region_distance.ms", "ms", "ranges.region_distance", "ms"),
    ("geometry.hausdorff_distance.ms", "ms", "geometry.hausdorff_distance", "ms"),
    ("ellipses.brute_force_decompositions.ms", "ms", "ellipses.brute_force_decompositions", "ms"),
    ("kippenhahn.determinant_poly_eval.calls", "count", "kippenhahn.determinant_poly_eval", "calls"),
    ("concentric6.audit_concentric_criterion.ms", "ms", "concentric6.audit_concentric_criterion", "ms"),
    ("cli.main.ms", "ms", "cli.main", "ms"),
]


class Tracer:
    """Span recorder shared by every wrapper; inactive outside timed operations."""

    def __init__(self, keep_spans_for=0):
        self.active = False
        self.op = {}  # span name -> [self ns, calls, extra count] for the current operation
        self.per_op = []  # one dict like ``op`` per finished operation
        self._stack = []  # [ns covered by child spans, span id] per open span
        self._next_id = 0
        self._keep_spans_for = keep_spans_for
        self.spans = []  # (op index, span id, parent id, name, start ns, end ns)

    # -- operations -----------------------------------------------------
    def begin_op(self):
        self.op = {}
        self.active = True

    def end_op(self):
        self.active = False
        self.per_op.append(self.op)

    def _record(self, name):
        rec = self.op.get(name)
        if rec is None:
            rec = self.op[name] = [0, 0, 0]
        return rec

    # -- wrappers ----------------------------------------------------------
    def timed(self, fn, name, extra=None):
        tr = self
        fixed = isinstance(name, str)

        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            span = name if fixed else name(args, kwargs)
            frame = [0, tr._next_id]
            tr._next_id += 1
            parent = tr._stack[-1][1] if tr._stack else None
            tr._stack.append(frame)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                tr._stack.pop()
                rec = tr._record(span)
                rec[0] += t1 - t0 - frame[0]
                rec[1] += 1
                if len(tr.per_op) < tr._keep_spans_for:
                    tr.spans.append((len(tr.per_op), frame[1], parent, span, t0, t1))
            if extra is not None:
                rec[2] += extra(args, kwargs, out)
            if tr._stack:
                # the parent's self time excludes this span and its bookkeeping
                tr._stack[-1][0] += perf_counter_ns() - t0
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, fn, name):
        tr = self

        def wrapper(*args, **kwargs):
            if tr.active:
                tr._record(name)[1] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every layer function wherever a loaded reciprange module binds it."""
        for modname, attr, name, extra in TIMED:
            self._patch(modname, attr, lambda fn, name=name, extra=extra: self.timed(fn, name, extra))
        for modname, attr, name in COUNTED:
            self._patch(modname, attr, lambda fn, name=name: self.counted(fn, name))

    @staticmethod
    def _patch(modname, attr, make):
        mod = importlib.import_module(f"reciprange.{modname}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[meth]
            wrapped = make(orig)
            for key, val in list(vars(cls).items()):  # e.g. __rmul__ = __mul__
                if val is orig:
                    setattr(cls, key, wrapped)
            return
        orig = getattr(mod, attr)
        wrapped = make(orig)
        for m in list(sys.modules.values()):
            if m is None or not getattr(m, "__name__", "").startswith("reciprange"):
                continue
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, wrapped)

    # -- results -------------------------------------------------------------
    def layer_metrics(self):
        """Per-operation medians over the operations that entered each layer."""
        out = {}
        for metric, unit, span, field in LAYER_METRICS:
            vals = []
            for op in self.per_op:
                rec = op.get(span)
                if rec is None:
                    continue
                vals.append({"ms": rec[0] / 1e6, "calls": rec[1], "extra": rec[2]}[field])
            out[metric] = {"value": statistics.median(vals) if vals else 0, "unit": unit}
        return out

    def dump(self):
        return {
            "per_op": self.per_op[: self._keep_spans_for],
            "spans": [
                {"op": op, "id": sid, "parent": parent, "name": name, "start_ns": t0, "end_ns": t1}
                for op, sid, parent, name, t0, t1 in self.spans
            ],
        }
