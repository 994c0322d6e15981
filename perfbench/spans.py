"""Spans around the program's public functions, recorded from outside it.

A :class:`Tracer` wraps each layer's public functions wherever a ``transurf``
module namespace holds them, plus the multiplication, differentiation and
clearing methods of ``Poly2`` and ``RadExpr``.  It keeps spans
``(id, parent, op, name, start_ns, end_ns)`` in memory, up to a cap, and adds
up self time (a span's duration minus the part its child spans cover), calls
and counts per span name for every span.  ``install`` and ``uninstall`` swap
the wrappers in and out, so one process can alternate traced and untraced
rounds.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import Counter
from time import perf_counter_ns

import transurf.classify as tclassify
import transurf.cli as tcli
import transurf.curvature as tcurvature
import transurf.expr as texpr
import transurf.mesh as tmesh
import transurf.numeric as tnumeric
from transurf.poly import Poly2
from transurf.radical import RadExpr

# Per-layer metrics: (name, unit, source), in the order of BENCHMARK.json,
# which also gives their direction.  A source is ("self", span)
# for self time per op, ("calls", span) for calls per op, or ("count", key)
# for a count per op added up by the hooks below.
PER_LAYER = [
    ("cli.classify_self_ms", "ms", ("self", "cli.classify")),
    ("expr.parse_ms", "ms", ("self", "expr.parse")),
    ("expr.to_poly_ms", "ms", ("self", "expr.to_poly")),
    ("expr.diff_ms", "ms", ("self", "expr.diff")),
    ("expr.eval_ms", "ms", ("self", "expr.eval")),
    ("expr.eval_calls", "count", ("calls", "expr.eval")),
    ("poly.mul_ms", "ms", ("self", "poly.mul")),
    ("poly.mul_calls", "count", ("calls", "poly.mul")),
    ("poly.term_products", "count", ("count", "poly.term_products")),
    ("radical.mul_ms", "ms", ("self", "radical.mul")),
    ("radical.diff_ms", "ms", ("self", "radical.diff")),
    ("radical.cleared_ms", "ms", ("self", "radical.cleared")),
    ("curvature.direct_ms", "ms", ("self", "curvature.direct")),
    ("curvature.direct_calls", "count", ("calls", "curvature.direct")),
    ("curvature.derived_ms", "ms", ("self", "curvature.derived")),
    ("curvature.kii_ms", "ms", ("self", "curvature.kii")),
    ("curvature.kii_calls", "count", ("calls", "curvature.kii")),
    ("curvature.condition_terms", "count", ("count", "curvature.condition_terms")),
    ("curvature.condition_coeff_bits", "bits", ("count", "curvature.condition_coeff_bits")),
    ("classify.classify_pt_ms", "ms", ("self", "classify.classify_pt")),
    ("classify.kii_ms", "ms", ("self", "classify.kii")),
    ("classify.lw0_ms", "ms", ("self", "classify.lw0")),
    ("numeric.symbolic_eval_ms", "ms", ("self", "numeric.symbolic_eval")),
    ("numeric.symbolic_points", "count", ("calls", "numeric.symbolic_eval")),
    ("numeric.eval_curvatures_ms", "ms", ("self", "numeric.eval_curvatures")),
    ("numeric.weingarten_ms", "ms", ("self", "numeric.weingarten")),
    ("numeric.lw_fit_ms", "ms", ("self", "numeric.lw_fit")),
    ("numeric.oracle_ms", "ms", ("self", "numeric.oracle")),
    ("numeric.points", "count", ("count", "numeric.points")),
    ("numeric.skipped_points", "count", ("count", "numeric.skipped_points")),
    ("mesh.write_ms", "ms", ("self", "mesh.write")),
    ("mesh.vertices", "count", ("count", "mesh.vertices")),
    ("mesh.bytes", "bytes", ("count", "mesh.bytes")),
]
OVERHEAD = ("trace.overhead_pct", "%")


def _term_products(tracer, args, result):
    a, b = args
    tracer.counts["poly.term_products"] += len(a.terms) * (len(b.terms) if isinstance(b, Poly2) else 1)


def _condition_size(tracer, args, result):
    """Terms and largest coefficient bit length of the distinct condition
    polynomials an op produced, however often it rebuilt them."""
    for poly in result if isinstance(result, tuple) else (result,):
        if poly.terms and poly not in tracer.op_conditions:
            tracer.op_conditions.append(poly)
            tracer.counts["curvature.condition_terms"] += len(poly.terms)
            bits = max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in poly.terms.values())
            tracer.op_bits = max(tracer.op_bits, bits)


def _weingarten_points(tracer, args, result):
    tracer.counts["numeric.points"] += len(args[2])
    tracer.counts["numeric.skipped_points"] += result.skipped


def _sample_point(tracer, args, result):
    tracer.counts["numeric.points"] += 1


def _mesh_size(tracer, args, result):
    tracer.counts["mesh.vertices"] += result.vertices
    tracer.counts["mesh.bytes"] += os.path.getsize(result.path)


# (span name, original function, recursive, hook after a successful call).
# A recursive function gets one span for its outermost call only.
TARGETS = [
    ("cli.classify", tcli.main, False, None),
    ("expr.parse", texpr.parse_expr, False, None),
    ("expr.to_poly", texpr.expr_to_poly, True, None),
    ("expr.diff", texpr.ast_diff, True, None),
    ("expr.eval", texpr.ast_eval, False, None),
    ("poly.mul", Poly2.__dict__["__mul__"], False, _term_products),
    ("radical.mul", RadExpr.__dict__["__mul__"], False, None),
    ("radical.diff", RadExpr.__dict__["diff"], False, None),
    ("radical.cleared", RadExpr.__dict__["as_cleared_numerator"], False, None),
    ("curvature.direct", tcurvature.jacobian_direct, False, _condition_size),
    ("curvature.derived", tcurvature.jacobian_derived, False, _condition_size),
    ("curvature.kii", tcurvature.kii_numerator, False, _condition_size),
    ("classify.classify_pt", tclassify.classify_pt, False, None),
    ("classify.kii", tclassify.classify_kii, False, None),
    ("classify.lw0", tclassify.lw0_symbolic, False, None),
    ("numeric.symbolic_eval", tnumeric.eval_curvatures_symbolic, False, None),
    ("numeric.eval_curvatures", tnumeric.eval_curvatures, False, _sample_point),
    ("numeric.weingarten", tnumeric.numeric_weingarten_test, False, _weingarten_points),
    ("numeric.lw_fit", tnumeric.lw_fit, False, None),
    ("numeric.oracle", tnumeric.kii_oracle, False, None),
    ("mesh.write", tmesh.write_mesh, False, _mesh_size),
]


class Tracer:
    def __init__(self, keep_spans: int = 100_000):
        self.keep_spans = keep_spans
        self.spans: list[tuple] = []
        self.dropped = 0
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.ops = 0
        self.op = -1
        self.op_conditions: list = []
        self.op_bits = 0
        self._stack: list[list] = []
        self._active: Counter = Counter()
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- ops -------------------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self.op_conditions = []
        self.op_bits = 0

    def end_op(self) -> None:
        self.ops += 1
        self.counts["curvature.condition_coeff_bits"] += self.op_bits
        self.op_conditions = []

    # -- wrapping ----------------------------------------------------------------

    def _wrap(self, name, fn, recursive, hook):
        stack, active = self._stack, self._active
        self_ns, calls, spans = self.self_ns, self.calls, self.spans
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if recursive and active[name]:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0]
            stack.append(frame)
            active[name] += 1
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.counts[name + ".errors"] += 1
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                active[name] -= 1
                duration = end - start
                self_ns[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                calls[name] += 1
                if len(spans) < tracer.keep_spans:
                    spans.append((span_id, parent, tracer.op, name, start, end))
                else:
                    tracer.dropped += 1
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Put a wrapper wherever a transurf namespace holds a target."""
        if self._patches:
            return
        owners = [m for n, m in sys.modules.items() if n == "transurf" or n.startswith("transurf.")]
        owners += [Poly2, RadExpr]
        for name, fn, recursive, hook in TARGETS:
            wrapper = self._wrap(name, fn, recursive, hook)
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is fn:
                        self._patches.append((owner, attr, fn))
                        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches = []

    # -- results -------------------------------------------------------------------

    def snapshot(self) -> dict:
        return {"ops": self.ops, "calls": Counter(self.calls), "counts": Counter(self.counts)}

    def metrics(self, counts_from: dict) -> dict:
        """Per-op metrics: self times over every traced op, calls and counts
        over the ops of ``counts_from`` (a snapshot), so that they repeat
        exactly for a seed however long the run."""
        out = {}
        for metric, unit, (kind, key) in PER_LAYER:
            if kind == "self":
                value = self.self_ns[key] / 1e6 / max(self.ops, 1)
            else:
                table = counts_from["calls"] if kind == "calls" else counts_from["counts"]
                value = table[key] / max(counts_from["ops"], 1)
                if key == "numeric.skipped_points":
                    value += counts_from["counts"]["numeric.eval_curvatures.errors"] / max(counts_from["ops"], 1)
            out[metric] = {"value": value, "unit": unit}
        return out
