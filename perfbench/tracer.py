"""Outside-in tracer for the sparsemult layers.

The tracer never edits the program.  It replaces chosen functions with
timing wrappers by rebinding every name under which a ``sparsemult``
module holds the original (``branch_series`` is bound in ``branches``,
``construct`` and ``verify``), and chosen methods on their class
(``TruncatedSeries.__mul__`` together with its alias ``__rmul__``).
Functions imported inside a function body read the module attribute at
call time, so they see the wrapper too.

Each wrapped call is one span: (span id, layer, start, end, parent span id,
op id).  Spans stay in memory and are written when the run ends.  Calls,
total time and self time (duration minus the time covered by child spans)
are summed per layer while the spans are recorded, together with
parent-to-child call counts and the counters that observers derive from
arguments and results.
"""

from __future__ import annotations

import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, layer).  An attribute "Class.method" wraps a method on
# its class.  Several attributes may share one layer; their calls add up.
PLAN = (
    ("lattice", "convex_hull", "lattice.convex_hull"),
    ("lattice", "erode", "lattice.erode"),
    ("lattice", "mixed_volume", "lattice.mixed_volume"),
    ("lattice", "normal_form", "lattice.normal_form"),
    ("algebra", "TruncatedSeries.__mul__", "algebra.series_mul"),
    ("algebra", "TruncatedSeries.int_pow", "algebra.series_int_pow"),
    ("algebra", "TruncatedSeries.inverse", "algebra.series_inverse"),
    ("algebra", "TruncatedSeries.__add__", "algebra.series_add"),
    ("algebra", "rank", "algebra.bareiss"),
    ("algebra", "kernel_basis", "algebra.bareiss"),
    ("algebra", "solve_linear", "algebra.bareiss"),
    ("algebra", "det", "algebra.bareiss"),
    ("algebra", "sylvester_resultant", "algebra.resultant"),
    ("algebra", "mpoly_resultant", "algebra.resultant"),
    ("algebra", "factor_out_roots", "algebra.factor_out_roots"),
    ("branches", "branch_series", "branches.branch_series"),
    ("branches", "osculating_matrix", "branches.osculating_matrix"),
    ("branches", "compute_dim_V", "branches.compute_dim_V"),
    ("construct", "construct_prescribed", "construct.construct_prescribed"),
    ("construct", "_line_contact_on", "construct.line_contact"),
    ("verify", "intersection_multiplicity_smooth", "verify.intersection_multiplicity_smooth"),
    ("classify", "decide_mult3", "classify.decide_mult3"),
    ("classify", "match_exceptional_family", "classify.match_exceptional_family"),
    ("classify", "triangle_inflection", "classify.triangle_inflection"),
    ("classify", "hessian_at_one", "classify.hessian_at_one"),
    ("classify", "theta_poly", "classify.theta_poly"),
    ("cli", "main", "cli.main"),
    ("cli", "_load_request", "jsonio.parse"),
    ("cli", "_emit", "jsonio.emit"),
    ("jsonio", "support_from_json", "jsonio.parse"),
    ("jsonio", "laurent_from_json", "jsonio.parse"),
    ("jsonio", "point_from_json", "jsonio.parse"),
    ("jsonio", "fraction_from_json", "jsonio.parse"),
    ("jsonio", "system_from_json", "jsonio.parse"),
    ("jsonio", "support_to_json", "jsonio.emit"),
    ("jsonio", "laurent_to_json", "jsonio.emit"),
    ("jsonio", "upoly_to_json", "jsonio.emit"),
    ("jsonio", "point_to_json", "jsonio.emit"),
    ("jsonio", "fraction_to_json", "jsonio.emit"),
    ("jsonio", "certificate_to_json", "jsonio.emit"),
    ("jsonio", "system_to_json", "jsonio.emit"),
    ("jsonio", "_value_to_json", "jsonio.emit"),
)

PACKAGE = "sparsemult"
SPAN_HEADER = "span\tlayer\tstart\tend\tparent\top\n"
OP = "op"


def _observe_branch_series(tr, args, kwargs, result, exc):
    order = kwargs["order"] if "order" in kwargs else args[2]
    tr.add("branches.branch_series.truncation_sum", order)


def _observe_series_mul(tr, args, kwargs, result, exc):
    # coefficient products of the schoolbook loop, computed from the operand
    # lengths (zero coefficients skipped by the program are still counted)
    a, b = args[0], args[1]
    if type(b) is type(a):
        n = min(len(a.coeffs), len(b.coeffs))
        tr.add("algebra.series_mul.coeff_products_computed", n * (n + 1) // 2)
    else:
        tr.add("algebra.series_mul.coeff_products_computed", len(a.coeffs))


def _observe_normal_form(tr, args, kwargs, result, exc):
    tr.distinct.setdefault("lattice.normal_form", set()).add(args[0].points)


def _observe_construct_prescribed(tr, args, kwargs, result, exc):
    if exc is None:
        tr.add("construct.construct_prescribed.draws", result.retries_used + 1)
        tr.add("construct.construct_prescribed.successes", 1)
    else:
        retries = kwargs.get("retries", args[4] if len(args) > 4 else 16)
        tr.add("construct.construct_prescribed.draws", retries)


def _observe_decide_mult3(tr, args, kwargs, result, exc):
    if exc is not None or result.verdict != "Achievable":
        return
    tr.add("classify.decide_mult3.achievable", 1)
    if result.construction is not None:
        tr.add("classify.decide_mult3.witnessed", 1)
    for line in result.route_log:
        route = line.split(" ", 2)[1]
        if "witness found" in line:
            outcome = "witness"
        elif "inapplicable" in line:
            outcome = "inapplicable"
        else:
            outcome = "failed"
        tr.add(f"classify.route_{route}.{outcome}", 1)


OBSERVERS = {
    "branches.branch_series": _observe_branch_series,
    "algebra.series_mul": _observe_series_mul,
    "lattice.normal_form": _observe_normal_form,
    "construct.construct_prescribed": _observe_construct_prescribed,
    "classify.decide_mult3": _observe_decide_mult3,
}


class Tracer:
    """Span recorder; ``install`` wraps the program, ``uninstall`` restores it."""

    def __init__(self):
        self.layers = [OP]
        self._layer_ids = {OP: 0}
        self.calls = [0]
        self.total = [0.0]
        self.self_time = [0.0]
        self.edges = {}
        self.counters = {}
        self.distinct = {}
        self.op_id = -1
        self._stack = []
        self._next_span = 0
        self._undo = []
        # one column per span field, in the order spans end
        self.span_id = array("q")
        self.span_layer = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("q")

    def add(self, counter, amount):
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def _layer_id(self, layer):
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return self._layer_ids[layer]

    def _enter(self, lid):
        sid = self._next_span
        self._next_span = sid + 1
        stack = self._stack
        parent = stack[-1] if stack else None
        if parent is not None:
            key = (parent[0], lid)
            self.edges[key] = self.edges.get(key, 0) + 1
        frame = [lid, sid, parent[1] if parent else -1, 0.0, perf_counter()]
        stack.append(frame)
        return frame

    def _exit(self, frame):
        end = perf_counter()
        self._stack.pop()
        lid, sid, parent_sid, child_time, start = frame
        dur = end - start
        self.calls[lid] += 1
        self.total[lid] += dur
        self.self_time[lid] += dur - child_time
        if self._stack:
            self._stack[-1][3] += dur
        self.span_id.append(sid)
        self.span_layer.append(lid)
        self.span_start.append(start)
        self.span_end.append(end)
        self.span_parent.append(parent_sid)
        self.span_op.append(self.op_id)

    @contextmanager
    def op_span(self, op_id):
        """The root span of one op."""
        self.op_id = op_id
        frame = self._enter(0)
        try:
            yield
        finally:
            self._exit(frame)
            self.op_id = -1

    def wrap(self, layer, fn):
        lid = self._layer_id(layer)
        observe = OBSERVERS.get(layer)
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            frame = enter(lid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                exit_(frame)
                if observe is not None:
                    observe(self, args, kwargs, None, exc)
                raise
            exit_(frame)
            if observe is not None:
                observe(self, args, kwargs, result, None)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        return traced

    def install(self):
        """Wrap every PLAN entry in the loaded sparsemult modules."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for mod_name, attr, layer in PLAN:
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            if home is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                wrapper = self.wrap(layer, orig)
                for name, value in list(vars(cls).items()):
                    if value is orig:
                        self._undo.append((cls, name, orig))
                        setattr(cls, name, wrapper)
                continue
            orig = getattr(home, attr)
            wrapper = self.wrap(layer, orig)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, name, orig))
                        setattr(mod, name, wrapper)

    def uninstall(self):
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()

    def summary(self):
        """Per-layer sums and counters as one JSON-ready dict."""
        return {
            "layers": {
                layer: {"calls": self.calls[i], "total_s": self.total[i], "self_s": self.self_time[i]}
                for i, layer in enumerate(self.layers)
            },
            "edges": [[self.layers[p], self.layers[c], n] for (p, c), n in sorted(self.edges.items())],
            "counters": dict(self.counters),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
        }

    def write_spans(self, fh):
        """Append the spans as SPAN_HEADER lines: id, layer, start, end, parent, op."""
        layers = self.layers
        for sid, lid, s, e, p, o in zip(self.span_id, self.span_layer, self.span_start,
                                        self.span_end, self.span_parent, self.span_op):
            fh.write(f"{sid}\t{layers[lid]}\t{s:.9f}\t{e:.9f}\t{p}\t{o}\n")


def merge_summaries(summaries):
    """Add up summaries taken in several processes (the cli children).

    Distinct counts add up per process: a support normalised in two
    children counts twice."""
    out = {"layers": {}, "edges": {}, "counters": {}, "distinct": {}}
    for s in summaries:
        for layer, v in s["layers"].items():
            acc = out["layers"].setdefault(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += v[k]
        for p, c, n in s["edges"]:
            out["edges"][(p, c)] = out["edges"].get((p, c), 0) + n
        for k, v in s["counters"].items():
            out["counters"][k] = out["counters"].get(k, 0) + v
        for k, v in s["distinct"].items():
            out["distinct"][k] = out["distinct"].get(k, 0) + v
    out["edges"] = [[p, c, n] for (p, c), n in sorted(out["edges"].items())]
    return out


# per-layer metrics read straight from the layer sums: (layer, stats)
LAYER_STATS = (
    ("branches.branch_series", ("calls", "self_s", "total_s")),
    ("branches.osculating_matrix", ("calls", "total_s")),
    ("branches.compute_dim_V", ("calls", "total_s")),
    ("algebra.series_mul", ("calls", "self_s")),
    ("algebra.series_int_pow", ("calls", "self_s")),
    ("algebra.series_inverse", ("calls", "self_s")),
    ("algebra.series_add", ("self_s",)),
    ("algebra.bareiss", ("calls", "self_s")),
    ("algebra.resultant", ("calls", "self_s")),
    ("algebra.factor_out_roots", ("calls", "self_s")),
    ("lattice.normal_form", ("calls", "self_s")),
    ("lattice.mixed_volume", ("calls", "self_s")),
    ("lattice.convex_hull", ("calls", "self_s")),
    ("lattice.erode", ("calls", "self_s")),
    ("construct.construct_prescribed", ("calls", "total_s")),
    ("construct.line_contact", ("calls", "total_s")),
    ("verify.intersection_multiplicity_smooth", ("calls", "total_s")),
    ("classify.decide_mult3", ("calls", "total_s")),
    ("classify.match_exceptional_family", ("calls", "total_s")),
    ("classify.triangle_inflection", ("calls", "self_s")),
    ("classify.hessian_at_one", ("calls", "total_s")),
    ("classify.theta_poly", ("calls", "total_s")),
    ("cli.main", ("total_s",)),
    ("jsonio.parse", ("calls", "self_s")),
    ("jsonio.emit", ("calls", "self_s")),
)
ROUTES = ("i", "ii", "iii")
ROUTE_OUTCOMES = ("witness", "failed", "inapplicable")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(summary, op_time_s, process):
    """Every per-layer metric of the benchmark from one merged summary.

    ``op_time_s`` is the traced time spent inside ops; ``process`` holds
    the process-start figures of the cli workload (zero elsewhere).
    """
    layers, counters = summary["layers"], summary["counters"]
    edges = {(p, c): n for p, c, n in summary["edges"]}
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    out = {}
    for layer, stats in LAYER_STATS:
        sums = layers.get(layer, zero)
        for stat in stats:
            out[f"{layer}.{stat}"] = sums[stat]

    bs = layers.get("branches.branch_series", zero)["calls"]
    out["branches.branch_series.newton_steps"] = edges.get(
        ("branches.branch_series", "algebra.series_inverse"), 0)
    out["branches.branch_series.truncation_mean"] = _ratio(
        counters.get("branches.branch_series.truncation_sum", 0), bs)
    out["algebra.series_mul.coeff_products_computed"] = counters.get(
        "algebra.series_mul.coeff_products_computed", 0)
    out["lattice.normal_form.distinct_ratio"] = _ratio(
        summary["distinct"].get("lattice.normal_form", 0), out["lattice.normal_form.calls"])

    draws = counters.get("construct.construct_prescribed.draws", 0)
    out["construct.construct_prescribed.attempts"] = draws
    out["construct.construct_prescribed.accept_ratio"] = _ratio(
        counters.get("construct.construct_prescribed.successes", 0), draws)

    verifier = "verify.intersection_multiplicity_smooth"
    out[f"{verifier}.share"] = _ratio(out[f"{verifier}.total_s"], op_time_s)
    out[f"{verifier}.truncation_doublings"] = (
        edges.get((verifier, "branches.branch_series"), 0) - out[f"{verifier}.calls"])

    for route in ROUTES:
        for outcome in ROUTE_OUTCOMES:
            out[f"classify.route_{route}.{outcome}"] = counters.get(
                f"classify.route_{route}.{outcome}", 0)
    out["classify.decide_mult3.witness_ratio"] = _ratio(
        counters.get("classify.decide_mult3.witnessed", 0),
        counters.get("classify.decide_mult3.achievable", 0))

    out["cli.interpreter_s"] = process.get("interpreter_s", 0.0)
    out["cli.import_s"] = process.get("import_s", 0.0)
    out["trace.overhead_ratio"] = process["overhead_ratio"]
    return out


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("ratio", "share")):
        return "ratio"
    if metric.endswith("truncation_mean"):
        return "order"
    return "count"
