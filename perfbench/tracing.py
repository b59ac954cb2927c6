"""Span tracing of the bnbroadcast layers, installed from outside the package.

`install` rebinds the public functions and cached properties listed in
LAYERS to wrappers that record one span per call: layer name, start, end,
parent span and op id, plus counts taken at the same boundary (solver
nodes, distance-matrix cells, broadcaster pairs).  A call made while a span
of the same layer is open is folded into that span, so a layer's spans
never nest in themselves.  Spans stay in memory until the traced process
writes them out; `layer_metrics` turns them into per-layer self times.
`span_cost` measures what one traced call adds, which prices the trace.

Nothing in the package is edited: the wrappers replace every reference to
the original function in the package's module namespaces, including the
values of module-level dicts such as the solver table in `solve`.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from collections import Counter, defaultdict
from time import perf_counter

# layer -> "module:attribute" targets; a trailing * matches a name prefix.
LAYERS = {
    "cli": ["cli:main"],
    "corpus.enumerate": ["corpus:enumerate_trees"],
    "corpus.graph6": ["corpus:emit_graph6", "corpus:parse_graph6"],
    "corpus.input": ["corpus:parse_family_spec", "corpus:build_family",
                     "corpus:parse_edge_list"],
    "trees.build": ["trees:Forest.__init__", "trees:Tree.__init__"],
    "trees.distances": ["trees:Forest.distances", "trees:Forest.eccentricities"],
    "trees.profile": ["trees:Tree.profile", "trees:classify_shape"],
    "solve.independence": ["solve:independence_number"],
    "solve.bounds": ["solve:compute_bounds", "solve:lower_bound_witness",
                     "solve:upper_bound", "solve:conjectured_upper_bound",
                     "solve:path_spider_value", "solve:two_branch_value",
                     "solve:caterpillar_value"],
    "solve.exact": ["solve:bn_number*", "solve:hearing_number"],
    "broadcasts.check": ["broadcasts:bn_violation", "broadcasts:is_bn_independent",
                         "broadcasts:hearing_violation",
                         "broadcasts:is_hearing_independent",
                         "broadcasts:is_maximal_bn", "broadcasts:is_dominating",
                         "broadcasts:analyze"],
}

MODULES = ("cli", "corpus", "trees", "solve", "broadcasts")

# span fields
NAME, START, END, PARENT, OP, ATTRS = range(6)
# attributes that identify rather than count; merged spans overwrite them
_LABELS = ("n", "value", "tree", "conjectured")


class Tracer:
    """In-memory span store; `op` tags every span opened while it is set."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None

    def open(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, perf_counter(), None, parent, self.op, None])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][END] = perf_counter()
        self.stack.pop()

    def note(self, idx, attrs):
        if not attrs:
            return
        span = self.spans[idx]
        if span[ATTRS] is None:
            span[ATTRS] = {}
        have = span[ATTRS]
        for key, val in attrs.items():
            have[key] = val if key in _LABELS else have.get(key, 0) + val

    def current(self, name):
        """Index of the innermost open span when it belongs to `name`."""
        if self.stack and self.spans[self.stack[-1]][NAME] == name:
            return self.stack[-1]
        return None


def _pairs(args, result):
    b = len(args[0].broadcasters)
    return {"pairs": b * (b - 1) // 2}


def _exact(args, result):
    tree = args[0]
    return {"nodes": result.nodes, "value": result.value, "n": tree.n,
            "tree": id(tree)}


def _exact_failed(args, exc):
    return {"failed": 1, "nodes": getattr(exc, "nodes", 0)}


def _conjectured(args, result):
    return {"conjectured": result, "tree": id(args[0])}


def _cells(args, result):
    return {"cells": len(result) ** 2}


# attribute name -> (count on return, count on exception)
COUNTS = {
    "bn_violation": (_pairs, None),
    "conjectured_upper_bound": (_conjectured, None),
    "distances": (_cells, None),
    "bn_number*": (_exact, _exact_failed),
    "hearing_number": (_exact, _exact_failed),
}


def _wrap(tracer, fn, name, counts):
    on_return, on_error = counts

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        merged = tracer.current(name)
        if merged is not None:
            result = fn(*args, **kwargs)
            if on_return:
                tracer.note(merged, on_return(args, result))
            return result
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(idx)
            if on_error:
                tracer.note(idx, on_error(args, exc))
            raise
        tracer.close(idx)
        if on_return:
            tracer.note(idx, on_return(args, result))
        return result

    return traced


def _wrap_generator(tracer, fn, name):
    """One span per step of the generator; the consumer's work between steps is outside."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            idx = tracer.open(name)
            try:
                item = next(it)
            except StopIteration:
                tracer.close(idx)
                return
            except BaseException:
                tracer.close(idx)
                raise
            tracer.close(idx)
            tracer.note(idx, {"trees": 1, "n": item.n})
            yield item

    return traced


def _targets(module, spec):
    """(owner, attribute name, count key) for one LAYERS entry."""
    owner_name, _, attr = spec.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    if attr.endswith("*"):
        prefix = attr[:-1]
        names = sorted(a for a in vars(owner) if a.startswith(prefix)
                       and callable(vars(owner)[a]))
        return [(owner, a, attr) for a in names]
    return [(owner, attr, attr)]


def install(tracer):
    """Wrap every LAYERS target of bnbroadcast so its calls record spans in `tracer`."""
    modules = {m: importlib.import_module(f"bnbroadcast.{m}") for m in MODULES}
    namespaces = [importlib.import_module("bnbroadcast")] + list(modules.values())
    for layer, specs in LAYERS.items():
        for spec in specs:
            mod_name, _, target = spec.partition(":")
            for owner, attr, key in _targets(modules[mod_name], target):
                counts = COUNTS.get(key, (None, None))
                original = vars(owner)[attr]
                if isinstance(original, functools.cached_property):
                    prop = functools.cached_property(
                        _wrap(tracer, original.func, layer, counts))
                    prop.__set_name__(owner, attr)
                    setattr(owner, attr, prop)
                elif isinstance(owner, type):
                    setattr(owner, attr, _wrap(tracer, original, layer, counts))
                else:
                    if layer == "corpus.enumerate":
                        replacement = _wrap_generator(tracer, original, layer)
                    else:
                        replacement = _wrap(tracer, original, layer, counts)
                    _rebind(namespaces, original, replacement)


def _rebind(namespaces, original, replacement):
    for ns in namespaces:
        for key, val in list(vars(ns).items()):
            if val is original:
                setattr(ns, key, replacement)
            elif isinstance(val, dict):
                for k, v in list(val.items()):
                    if v is original:
                        val[k] = replacement


def span_cost(rounds=7, calls=20000):
    """Median seconds a traced call of a no-op adds over the plain call.

    Timing the same ops traced and untraced in separate passes cannot show
    the trace's cost: on a shared machine the passes' speed differs by more.
    """
    tracer = Tracer()

    def noop():
        return None

    traced = _wrap(tracer, noop, "calibrate", (None, None))
    costs = []
    for _ in range(rounds):
        tracer.spans.clear()
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        t1 = perf_counter()
        for _ in range(calls):
            traced()
        t2 = perf_counter()
        costs.append((t2 - t1 - (t1 - t0)) / calls)
    return statistics.median(costs)


# ---------------------------------------------------------------------------
# summaries


def self_times(spans):
    """Per span, its duration minus the part its child spans cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            child[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - c for span, c in zip(spans, child)]


def percentile(values, q):
    """Linear-interpolation percentile (0 for no values); an inf value, such as
    a failed op, only shows when the percentile reaches it."""
    if not values:
        return 0.0
    data = sorted(values)
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    frac = pos - lo
    if frac == 0.0 or data[lo + 1] == data[lo]:
        return data[lo]
    return data[lo] + frac * (data[lo + 1] - data[lo])


def layer_metrics(spans, op_seconds, cost):
    """Per-layer metrics of one traced pass.

    op_seconds is the pass's op time measured by the harness around each
    op; what no top-level span covers is reported as trace.unattributed_s.
    cost is span_cost() of the traced process; the spans times it is
    trace.overhead_s.
    """
    busy = defaultdict(float)
    calls = Counter()
    counts = Counter()
    tree_ms = []
    hardest = 0
    for span, own in zip(spans, self_times(spans)):
        name = span[NAME]
        busy[name] += own
        calls[name] += 1
        attrs = span[ATTRS] or {}
        for key, val in attrs.items():
            if key not in _LABELS:
                counts[name, key] += val
        if name == "solve.exact":
            tree_ms.append((span[END] - span[START]) * 1000.0)
            hardest = max(hardest, attrs.get("nodes", 0))
    top = sum(s[END] - s[START] for s in spans if s[PARENT] is None)
    layers = sum(v for k, v in busy.items() if k != "cli")
    exact_busy = busy["solve.exact"]
    return {
        "corpus.enumerate.busy_s": busy["corpus.enumerate"],
        "corpus.enumerate.trees": counts["corpus.enumerate", "trees"],
        "corpus.graph6.busy_s": busy["corpus.graph6"],
        "corpus.graph6.calls": calls["corpus.graph6"],
        "corpus.input.busy_s": busy["corpus.input"],
        "trees.build.busy_s": busy["trees.build"],
        "trees.build.calls": calls["trees.build"],
        "trees.distances.busy_s": busy["trees.distances"],
        "trees.distances.cells": counts["trees.distances", "cells"],
        "trees.profile.busy_s": busy["trees.profile"],
        "solve.independence.busy_s": busy["solve.independence"],
        "solve.independence.calls": calls["solve.independence"],
        "solve.bounds.busy_s": busy["solve.bounds"],
        "broadcasts.check.busy_s": busy["broadcasts.check"],
        "broadcasts.check.calls": calls["broadcasts.check"],
        "broadcasts.check.pairs": counts["broadcasts.check", "pairs"],
        "solve.exact.busy_s": exact_busy,
        "solve.exact.nodes": counts["solve.exact", "nodes"],
        "solve.exact.nodes_per_s": (counts["solve.exact", "nodes"] / exact_busy
                                    if exact_busy else 0.0),
        "solve.exact.hardest_nodes": hardest,
        "solve.exact.tree_ms.p50": percentile(tree_ms, 50),
        "solve.exact.tree_ms.p90": percentile(tree_ms, 90),
        "solve.exact.failed": counts["solve.exact", "failed"],
        "cli.self_s": busy["cli"],
        "trace.unattributed_s": op_seconds - top,
        "trace.coverage": layers / op_seconds if op_seconds else 0.0,
        "trace.overhead_s": len(spans) * cost,
    }


def q1_orders(spans):
    """Per-order tree counts, branch-vertex trees, exact sums and margin
    histograms (conjectured - exact), read off the spans of a question1 scan."""
    orders = defaultdict(lambda: {"trees": 0, "branch": 0, "exact_sum": 0,
                                  "margins": Counter()})
    pending = {}
    for span in spans:
        attrs = span[ATTRS] or {}
        if span[NAME] == "corpus.enumerate" and attrs.get("trees"):
            orders[attrs["n"]]["trees"] += 1
        elif span[NAME] == "solve.exact" and "value" in attrs:
            o = orders[attrs["n"]]
            o["branch"] += 1
            o["exact_sum"] += attrs["value"]
            pending[attrs["tree"]] = (attrs["n"], attrs["value"])
        elif "conjectured" in attrs and attrs["tree"] in pending:
            n, value = pending.pop(attrs["tree"])
            orders[n]["margins"][str(attrs["conjectured"] - value)] += 1
    return {str(n): {**o, "margins": dict(sorted(o["margins"].items(),
                                                 key=lambda kv: int(kv[0])))}
            for n, o in sorted(orders.items())}
