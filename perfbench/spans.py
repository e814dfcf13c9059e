"""In-memory spans around incdim's public functions, and the per-layer
table derived from them.

Tracing replaces each wrapped function at every incdim module
attribute that holds it, so calls that go through a module attribute
(`packing.remove_edge(...)` inside packing, `incidence.classify(...)`
from the cli) are recorded.  Nothing under src/ changes.
"""
from __future__ import annotations

import functools
import gzip
import json
from time import perf_counter

# layer (incdim module) -> public functions wrapped in that module
TRACED = {
    "graph": ("build_graph", "remove_edge", "parse_edge_list",
              "read_edge_list"),
    "packing": ("max_packing", "e_critical_packing", "is_packing"),
    "incidence": ("dim_I_brute", "dim_I_structural", "classify",
                  "is_incidence_generator"),
    "metric": ("dim_A", "dim_e", "is_adjacency_generator"),
    "reduction": ("parse_cnf", "build_reduction", "satisfying_assignment",
                  "assignment_to_generator", "basis_to_assignment",
                  "verify_claims"),
    "verify": ("run_suite",),
    "cli": ("main",),
    "corpus": ("random_graph", "random_tree"),
}

# max_packing(enumerate_all=True) is the kernel's enumeration mode and
# gets a span name of its own.
SPAN_NAMES = tuple(sorted(
    [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]
    + ["packing.max_packing_all"]))

NAME, START, END, PARENT, OP, STATUS, NOTE = range(7)


class Tracer:
    """Records spans as lists [name, start, end, parent, op, status, note].

    `op` is the operation index set by the runner (None during set-up),
    `status` is "ok" or the name of the exception that ended the span.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self._restore = []

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name, note = name, None
            if name == "packing.max_packing":
                enum = kwargs.get("enumerate_all",
                                  args[1] if len(args) > 1 else False)
                if enum:
                    span_name = "packing.max_packing_all"
            elif name == "packing.e_critical_packing":
                u, v = args[1] if len(args) > 1 else kwargs["e"]
                note = (id(args[0]), min(u, v), max(u, v))
            span = [span_name, 0.0, 0.0,
                    tracer.stack[-1] if tracer.stack else -1,
                    tracer.op, "ok", note]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[STATUS] = type(exc).__name__
                raise
            finally:
                span[END] = perf_counter()
                tracer.stack.pop()
            if span_name == "packing.max_packing_all":
                span[NOTE] = len(result.all_witnesses)
            return result

        return wrapper

    def install(self, modules):
        """Wrap every TRACED function wherever an incdim module binds it."""
        for layer, fns in TRACED.items():
            home = modules[layer]
            for fname in fns:
                fn = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", fn)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore = []

    def write(self, path):
        """Write the spans as gzipped JSON lines, times in seconds."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_table(spans):
    """{span name: {"calls", "incl_ms", "self_ms"}} for every SPAN_NAME.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly on one thread, so that is the part of
    the interval its children cover.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    table = {name: {"calls": 0, "incl_ms": 0.0, "self_ms": 0.0}
             for name in SPAN_NAMES}
    for s, children in zip(spans, child_time):
        row = table[s[NAME]]
        row["calls"] += 1
        row["incl_ms"] += (s[END] - s[START]) * 1000
        row["self_ms"] += (s[END] - s[START] - children) * 1000
    return table


def layer_metrics(spans, classify_ops):
    """Per-layer metrics: the table, plus the counters and ratios that
    show wasted work.  classify_ops is the set of operation indices that
    were `classify` requests."""
    metrics = {}
    for name, row in layer_table(spans).items():
        metrics[f"{name}.calls"] = (row["calls"], "count")
        metrics[f"{name}.incl_ms"] = (row["incl_ms"], "ms")
        metrics[f"{name}.self_ms"] = (row["self_ms"], "ms")
    max_packing = [s for s in spans
                   if s[NAME].startswith("packing.max_packing")]
    metrics["packing.max_packing.over_budget"] = (
        sum(s[STATUS] == "OverBudget" for s in max_packing), "count")
    metrics["packing.max_packing_all.witnesses"] = (
        sum(s[NOTE] or 0 for s in max_packing
            if s[NAME] == "packing.max_packing_all"), "count")
    critical = [(s[OP],) + s[NOTE] for s in spans
                if s[NAME] == "packing.e_critical_packing"]
    metrics["packing.e_critical_per_edge"] = (
        len(critical) / len(set(critical)) if critical else 0.0, "ratio")
    structural = sum(1 for s in spans
                     if s[NAME] == "incidence.dim_I_structural"
                     and s[OP] in classify_ops)
    metrics["incidence.structural_per_request"] = (
        structural / len(classify_ops) if classify_ops else 0.0, "ratio")
    return metrics
