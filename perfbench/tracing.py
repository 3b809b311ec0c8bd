"""Span recording around calls into each module, for the traced run only.

``Tracer.install`` rebinds the module-level names that callers look up to
wrappers that record a span (name, start, end, parent span, operation id)
and feed counters from return values; ``uninstall`` restores the originals.
Nothing under ``src/`` changes. Self time of a span is its duration minus
the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# (module, attribute, span name, counter hook or None, wraps a generator)
TARGETS = [
    ("mixedcolor.graphs", "load_graph", "graphs.load_graph", "bytes", False),
    ("mixedcolor.graphs", "layering", "graphs.layering", None, False),
    ("mixedcolor.graphs", "maxrank", "graphs.maxrank", None, False),
    ("mixedcolor.bounds", "layering", "graphs.layering", None, False),
    ("mixedcolor.bounds", "maxrank", "graphs.maxrank", None, False),
    ("mixedcolor.partitions", "mixed_neighborhood_partition", "partitions.mixed", "classes", False),
    ("mixedcolor.solvers", "mixed_neighborhood_partition", "partitions.mixed", "classes", False),
    ("mixedcolor.expressions", "mixed_neighborhood_partition", "partitions.mixed", "classes", False),
    ("mixedcolor.partitions", "undirected_neighborhood_partition", "partitions.undirected", None, False),
    ("mixedcolor.partitions", "vertex_cover_number", "partitions.vertex_cover", None, False),
    ("mixedcolor.partitions", "clique_number", "partitions.clique", "clique", False),
    ("mixedcolor.bounds", "clique_number", "partitions.clique", "clique", False),
    ("mixedcolor.bounds", "chi_u_exact", "bounds.chi_u", "k_tried", False),
    ("mixedcolor.bounds", "lower_bounds", "bounds.lower_bounds", "inexact", False),
    ("mixedcolor.bounds", "layering_coloring", "bounds.layering_coloring", None, False),
    ("mixedcolor.bounds", "chromatic_bounds", "bounds.chromatic_bounds", None, False),
    ("mixedcolor.solvers", "lower_bounds", "bounds.lower_bounds", "inexact", False),
    ("mixedcolor.solvers", "layering_coloring", "bounds.layering_coloring", None, False),
    ("mixedcolor.solvers", "min_fill_decomposition", "treedecomp.min_fill", "td_width", False),
    ("mixedcolor.solvers", "validate_decomposition", "treedecomp.validate", None, False),
    ("mixedcolor.solvers", "make_nice", "treedecomp.make_nice", None, False),
    ("mixedcolor.solvers", "tw_dp_decide", "solvers.twdp", "twdp", False),
    ("mixedcolor.solvers", "ndm_fpt_decide", "solvers.ndm", "ndm", False),
    ("mixedcolor.solvers", "class_structure", "solvers.ndm.class_structure", None, False),
    ("mixedcolor.solvers", "maximal_proper_preorders", "solvers.ndm.enumerate", None, True),
    ("mixedcolor.solvers", "preorder_program", "solvers.ndm.preorder_program", None, False),
    ("mixedcolor.solvers", "solve_feasibility", "feasibility.solve", "feasibility", False),
    ("mixedcolor.solvers", "branching_chi", "solvers.branch", "branch", False),
    ("mixedcolor.solvers", "maximal_independent_sets", "solvers.branch.mis", "mis", False),
    ("mixedcolor.solvers", "chi_exact", "solvers.chi_exact", None, False),
    ("mixedcolor.expressions", "ndm_expression", "expressions.ndm_expression", None, False),
    ("mixedcolor.expressions", "width", "expressions.width", "expr_width", False),
    ("mixedcolor.expressions", "evaluate", "expressions.evaluate", None, False),
]

LAYERS = [
    "graphs", "partitions", "bounds", "treedecomp", "solvers.twdp", "solvers.ndm",
    "feasibility", "solvers.branch", "expressions", "solvers", "bench",
]

# Layers whose summed self time should lead on each workload.
TARGET_LAYERS = {
    "ndm-fpt": ("feasibility", "solvers.ndm"),
    "sparse-branch": ("solvers.branch",),
    "dense-twdp": ("solvers.twdp", "treedecomp"),
    "analyze-large": ("partitions", "bounds", "graphs", "expressions"),
}

TIMED_SPANS = [
    "graphs.load_graph", "graphs.layering",
    "partitions.mixed", "partitions.undirected", "partitions.vertex_cover", "partitions.clique",
    "bounds.chi_u", "bounds.layering_coloring",
    "treedecomp.min_fill", "treedecomp.make_nice",
    "solvers.twdp", "solvers.ndm", "solvers.ndm.class_structure", "solvers.ndm.preorder_program",
    "feasibility.solve", "solvers.branch", "solvers.branch.mis",
    "expressions.ndm_expression", "expressions.evaluate",
]

# name -> (unit, better); times are inclusive seconds per operation, counts
# are totals over the traced pass, so they repeat exactly on the same seed.
PER_LAYER = {f"{name}.s": ("s/op", "lower") for name in TIMED_SPANS}
PER_LAYER.update({
    "graphs.load_graph.bytes": ("bytes", "lower"),
    "partitions.classes": ("count", "lower"),
    "bounds.chi_u.inexact": ("count", "lower"),
    "bounds.k_tried": ("count", "lower"),
    "bounds.gap": ("colors", "lower"),
    "treedecomp.width.max": ("count", "lower"),
    "solvers.twdp.table_entries": ("count", "lower"),
    "solvers.twdp.max_table": ("count", "lower"),
    "solvers.ndm.preorders": ("count", "lower"),
    "feasibility.programs": ("count", "lower"),
    "feasibility.feasible_ratio": ("ratio", "higher"),
    "feasibility.vars": ("count", "lower"),
    "solvers.branch.memo_states": ("count", "lower"),
    "solvers.branch.fanout": ("count", "lower"),
    "solvers.branch.memo_hit_ratio": ("ratio", "higher"),
    "expressions.width": ("count", "lower"),
})
PER_LAYER.update({f"self.{layer}": ("share", "lower") for layer in LAYERS})
PER_LAYER["trace.overhead"] = ("ratio", "lower")

# Counters that repeat exactly for one seed; the counter diff compares these.
DETERMINISTIC = [
    "graphs.load_graph.bytes", "partitions.classes", "bounds.chi_u.inexact", "bounds.k_tried",
    "bounds.gap", "treedecomp.width.max", "solvers.twdp.table_entries", "solvers.twdp.max_table",
    "solvers.ndm.preorders", "feasibility.programs", "feasibility.feasible_ratio", "feasibility.vars",
    "solvers.branch.memo_states", "solvers.branch.fanout", "solvers.branch.memo_hit_ratio",
    "expressions.width",
]


def layer_of(span: str) -> str:
    if span == "op":
        return "bench"
    if span == "solvers.chi_exact":
        return "solvers"
    for prefix in ("solvers.ndm", "solvers.branch", "solvers.twdp"):
        if span.startswith(prefix):
            return prefix
    return span.split(".", 1)[0]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.stack: list[list] = []  # [span id, child time]
        self.next_id = 0
        self.op_id = -1
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.last_clique: tuple[int, int] | None = None
        self.saved: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------
    def enter(self) -> tuple[int, int, float]:
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1][0] if self.stack else -1
        self.stack.append([sid, 0.0])
        return sid, parent, time.perf_counter()

    def leave(self, name: str, sid: int, parent: int, start: float) -> None:
        end = time.perf_counter()
        _, child = self.stack.pop()
        duration = end - start
        if self.stack:
            self.stack[-1][1] += duration
        self.inclusive[name] += duration
        self.self_time[name] += duration - child
        self.spans.append((sid, name, start, end, parent, self.op_id))

    def run_op(self, fn, *args):
        self.op_id += 1
        sid, parent, start = self.enter()
        try:
            return fn(*args)
        finally:
            self.leave("op", sid, parent, start)

    # -- wrappers -------------------------------------------------------------
    def wrap(self, fn, name: str, hook: str | None):
        count = getattr(self, f"count_{hook}") if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent, start = self.enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave(name, sid, parent, start)
            if count is not None:
                count(sid, parent, args, result)
            return result

        return wrapper

    def wrap_generator(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                sid, parent, start = self.enter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.leave(name, sid, parent, start)
                yield item

        return wrapper

    def install(self) -> None:
        for module_name, attr, name, hook, generator in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self.saved.append((module, attr, original))
            wrapped = self.wrap_generator(original, name) if generator else self.wrap(original, name, hook)
            setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        while self.saved:
            module, attr, original = self.saved.pop()
            setattr(module, attr, original)

    # -- counters from return values --------------------------------------------
    def count_bytes(self, sid, parent, args, result) -> None:
        self.counts["graphs.load_graph.bytes"] += len(args[0].getvalue())

    def count_classes(self, sid, parent, args, result) -> None:
        self.counts["partitions.classes"] += len(result)

    def count_clique(self, sid, parent, args, result) -> None:
        self.last_clique = (parent, result)

    def count_k_tried(self, sid, parent, args, result) -> None:
        # the search starts at the clique number it computed, or at 1
        start = self.last_clique[1] if self.last_clique and self.last_clique[0] == sid else 1
        self.counts["bounds.k_tried"] += result[0] - start + 1

    def count_inexact(self, sid, parent, args, result) -> None:
        self.counts["bounds.chi_u.inexact"] += not result.chi_u_exact

    def count_td_width(self, sid, parent, args, result) -> None:
        self.counts["treedecomp.width.max"] = max(self.counts["treedecomp.width.max"], result.width)

    def count_twdp(self, sid, parent, args, result) -> None:
        self.counts["solvers.twdp.table_entries"] += result.stats["nodes"]
        top = self.counts["solvers.twdp.max_table"]
        self.counts["solvers.twdp.max_table"] = max(top, result.stats["max_table"])

    def count_ndm(self, sid, parent, args, result) -> None:
        self.counts["solvers.ndm.preorders"] += result.stats["preorders"]

    def count_feasibility(self, sid, parent, args, result) -> None:
        self.counts["feasibility.programs"] += 1
        self.counts["feasibility.feasible"] += result is not None
        self.counts["feasibility.vars.total"] += len(args[0].variables)

    def count_branch(self, sid, parent, args, result) -> None:
        self.counts["solvers.branch.calls"] += 1

    def count_mis(self, sid, parent, args, result) -> None:
        # one MIS enumeration per new memo state; its length is the fanout
        self.counts["solvers.branch.memo_states"] += 1
        self.counts["solvers.branch.children"] += len(result)

    def count_expr_width(self, sid, parent, args, result) -> None:
        self.counts["expressions.width.total"] += result
        self.counts["expressions.count"] += 1

    # -- per-layer metrics ------------------------------------------------------
    def metrics(self, ops: int) -> dict[str, float]:
        c = self.counts
        out = {f"{name}.s": self.inclusive.get(name, 0.0) / ops for name in TIMED_SPANS}
        for key in ["graphs.load_graph.bytes", "partitions.classes", "bounds.chi_u.inexact",
                    "bounds.k_tried", "treedecomp.width.max", "solvers.twdp.table_entries",
                    "solvers.twdp.max_table", "solvers.ndm.preorders", "feasibility.programs",
                    "solvers.branch.memo_states"]:
            out[key] = c[key]
        programs = c["feasibility.programs"]
        out["feasibility.feasible_ratio"] = c["feasibility.feasible"] / programs if programs else 0.0
        out["feasibility.vars"] = c["feasibility.vars.total"] / programs if programs else 0.0
        states, children = c["solvers.branch.memo_states"], c["solvers.branch.children"]
        out["solvers.branch.fanout"] = children / states if states else 0.0
        # child lookups that needed no new enumeration (memo hits and empty sets)
        out["solvers.branch.memo_hit_ratio"] = (
            1 - (states - c["solvers.branch.calls"]) / children if children else 0.0
        )
        expressions = c["expressions.count"]
        out["expressions.width"] = c["expressions.width.total"] / expressions if expressions else 0.0
        total = self.inclusive.get("op", 0.0)
        by_layer: dict[str, float] = defaultdict(float)
        for name, value in self.self_time.items():
            by_layer[layer_of(name)] += value
        for layer in LAYERS:
            out[f"self.{layer}"] = by_layer[layer] / total if total else 0.0
        return out
