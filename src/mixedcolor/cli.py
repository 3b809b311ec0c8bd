"""Command-line front door: solve, bounds, params, gen, expr, verify.

Reports are ``key=value`` lines (or one JSON document with ``--json``).
Exit codes: 0 = colorable / success, 1 = not colorable / certificate
rejected, 2 = usage or runtime error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time

from . import bounds as bounds_mod
from . import solvers
from .errors import MixedColorError
from .expressions import (
    evaluate,
    format_expression,
    ndm_expression,
    parse_expression,
    tc_expression,
    width,
)
from .graphs import (
    MixedGraph,
    layering,
    load_coloring,
    load_graph,
    maxrank,
    mixed_graph,
    save_coloring,
    save_graph,
)
from .partitions import (
    clique_number,
    mixed_neighborhood_partition,
    undirected_neighborhood_partition,
    vertex_cover_number,
)
from .reductions import (
    FAMILIES,
    ListColoringInstance,
    SchedulingInstance,
    SuperstringInstance,
    random_mixed_graph,
    reduce_list_coloring,
    reduce_multicolored_clique,
    reduce_scheduling,
    reduce_superstring,
)
from .treedecomp import load_td


class Report:
    def __init__(self, command: str, as_json: bool):
        self.fields: dict[str, object] = {"command": command}
        self.as_json = as_json

    def add(self, key: str, value: object) -> None:
        self.fields[key] = value

    def emit(self, stream=None) -> None:
        stream = stream or sys.stdout
        if self.as_json:
            stream.write(json.dumps(self.fields, sort_keys=True) + "\n")
        else:
            for key, value in self.fields.items():
                stream.write(f"{key}={value}\n")


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def _read_graph(path: str) -> MixedGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return load_graph(fh)


def _format_program(program) -> str:
    def name(var) -> str:
        if var[0] == "c":
            return f"c[{var[1]}]"
        bits = ",".join(str(b + 1) for b in range(64) if var[2] >> b & 1)
        return f"x[{var[1]},{{{bits}}}]"

    lines = []
    for var, lo, hi in program.variables:
        lines.append(f"var {name(var)} in [{lo},{hi}]")
    for con in program.constraints:
        terms = " ".join(
            ("+" if coef >= 0 else "-") + (f"{abs(coef)}*" if abs(coef) != 1 else "") + name(var)
            for var, coef in con.coeffs
        )
        lines.append(f"{terms} {'<=' if con.op == '<=' else '='} {con.rhs}")
    return "\n".join(lines)


def cmd_solve(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    report = Report("solve", args.json)
    report.add("input", args.graph)
    report.add("input_sha256", _digest(args.graph))
    td = None
    if args.td:
        with open(args.td, "r", encoding="utf-8") as fh:
            td = load_td(fh)
    started = time.perf_counter()
    if args.dump_ilp and args.k is not None:
        from .solvers import class_structure, maximal_proper_preorders, preorder_program

        struct = class_structure(g)
        for idx, pre in enumerate(maximal_proper_preorders(len(struct.sizes), struct.class_arcs), 1):
            program = preorder_program(pre, struct.sizes, struct.class_edges, args.k, reduced=False)
            sys.stdout.write(f"# preorder {idx}: ell={pre.ell} p-={pre.p_minus} p+={pre.p_plus}\n")
            sys.stdout.write(_format_program(program) + "\n")
    witness = None
    if args.k is not None:
        if args.method == "brute":
            witness = solvers.brute_force_decide(g, args.k)
            decision = witness is not None
            stats = {}
        elif args.method == "twdp":
            from .treedecomp import min_fill_decomposition

            result = solvers.tw_dp_decide(g, td or min_fill_decomposition(g), args.k)
            decision, witness, stats = result.decision, result.witness, result.stats
        elif args.method == "ndm":
            result = solvers.ndm_fpt_decide(g, args.k)
            decision, witness, stats = result.decision, result.witness, result.stats
        else:
            result = solvers.branching_decide(
                g, args.k, budget=args.budget or solvers.DEFAULT_NODE_BUDGET
            )
            decision, witness, stats = result.decision, result.witness, result.stats
        report.add("k", args.k)
        report.add("decision", "yes" if decision else "no")
    else:
        chi, witness = solvers.chi_exact(
            g,
            method=args.method,
            td=td,
            brute_cap=args.budget or solvers.DEFAULT_BRUTE_CAP,
            budget=args.budget or solvers.DEFAULT_NODE_BUDGET,
        )
        decision = True
        stats = {}
        report.add("chi", chi)
    for key, value in sorted(stats.items()):
        if key != "wall_time":
            report.add(key, value)
    report.add("wall_time", f"{time.perf_counter() - started:.6f}")
    if witness is not None and args.cert:
        ok, _ = bounds_mod.check_proper(g, witness)
        if not ok:
            raise AssertionError("solver produced an improper witness")
        with open(args.cert, "w", encoding="utf-8") as fh:
            save_coloring(witness, fh)
        report.add("certificate", args.cert)
    report.emit()
    return 0 if decision else 1


def cmd_bounds(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    result = bounds_mod.chromatic_bounds(g)
    report = Report("bounds", args.json)
    report.add("input", args.graph)
    report.add("input_sha256", _digest(args.graph))
    report.add("lower", result.lower)
    report.add("upper", result.upper)
    report.add("lower_witness", result.lower_witness)
    if args.cert:
        with open(args.cert, "w", encoding="utf-8") as fh:
            save_coloring(result.upper_witness, fh)
        report.add("certificate", args.cert)
    report.emit()
    return 0


def cmd_params(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    report = Report("params", args.json)
    report.add("input", args.graph)
    report.add("input_sha256", _digest(args.graph))
    report.add("n", g.n)
    report.add("edges", len(g.edges))
    report.add("arcs", len(g.arcs))
    report.add("ndm", len(mixed_neighborhood_partition(g)))
    report.add("ndu", len(undirected_neighborhood_partition(g)))
    vc, _ = vertex_cover_number(g)
    report.add("vc", vc)
    report.add("omega", clique_number(g) if g.n else 0)
    report.add("maxrank", maxrank(g))
    report.add("layers", len(layering(g).layers) if g.n else 0)
    report.emit()
    return 0


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def cmd_gen(args: argparse.Namespace) -> int:
    report = Report("gen", args.json)
    name = args.kind
    params = args.params
    if name in FAMILIES:
        func, arity = FAMILIES[name]
        if len(params) != arity:
            raise MixedColorError(f"{name} takes {arity} integer parameter(s)")
        g = func(*(int(p) for p in params))
        report.add("family", name)
    elif name == "random":
        if len(params) != 3:
            raise MixedColorError("random takes: n edge_p arc_p")
        rng = random.Random(args.seed)
        g = random_mixed_graph(rng, int(params[0]), float(params[1]), float(params[2]))
        report.add("family", "random")
        report.add("seed", args.seed)
    elif name == "superstring":
        spec = _load_json(params[0])
        inst = SuperstringInstance(tuple(spec["strings"]), int(spec["k"]))
        g, k = reduce_superstring(inst, split=args.split)
        report.add("reduction", "superstring")
        report.add("k", k)
    elif name == "scheduling":
        spec = _load_json(params[0])
        inst = SchedulingInstance(
            tuple(spec["tasks_m1"]),
            tuple(spec["tasks_m2"]),
            tuple((a, b) for a, b in spec.get("precedence", [])),
            int(spec["deadline"]),
        )
        g, k = reduce_scheduling(inst)
        report.add("reduction", "scheduling")
        report.add("k", k)
    elif name == "list_coloring":
        spec = _load_json(params[0])
        base = mixed_graph(int(spec["n"]), [tuple(e) for e in spec.get("edges", [])])
        lists = {int(v): frozenset(cs) for v, cs in spec["lists"].items()}
        inst = ListColoringInstance(base, lists, int(spec["num_colors"]))
        g, k = reduce_list_coloring(inst)
        report.add("reduction", "list_coloring")
        report.add("k", k)
    elif name == "multicolored_clique":
        spec = _load_json(params[0])
        base = mixed_graph(int(spec["n"]), [tuple(e) for e in spec.get("edges", [])])
        classes = tuple(frozenset(c) for c in spec["classes"])
        inst = reduce_multicolored_clique(base, classes)
        # emit the produced list-coloring instance as JSON next to the report
        payload = {
            "n": inst.graph.n,
            "edges": sorted([list(e) for e in inst.graph.edges]),
            "lists": {str(v): sorted(cs) for v, cs in sorted(inst.lists.items())},
            "num_colors": inst.num_colors,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
        report.add("reduction", "multicolored_clique")
        report.add("out", args.out)
        report.emit()
        return 0
    else:
        raise MixedColorError(f"unknown generator {name!r}")
    with open(args.out, "w", encoding="utf-8") as fh:
        save_graph(g, fh)
    report.add("out", args.out)
    report.add("n", g.n)
    report.add("edges", len(g.edges))
    report.add("arcs", len(g.arcs))
    report.emit()
    return 0


def cmd_expr(args: argparse.Namespace) -> int:
    report = Report(f"expr-{args.action}", args.json)
    if args.action == "eval":
        with open(args.source, "r", encoding="utf-8") as fh:
            expr = parse_expression(fh.read())
        labeled = evaluate(expr)
        report.add("width", width(expr))
        report.add("n", labeled.graph.n)
        report.add("edges", len(labeled.graph.edges))
        report.add("arcs", len(labeled.graph.arcs))
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                save_graph(labeled.graph, fh)
            report.add("out", args.out)
    elif args.action == "from-ndm":
        g = _read_graph(args.source)
        expr = ndm_expression(g)
        report.add("width", width(expr))
        text = format_expression(expr)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            report.add("out", args.out)
        else:
            sys.stdout.write(text + "\n")
    else:  # tc
        with open(args.source, "r", encoding="utf-8") as fh:
            expr = parse_expression(fh.read())
        closed = tc_expression(expr)
        report.add("width", width(closed))
        text = format_expression(closed)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            report.add("out", args.out)
        else:
            sys.stdout.write(text + "\n")
    report.emit()
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    with open(args.cert, "r", encoding="utf-8") as fh:
        coloring = load_coloring(fh)
    ok, violation = bounds_mod.check_proper(g, coloring)
    report = Report("verify", args.json)
    report.add("input", args.graph)
    report.add("certificate", args.cert)
    report.add("proper", "yes" if ok else "no")
    report.add("colors", coloring.num_colors())
    if violation is not None:
        kind, u, v = violation
        report.add("violation", f"{kind}({u},{v})")
    report.emit()
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixedcolor",
        description="Exact coloring, bounds, parameters, and generators for mixed graphs.",
    )
    parser.add_argument("--json", action="store_true", help="emit the report as JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="decide k-colorability or compute the chromatic number")
    p.add_argument("graph")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--method", choices=solvers.METHODS, default="branch")
    p.add_argument("--td", default=None, help="tree decomposition file (PACE .td)")
    p.add_argument("--cert", default=None, help="write the witness coloring here")
    p.add_argument("--budget", type=int, default=None, help="search node budget / brute cap")
    p.add_argument("--dump-ilp", action="store_true", help="dump the per-preorder feasibility programs")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bounds", help="chromatic lower/upper bounds with a witness coloring")
    p.add_argument("graph")
    p.add_argument("--cert", default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("params", help="structural parameters of the graph")
    p.add_argument("graph")
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("gen", help="generate family members, random graphs, or reduction outputs")
    p.add_argument("kind", help="family name, 'random', or reduction name")
    p.add_argument("params", nargs="*", help="family parameters or instance JSON path")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--split", action="store_true", help="superstring: split construction")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("expr", help="evaluate and transform cliquewidth expressions")
    p.add_argument("action", choices=("eval", "from-ndm", "tc"))
    p.add_argument("source")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_expr)

    p = sub.add_parser("verify", help="check a coloring certificate against a graph")
    p.add_argument("graph")
    p.add_argument("cert")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except MixedColorError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2
    except (OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
