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
from .errors import DEFAULT_NODE_BUDGET, MixedColorError
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
    set_bits,
)
from .partitions import (
    clique_number,
    closure_neighborhood_partition,
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

REDUCTIONS = ("superstring", "scheduling", "list_coloring", "multicolored_clique")


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


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _format_program(prog) -> str:
    """The variables of ``prog`` with their bounds, then its ``<=`` rows in order."""

    def name(var) -> str:
        if var[0] == "c":
            return f"c[{var[1]}]"
        return f"x[{var[1]},{{{','.join(str(b + 1) for b in set_bits(var[2]))}}}]"

    names = [name(var) for var in prog.names]
    lines = [f"var {var} in [{lo},{hi}]" for var, lo, hi in zip(names, prog.lo, prog.hi)]
    for terms, rhs in zip(prog.rows, prog.rhs):
        lhs = " ".join(("+" if c > 0 else "-") + (f"{abs(c)}*" if abs(c) != 1 else "") + names[i] for i, c in terms)
        lines.append(f"{lhs} <= {rhs}")
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
    if args.dump_ilp:
        programs = solvers.ndm_programs(solvers.class_structure(g), args.k, args.budget)
        for idx, (pre, prog) in enumerate(programs, 1):
            sys.stdout.write(f"# preorder {idx}: ell={pre.ell} p-={pre.p_minus} p+={pre.p_plus}\n")
            sys.stdout.write(_format_program(prog) + "\n")
    started = time.perf_counter()
    if args.k is not None:
        result = solvers.ROUTES[args.method](g, td, args.budget)(args.k)
        report.add("k", args.k)
        report.add("decision", "yes" if result.decision else "no")
    else:
        stats: dict = {}
        chi, witness = solvers.chi_exact(g, method=args.method, td=td, budget=args.budget, stats=stats)
        result = solvers.SolveResult(True, witness, stats)
        report.add("chi", chi)
    for key, value in sorted(result.stats.items()):
        report.add(key, value)
    report.add("wall_time", f"{time.perf_counter() - started:.6f}")
    if result.witness is not None and args.cert:
        ok, _ = bounds_mod.check_proper(g, result.witness)
        if not ok:
            raise AssertionError("solver produced an improper witness")
        with open(args.cert, "w", encoding="utf-8") as fh:
            save_coloring(result.witness, fh)
        report.add("certificate", args.cert)
    report.emit()
    return 0 if result.decision else 1


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
    report.add("ndm_closure", len(closure_neighborhood_partition(g)))
    report.add("ndu", len(undirected_neighborhood_partition(g)))
    vc, _ = vertex_cover_number(g)
    report.add("vc", vc)
    report.add("omega", clique_number(g))
    report.add("maxrank", maxrank(g))
    report.add("layers", len(layering(g).layers))
    report.emit()
    return 0


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def cmd_gen(args: argparse.Namespace) -> int:
    report = Report("gen", args.json)
    name = args.kind
    params = args.params
    if name in REDUCTIONS:
        if len(params) != 1:
            raise MixedColorError(f"{name} takes one instance JSON path")
        spec = _load_json(params[0])
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
        inst = SuperstringInstance(tuple(spec["strings"]), int(spec["k"]))
        g, k = reduce_superstring(inst, split=args.split)
        report.add("reduction", "superstring")
        report.add("k", k)
    elif name == "scheduling":
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
        base = mixed_graph(int(spec["n"]), [tuple(e) for e in spec.get("edges", [])])
        lists = {int(v): frozenset(cs) for v, cs in spec["lists"].items()}
        inst = ListColoringInstance(base, lists, int(spec["num_colors"]))
        g, k = reduce_list_coloring(inst)
        report.add("reduction", "list_coloring")
        report.add("k", k)
    elif name == "multicolored_clique":
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
    if args.action == "from-ndm":
        expr = ndm_expression(_read_graph(args.source))
    else:
        with open(args.source, "r", encoding="utf-8") as fh:
            expr = parse_expression(fh.read())
    if args.action == "eval":
        labeled = evaluate(expr)
        report.add("width", width(expr))
        report.add("n", labeled.graph.n)
        report.add("edges", len(labeled.graph.edges))
        report.add("arcs", len(labeled.graph.arcs))
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                save_graph(labeled.graph, fh)
            report.add("out", args.out)
    else:
        if args.action == "tc":
            expr = tc_expression(expr)
        report.add("width", width(expr))
        text = format_expression(expr)
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
    p.add_argument("--td", default=None, help="tree decomposition file (PACE .td; needs --method twdp)")
    p.add_argument("--cert", default=None, help="write the witness coloring here")
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_NODE_BUDGET,
                   help="work budget of every method's search (default %(default)s)")
    p.add_argument("--dump-ilp", action="store_true",
                   help="print the rows the ndm route searches per preorder (needs --k, --method ndm)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bounds", help="the ascent's chromatic bracket, with the schedule coloring as upper witness")
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
        if args.command == "solve" and args.dump_ilp and (args.k is None or args.method != "ndm"):
            parser.error("--dump-ilp needs --k and --method ndm")
        if args.command == "solve" and args.td and args.method != "twdp":
            parser.error("--td needs --method twdp")
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except Exception as exc:  # whatever failed, the run gave no answer
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
