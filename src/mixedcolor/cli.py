"""Command-line front door: solve, bounds, params, gen, expr, verify.

Reports are ``key=value`` lines (or one JSON document with ``--json``).
Exit codes: 0 = colorable / success, 1 = not colorable / certificate
rejected, 2 = usage or runtime error.

Each command imports the modules it runs when it runs: only ``gen`` imports
``reductions`` and only ``expr`` imports ``expressions``, and ``gen`` loads
none of ``bounds``, ``solvers``, ``partitions`` and ``treedecomp``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import random
import sys
import time

from .errors import DEFAULT_NODE_BUDGET, MixedColorError
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

REDUCTIONS = ("superstring", "scheduling", "list_coloring", "multicolored_clique")
METHODS = ("brute", "twdp", "ndm", "branch")  # solvers.METHODS, without importing the solvers


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")
    else:
        sys.stdout.writelines(f"{key}={value}\n" for key, value in report.items())


def _read_graph(path: str) -> tuple[MixedGraph, str]:
    """The graph in ``path`` and its file's sha256 prefix, from one read.
    ``newline=None`` turns CR and CRLF line ends into LF, as ``open`` does."""
    with open(path, "rb") as fh:
        data = fh.read()
    return load_graph(io.StringIO(data.decode("utf-8"), newline=None)), hashlib.sha256(data).hexdigest()[:16]


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _non_negative_int(text: str) -> int:
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
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
    from . import solvers
    from .bounds import check_proper
    from .treedecomp import load_td

    g, digest = _read_graph(args.graph)
    report = {"command": "solve", "input": args.graph, "input_sha256": digest}
    td = None
    if args.td:
        with open(args.td, "r", encoding="utf-8") as fh:
            td = load_td(fh)
    if args.dump_ilp:
        struct = solvers.class_structure(g)
        for idx, (pre, prog) in enumerate(solvers.ndm_programs(struct, args.k, args.budget), 1):
            head = f"{idx}: ell={pre.ell} p-={pre.p_minus} p+={pre.p_plus}"
            if prog is None:
                mask, size, u = solvers.clique_screen(pre, struct.cliques, args.k)
                clique = ",".join(str(c + 1) for c in set_bits(mask))
                sys.stdout.write(
                    f"# screened {head} clique={{{clique}}} needs {size} colors in {u} of {pre.ell - 1} intervals\n"
                )
            else:
                sys.stdout.write(f"# preorder {head}\n" + _format_program(prog) + "\n")
    started = time.perf_counter()
    if args.k is not None:
        result = solvers.ROUTES[args.method](g, td, args.budget)(args.k)
        report.update(k=args.k, decision="yes" if result.decision else "no")
    else:
        stats: dict = {}
        chi, witness = solvers.chi_exact(g, method=args.method, td=td, budget=args.budget, stats=stats)
        result = solvers.SolveResult(True, witness, stats)
        report["chi"] = chi
    report.update(sorted(result.stats.items()))
    report["wall_time"] = f"{time.perf_counter() - started:.6f}"
    if result.witness is not None and args.cert:
        ok, _ = check_proper(g, result.witness)
        if not ok:
            raise AssertionError("solver produced an improper witness")
        with open(args.cert, "w", encoding="utf-8") as fh:
            save_coloring(result.witness, fh)
        report["certificate"] = args.cert
    _emit(report, args.json)
    return 0 if result.decision else 1


def cmd_bounds(args: argparse.Namespace) -> int:
    from .bounds import chromatic_bounds

    g, digest = _read_graph(args.graph)
    result = chromatic_bounds(g)
    report = {
        "command": "bounds",
        "input": args.graph,
        "input_sha256": digest,
        "lower": result.lower,
        "upper": result.upper,
        "lower_witness": result.lower_witness,
    }
    if args.cert:
        with open(args.cert, "w", encoding="utf-8") as fh:
            save_coloring(result.upper_witness, fh)
        report["certificate"] = args.cert
    _emit(report, args.json)
    return 0


def cmd_params(args: argparse.Namespace) -> int:
    from . import partitions

    g, digest = _read_graph(args.graph)
    report = {
        "command": "params",
        "input": args.graph,
        "input_sha256": digest,
        "n": g.n,
        "edges": len(g.edges),
        "arcs": len(g.arcs),
        "ndm": len(partitions.mixed_neighborhood_partition(g)),
        "ndm_closure": len(partitions.closure_neighborhood_partition(g)),
        "ndu": len(partitions.undirected_neighborhood_partition(g)),
        "vc": partitions.vertex_cover_number(g)[0],
        "omega": partitions.clique_number(g),
        "maxrank": maxrank(g),
        "layers": len(layering(g).layers),
    }
    _emit(report, args.json)
    return 0


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def cmd_gen(args: argparse.Namespace) -> int:
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

    report: dict[str, object] = {"command": "gen"}
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
        report["family"] = name
    elif name == "random":
        if len(params) != 3:
            raise MixedColorError("random takes: n edge_p arc_p")
        g = random_mixed_graph(random.Random(args.seed), int(params[0]), float(params[1]), float(params[2]))
        report.update(family="random", seed=args.seed)
    elif name == "superstring":
        inst = SuperstringInstance(tuple(spec["strings"]), int(spec["k"]))
        g, k = reduce_superstring(inst, split=args.split)
        report.update(reduction="superstring", k=k)
    elif name == "scheduling":
        inst = SchedulingInstance(
            tuple(spec["tasks_m1"]),
            tuple(spec["tasks_m2"]),
            tuple((a, b) for a, b in spec.get("precedence", [])),
            int(spec["deadline"]),
        )
        g, k = reduce_scheduling(inst)
        report.update(reduction="scheduling", k=k)
    elif name == "list_coloring":
        base = mixed_graph(int(spec["n"]), [tuple(e) for e in spec.get("edges", [])])
        lists = {int(v): frozenset(cs) for v, cs in spec["lists"].items()}
        inst = ListColoringInstance(base, lists, int(spec["num_colors"]))
        g, k = reduce_list_coloring(inst)
        report.update(reduction="list_coloring", k=k)
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
        report.update(reduction="multicolored_clique", out=args.out)
        _emit(report, args.json)
        return 0
    else:
        raise MixedColorError(f"unknown generator {name!r}")
    with open(args.out, "w", encoding="utf-8") as fh:
        save_graph(g, fh)
    report.update(out=args.out, n=g.n, edges=len(g.edges), arcs=len(g.arcs))
    _emit(report, args.json)
    return 0


def cmd_expr(args: argparse.Namespace) -> int:
    from .expressions import (
        evaluate,
        format_expression,
        ndm_expression,
        parse_expression,
        tc_expression,
        width,
    )

    report: dict[str, object] = {"command": f"expr-{args.action}"}
    if args.action == "from-ndm":
        expr = ndm_expression(_read_graph(args.source)[0])
    else:
        with open(args.source, "r", encoding="utf-8") as fh:
            expr = parse_expression(fh.read())
    if args.action == "eval":
        g = evaluate(expr).graph
        report.update(width=width(expr), n=g.n, edges=len(g.edges), arcs=len(g.arcs))
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                save_graph(g, fh)
            report["out"] = args.out
    else:
        if args.action == "tc":
            expr = tc_expression(expr)
        report["width"] = width(expr)
        text = format_expression(expr)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            report["out"] = args.out
        else:
            sys.stdout.write(text + "\n")
    _emit(report, args.json)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .bounds import check_proper

    g, _ = _read_graph(args.graph)
    with open(args.cert, "r", encoding="utf-8") as fh:
        coloring = load_coloring(fh)
    # a certificate that misses a vertex or colors a non-vertex is rejected
    # like an improper one, by its smallest missing vertex, else its smallest extra
    missing = [v for v in g.vertices if v not in coloring.colors]
    extra = sorted(v for v in coloring.colors if not 1 <= v <= g.n)
    if missing or extra:
        ok, violation = False, f"missing({missing[0]})" if missing else f"extra({extra[0]})"
    else:
        ok, found = check_proper(g, coloring)
        violation = None if ok else "%s(%d,%d)" % found
    report = {
        "command": "verify",
        "input": args.graph,
        "certificate": args.cert,
        "proper": "yes" if ok else "no",
        "colors": coloring.num_colors(),
    }
    if violation:
        report["violation"] = violation
    _emit(report, args.json)
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
    p.add_argument("--k", type=_non_negative_int, default=None)
    p.add_argument("--method", choices=METHODS, default="branch")
    p.add_argument("--td", default=None, help="tree decomposition file (PACE .td; needs --method twdp)")
    p.add_argument("--cert", default=None, help="write the witness coloring here")
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_NODE_BUDGET,
                   help="work budget of every method's search, its bracket's too (default %(default)s)")
    p.add_argument("--dump-ilp", action="store_true",
                   help="print the rows the ndm route searches per preorder (needs --k, --method ndm)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser(
        "bounds", help="the ascent's chromatic bracket, with a schedule or search coloring as upper witness"
    )
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
