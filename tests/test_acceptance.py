"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print; every criterion collects its violations first, prints its verdict,
then asserts.
"""

import itertools
import random
import time

from mixedcolor import (
    Constraint,
    FeasibilityProgram,
    ListColoringInstance,
    SchedulingInstance,
    SuperstringInstance,
    branching_chi,
    branching_decide,
    brute_force_chi,
    brute_force_decide,
    check_proper,
    chi_exact,
    clique_number,
    corresponding_digraph,
    directed_path_expression,
    evaluate,
    evaluate_arcs,
    family_grid_arc_vertices,
    family_grid_hamiltonian,
    family_hamiltonian_tournament,
    family_layered_cliques,
    family_oriented_grid,
    family_oriented_star,
    family_tripartite,
    layering_coloring,
    list_coloring_exists,
    maxrank,
    mixed_graph,
    mixed_to_directed,
    multicolored_clique_exists,
    ndm,
    ndm_expression,
    ndm_introduce_order,
    ndu,
    random_mixed_graph,
    reduce_list_coloring,
    reduce_multicolored_clique,
    reduce_scheduling,
    reduce_superstring,
    schedule_exists,
    solve_feasibility,
    superstring_exists,
    tournament_expression,
    transitive_closure,
    tc_expression,
    tw_dp_decide,
    vc_coloring,
    vertex_cover_number,
    width,
)
from mixedcolor.errors import UnsupportedClosureExpression
from mixedcolor.feasibility import EQ, LE
from mixedcolor.graphs import normalize_edge
from mixedcolor.treedecomp import make_nice, min_fill_decomposition

from conftest import graph_corpus
from subgraphs import induced_subgraph


def verdict(number: str, description: str, failures: list) -> None:
    status = "PASS" if not failures else f"FAIL ({len(failures)} violations)"
    print(f"[acceptance] criterion {number} {description}: {status}")
    assert not failures, failures[:5]


def directed_path(length):
    return mixed_graph(length + 1, arcs=[(i, i + 1) for i in range(1, length + 1)])


def relabel_to(g, order):
    remap = {i + 1: order[i] for i in range(g.n)}
    edges = frozenset(normalize_edge(remap[u], remap[v]) for u, v in g.edges)
    arcs = frozenset((remap[u], remap[v]) for u, v in g.arcs)
    return mixed_graph(g.n, edges, arcs)


def test_criterion_1_oracle_equivalence():
    failures = []
    corpus = graph_corpus(200, 8)
    started = time.perf_counter()
    for idx, g in enumerate(corpus):
        chi_brute, witness = brute_force_chi(g)
        if g.n and not check_proper(g, witness)[0]:
            failures.append((idx, "improper brute witness"))
        for method in ("twdp", "ndm", "branch"):
            chi_m, w = chi_exact(g, method)
            if chi_m != chi_brute:
                failures.append((idx, method, chi_m, chi_brute))
            elif g.n and (not check_proper(g, w)[0] or w.max_color() > chi_m):
                failures.append((idx, method, "bad witness"))
    elapsed = time.perf_counter() - started
    if elapsed > 300:
        failures.append(("runtime", elapsed))
    verdict("1", f"oracle equivalence on {len(corpus)} graphs in {elapsed:.1f}s", failures)


def test_criterion_2_reference_instances():
    failures = []
    fig2a, _ = reduce_superstring(SuperstringInstance(("01", "100", "11"), 4))
    chi, _ = brute_force_chi(fig2a)
    if chi != 4:
        failures.append(("superstring figure chi", chi))
    if not superstring_exists(("01", "100", "11"), 4):
        failures.append("no length-4 supersequence found")
    fig4, k = reduce_scheduling(
        SchedulingInstance(("t1",), ("t2", "t3"), (("t1", "t3"),), 2)
    )
    result = branching_decide(fig4, 8)
    if k != 8 or not result.decision or not check_proper(fig4, result.witness)[0]:
        failures.append("scheduling figure not 8-colorable")
    tight, k1 = reduce_scheduling(
        SchedulingInstance(("t1",), ("t2", "t3"), (("t1", "t3"),), 1)
    )
    if k1 != 4 or branching_decide(tight, 4).decision:
        failures.append("deadline-1 variant unexpectedly 4-colorable")
    verdict("2", "reference supersequence/scheduling instances", failures)


def test_criterion_3_layering_tightness():
    failures = []
    for ell in (1, 2, 3):
        for k in (1, 2, 3):
            g = family_layered_cliques(ell, k)
            chi, witness = branching_chi(g)
            if chi != (ell + 1) * k:
                failures.append((ell, k, "chi", chi))
            coloring = layering_coloring(g)
            if coloring.num_colors() != (ell + 1) * k:
                failures.append((ell, k, "layering colors", coloring.num_colors()))
            if not check_proper(g, coloring)[0]:
                failures.append((ell, k, "improper"))
    verdict("3", "layered-clique tightness", failures)


def test_criterion_4_vertex_cover_coloring():
    failures = []
    for ell in range(1, 7):
        g = directed_path(2 * ell)
        size, cover = vertex_cover_number(g)
        coloring = vc_coloring(g, cover)
        if size != ell or coloring.num_colors() != 2 * ell + 1:
            failures.append((ell, size, coloring.num_colors()))
        if not check_proper(g, coloring)[0]:
            failures.append((ell, "improper"))
    rng = random.Random(2024)
    checked = 0
    while checked < 100:
        n = rng.randint(1, 10)
        g = random_mixed_graph(rng, n, rng.random() * 0.5, rng.random() * 0.4)
        size, cover = vertex_cover_number(g)
        if size > 6:
            continue
        checked += 1
        coloring = vc_coloring(g, cover)
        if coloring.max_color() > 2 * size + 1:
            failures.append((checked, "bound", size, coloring.max_color()))
        if not check_proper(g, coloring)[0]:
            failures.append((checked, "improper"))
    verdict("4", "vertex-cover coloring bound", failures)


def test_criterion_5_parameter_inequalities():
    failures = []
    instances = []
    for ell in (2, 3, 4):
        instances.append(family_oriented_grid(ell))
        instances.append(family_grid_arc_vertices(ell))
    for ell in (1, 2, 3, 4):
        instances.append(family_hamiltonian_tournament(ell))
        instances.append(family_tripartite(ell))
        instances.append(family_oriented_star(ell))
        instances.append(family_grid_hamiltonian(ell))
    for ell in (0, 1, 2, 3, 4):
        for k in (1, 2, 3):
            instances.append(family_layered_cliques(ell, k))
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(1, 10)
        instances.append(random_mixed_graph(rng, n, rng.random() * 0.7, rng.random() * 0.5))
    for idx, g in enumerate(instances):
        nd_mixed = ndm(g)
        nd_und = ndu(g)
        vc, _ = vertex_cover_number(g)
        rank = maxrank(g)
        closure_ndm = ndm(transitive_closure(g))
        if nd_und > nd_mixed:
            failures.append((idx, "ndu>ndm"))
        if nd_mixed > vc + 4**vc:
            failures.append((idx, "ndm>vc+4^vc"))
        if closure_ndm > nd_mixed:
            failures.append((idx, "closure ndm grew"))
        if g.n and rank + 1 > closure_ndm:
            failures.append((idx, "maxrank+1>ndm+"))
        if rank > 2 * vc:
            failures.append((idx, "maxrank>2vc"))
    for ell in range(1, 7):
        if ndm(directed_path(ell)) < ell + 1:
            failures.append(("path", ell))
    for ell in (1, 2, 3, 4):
        g = family_tripartite(ell)
        if ndm(g) != 2 * ell + 4 or ndm(transitive_closure(g)) != 6:
            failures.append(("tripartite", ell))
        h = family_hamiltonian_tournament(ell)
        if ndu(h) != 1 or ndm(h) != ell:
            failures.append(("hamiltonian tournament", ell))
    verdict("5", f"parameter inequalities on {len(instances)} graphs", failures)


def test_criterion_6_reduction_equivalences():
    failures = []
    rng = random.Random(606)

    # supersequence reduction
    checked = 0
    while checked < 50:
        strings = tuple(
            "".join(rng.choice("01") for _ in range(rng.randint(1, 4)))
            for _ in range(rng.randint(1, 3))
        )
        if sum(len(s) for s in strings) > 8:
            continue
        k = rng.randint(1, 6)
        checked += 1
        g, _ = reduce_superstring(SuperstringInstance(strings, max(k, 1)))
        reduction = brute_force_decide(g, k) is not None
        oracle = superstring_exists(strings, k)
        if reduction != oracle:
            failures.append(("superstring", strings, k))

    # scheduling reduction
    checked = 0
    while checked < 50:
        n_tasks = rng.randint(0, 4)
        names = [f"t{i}" for i in range(n_tasks)]
        cut = rng.randint(0, n_tasks)
        pairs = tuple(
            (a, b) for a, b in itertools.combinations(names, 2) if rng.random() < 0.35
        )
        deadline = rng.randint(1, 3)
        try:
            inst = SchedulingInstance(tuple(names[:cut]), tuple(names[cut:]), pairs, deadline)
        except ValueError:
            continue
        checked += 1
        g, k = reduce_scheduling(inst)
        if branching_decide(g, k).decision != schedule_exists(inst):
            failures.append(("scheduling", inst))

    # list-coloring reduction
    for i in range(50):
        n = rng.randint(1, 6)
        base = random_mixed_graph(rng, n, 0.55, 0.0)
        ell = rng.randint(2, 4)
        lists = {
            v: frozenset(rng.sample(range(1, ell + 1), rng.randint(1, ell)))
            for v in base.vertices
        }
        inst = ListColoringInstance(base, lists, ell)
        g, k = reduce_list_coloring(inst)
        got = tw_dp_decide(g, make_nice(min_fill_decomposition(g)), k).decision
        if got != list_coloring_exists(inst):
            failures.append(("list", i))

    # multicolored clique reduction
    for i in range(50):
        n = rng.randint(3, 8)
        g = random_mixed_graph(rng, n, rng.random() * 0.8, 0.0)
        ids = list(g.vertices)
        rng.shuffle(ids)
        a = rng.randint(1, n - 2)
        b = rng.randint(a + 1, n - 1)
        classes = (frozenset(ids[:a]), frozenset(ids[a:b]), frozenset(ids[b:]))
        inst = reduce_multicolored_clique(g, classes)
        if list_coloring_exists(inst) != multicolored_clique_exists(g, classes):
            failures.append(("clique", i))

    # structural checks tied to the reductions
    for strings, k in ((("01", "100", "11"), 4), (("010", "11"), 3)):
        inst = SuperstringInstance(strings, k)
        split, _ = reduce_superstring(inst, split=True)
        if maxrank(split) != 1:
            failures.append(("split maxrank", strings))
        plain, _ = reduce_superstring(inst)
        want = brute_force_decide(plain, k) is not None
        got = tw_dp_decide(split, make_nice(min_fill_decomposition(split)), k).decision
        if want != got:
            failures.append(("split agreement", strings))
    # exactly eight undirected types in the closure needs both machines
    # in use and either D >= 2 or two tasks per machine, otherwise a path
    # slot can merge with the lone task of its residue
    for inst in (
        SchedulingInstance(("t1",), ("t2", "t3"), (("t1", "t3"),), 2),
        SchedulingInstance(("a", "b"), ("c",), (), 2),
        SchedulingInstance(("a", "b"), ("c", "d"), (("a", "d"),), 1),
        SchedulingInstance(("a",), ("b",), (), 3),
    ):
        g, _ = reduce_scheduling(inst)
        if ndu(transitive_closure(g)) != 8:
            failures.append(("pcs closure ndu", inst))
    verdict("6", "reduction equivalences (50 instances each)", failures)


def test_criterion_7_expression_suite():
    failures = []
    path_expr = directed_path_expression(4)
    if evaluate(path_expr).graph != directed_path(4):
        failures.append("three-label expression is not the length-4 path")
    if width(path_expr) != 3:
        failures.append("path expression width")
    for n in range(1, 9):
        expr = tournament_expression(n)
        g = evaluate(expr).graph
        expected_arcs = frozenset(
            (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
        )
        if g.arcs != expected_arcs or width(expr) > 2:
            failures.append(("tournament", n))

    corpus = [g for g in graph_corpus(200, 8) if g.n]
    for idx, g in enumerate(corpus):
        expr = ndm_expression(g)
        if width(expr) > ndm(g) + 1:
            failures.append(("ndm width", idx))
        if relabel_to(evaluate(expr).graph, ndm_introduce_order(g)) != g:
            failures.append(("ndm round trip", idx))

    # closure transformation on width <= 3 expressions
    rng = random.Random(515)
    supported = 0
    unsupported = 0
    pool = [directed_path_expression(i) for i in range(1, 7)]
    pool += [tournament_expression(n) for n in range(2, 7)]
    from test_expressions import random_expressions

    pool += random_expressions(40, seed=515)
    for expr in pool:
        try:
            closed = tc_expression(expr)
        except UnsupportedClosureExpression:
            unsupported += 1
            continue
        if evaluate(closed).graph != transitive_closure(evaluate(expr).graph):
            failures.append(("tc mismatch",))
        supported += 1
    if supported < 30:
        failures.append(("too few supported closure expressions", supported))

    # arc-only conversion everywhere in the expression corpus (compared in
    # the shared evaluation numbering)
    for idx, g in enumerate(corpus[:80]):
        expr = ndm_expression(g)
        directed = mixed_to_directed(expr)
        n, arcs = evaluate_arcs(directed)
        evaluated = evaluate(expr).graph
        if width(directed) != width(expr) or arcs != corresponding_digraph(evaluated):
            failures.append(("mixed_to_directed", idx))
    verdict(
        "7",
        f"expression suite ({supported} closure expressions, {unsupported} unsupported)",
        failures,
    )


def test_criterion_8_branching_fanout():
    failures = []
    nodes_checked = 0
    for g in graph_corpus(200, 8):
        if g.n == 0:
            continue
        log: list = []
        branching_chi(g, fanout_log=log)
        for remaining, count in log:
            sub, _ = induced_subgraph(g, remaining)
            bound = (clique_number(sub) + 1) ** ndu(sub)
            nodes_checked += 1
            if count > bound:
                failures.append((sorted(remaining), count, bound))
    verdict("8", f"branching fan-out bound on {nodes_checked} nodes", failures)


def test_criterion_9_feasibility_vs_enumeration():
    failures = []
    rng = random.Random(909)
    for trial in range(500):
        if trial % 5 == 0:
            nvars = rng.randint(8, 12)
            domains = [(0, 1) for _ in range(nvars)]
        else:
            nvars = rng.randint(1, 6)
            domains = []
            budget = 200_000
            for _ in range(nvars):
                lo = rng.randint(-4, 4)
                size = rng.randint(1, 10)
                while size > 1 and budget // size < 1:
                    size -= 1
                budget //= size
                domains.append((lo, lo + size - 1))
        variables = tuple((f"v{i}", lo, hi) for i, (lo, hi) in enumerate(domains))
        constraints = []
        for _ in range(rng.randint(0, 5)):
            picked = rng.sample(range(len(domains)), rng.randint(1, len(domains)))
            coeffs = tuple(
                (f"v{i}", rng.choice((-3, -2, -1, 1, 2, 3))) for i in picked
            )
            constraints.append(
                Constraint(coeffs, rng.choice((LE, EQ)), rng.randint(-10, 12))
            )
        program = FeasibilityProgram(variables, tuple(constraints))
        names = [name for name, _, _ in variables]
        expected = any(
            program.check(dict(zip(names, values)))
            for values in itertools.product(
                *(range(lo, hi + 1) for _, lo, hi in variables)
            )
        )
        got = solve_feasibility(program)
        if (got is not None) != expected:
            failures.append((trial, expected))
        elif got is not None and not program.check(got):
            failures.append((trial, "unsound assignment"))
    verdict("9", "feasibility solver vs exhaustive enumeration (500 programs)", failures)
