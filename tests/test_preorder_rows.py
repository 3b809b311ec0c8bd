"""The row builder of the ndm route against named reference programs.

``reference_program`` restates the covering program by brute force over
submasks: per interval one count per maximal independent set of the active
classes, and per class one covering row. ``preorder_program`` must emit
exactly the rows that compiling it gives, and searching those rows must take
the same nodes as solving the named program. ``exact_count_program`` is the
program the route searched before, with one count per independent subset and
an exact count per class; it serves as the oracle that the covering rows
keep every decision. ``reference_screen`` restates the clique screen over
brute-force maximal cliques. Examples are derandomized so every run of the
suite sees the same structures.
"""

import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedcolor import maximal_proper_preorders, solve_feasibility
from mixedcolor.bounds import check_proper
from mixedcolor.feasibility import EQ, LE, Constraint, FeasibilityProgram, Rows, search
from mixedcolor.graphs import mixed_graph
from mixedcolor.solvers import (
    ClassStructure,
    _Subsets,
    class_structure,
    clique_screen,
    ndm_fpt_decide,
    ndm_programs,
    preorder_program,
)

from subgraphs import scanned
from test_feasibility import programs

PROPERTY = settings(max_examples=200)


def _independent_submasks(pre, m, class_edges, i):
    """Each nonempty submask of the classes active in interval i without a class edge."""
    active = sum(1 << c for c in range(m) if pre.p_minus[c] <= i < pre.p_plus[c])
    conflict = [0] * m
    for pair in class_edges:
        a, b = sorted(pair)
        conflict[a] |= 1 << b
        conflict[b] |= 1 << a
    return [
        s for s in range(1, active + 1)
        if s & ~active == 0 and not any(conflict[b] & s for b in range(m) if s >> b & 1)
    ]


def _interval_rows(ell, masks_by_interval):
    constraints = []
    for i in range(1, ell):
        constraints.append(Constraint(((("c", i), 1), (("c", i + 1), -1)), LE, -1))
        coeffs = [(("x", i, mask), 1) for mask in masks_by_interval[i]]
        coeffs += [(("c", i + 1), -1), (("c", i), 1)]
        constraints.append(Constraint(tuple(coeffs), LE, 0))
    return constraints


def _counts(c, span, masks_by_interval, coef):
    return tuple((("x", i, mask), coef) for i in span for mask in masks_by_interval.get(i, []) if mask >> c & 1)


def reference_program(pre, sizes, class_edges, k):
    m, ell = len(sizes), pre.ell
    variables = [(("c", i), 1, k + 1) for i in range(1, ell + 1)]
    masks_by_interval = {}
    for i in range(1, ell):
        subs = _independent_submasks(pre, m, class_edges, i)
        masks = [s for s in subs if not any(s != t and s & t == s for t in subs)]
        masks_by_interval[i] = masks
        for mask in masks:
            top = max(sizes[b] for b in range(m) if mask >> b & 1)
            variables.append((("x", i, mask), 0, min(k, top)))
    constraints = _interval_rows(ell, masks_by_interval)
    for c in range(m):
        span = range(pre.p_minus[c], pre.p_plus[c])
        constraints.append(Constraint(_counts(c, span, masks_by_interval, -1), LE, -sizes[c]))
    return FeasibilityProgram(tuple(variables), tuple(constraints))


def exact_count_program(pre, sizes, class_edges, k):
    m, ell = len(sizes), pre.ell
    variables = [(("c", i), 1, k + 1) for i in range(1, ell + 1)]
    masks_by_interval = {}
    for i in range(1, ell):
        masks = _independent_submasks(pre, m, class_edges, i)
        masks_by_interval[i] = masks
        variables += [(("x", i, mask), 0, k) for mask in masks]
    constraints = _interval_rows(ell, masks_by_interval)
    for c in range(m):
        span = range(pre.p_minus[c], pre.p_plus[c])
        constraints.append(Constraint(_counts(c, span, masks_by_interval, 1), EQ, sizes[c]))
    return FeasibilityProgram(tuple(variables), tuple(constraints))


@st.composite
def class_structures(draw, max_m=5):
    """Class sizes, class edges and acyclic class arcs."""
    m = draw(st.integers(1, max_m))
    sizes = tuple(draw(st.lists(st.integers(1, 3), min_size=m, max_size=m)))
    rank = draw(st.permutations(range(m)))
    edges, arcs = set(), set()
    for i, j in combinations(range(m), 2):
        kind = draw(st.sampled_from(("none", "edge", "arc")))
        if kind == "edge":
            edges.add(frozenset((i, j)))
        elif kind == "arc":
            arcs.add((i, j) if rank[i] < rank[j] else (j, i))
    return sizes, frozenset(edges), frozenset(arcs)


def fields(rows):
    return rows.names, rows.lo, rows.hi, rows.rows, rows.rhs, rows.watch


@PROPERTY
@given(class_structures())
def test_builder_emits_the_compiled_reference(structure):
    sizes, edges, arcs = structure
    subsets = _Subsets(len(sizes), edges)
    for n_pre, pre in enumerate(maximal_proper_preorders(len(sizes), arcs)):
        if n_pre == 4:
            break
        for k in range(1, 7):
            built = preorder_program(pre, sizes, subsets, k)
            reference = reference_program(pre, sizes, edges, k)
            assert fields(built) == fields(Rows.compile(reference))

            named, searched = {}, {}
            assignment = solve_feasibility(reference, stats=named)
            values = search(built, stats=searched)
            assert named["nodes"] == searched["nodes"]
            assert assignment == (None if values is None else dict(zip(built.names, values)))


@PROPERTY
@given(class_structures())
def test_covering_rows_decide_as_exact_counts(structure):
    sizes, edges, arcs = structure
    subsets = _Subsets(len(sizes), edges)
    for pre in maximal_proper_preorders(len(sizes), arcs):
        for k in range(1, 7):
            covering = search(preorder_program(pre, sizes, subsets, k)) is not None
            exact = solve_feasibility(exact_count_program(pre, sizes, edges, k)) is not None
            assert covering == exact, (pre, k)


@PROPERTY
@given(class_structures(max_m=6), st.integers(2, 12))
def test_bounded_enumeration_is_the_filtered_one(structure, max_ell):
    sizes, _, arcs = structure
    every = list(maximal_proper_preorders(len(sizes), arcs))
    assert list(maximal_proper_preorders(len(sizes), arcs, max_ell)) == [pre for pre in every if pre.ell <= max_ell]


def reference_chain_weight(sizes, arcs):
    """The chain bound as the route first computed it: on a validated class DAG."""
    dag = mixed_graph(len(sizes), arcs=[(i + 1, j + 1) for i, j in arcs])
    ins, _, _ = scanned(dag)
    best = [0] * (dag.n + 1)
    for c in dag.order:
        best[c] = sizes[c - 1] + max((best[p] for p in ins[c]), default=0)
    return max(best)


@PROPERTY
@given(class_structures(max_m=8))
def test_chain_weight_bound_matches_the_class_dag(structure):
    sizes, edges, arcs = structure
    assert structure_of(sizes, edges, arcs).chain_weight == reference_chain_weight(sizes, arcs)


def reference_screen(pre, sizes, class_edges, k):
    """The first maximal clique of the class edges, by class mask, whose summed size s plus
    one color per interval its spans miss exceeds k, as (mask, s, the intervals they cover)."""
    m = len(sizes)
    cliques = [
        set(q) for r in range(1, m + 1) for q in combinations(range(m), r)
        if all(frozenset(pair) in class_edges for pair in combinations(q, 2))
    ]
    maximal = sorted((sum(1 << c for c in q), q) for q in cliques if not any(q < other for other in cliques))
    for mask, q in maximal:
        size = sum(sizes[c] for c in q)
        covered = {i for c in q for i in range(pre.p_minus[c], pre.p_plus[c])}
        if size + pre.ell - 1 - len(covered) > k:
            return mask, size, len(covered)
    return None


def structure_of(sizes, edges, arcs):
    return ClassStructure(sizes, tuple((c,) for c in range(len(sizes))), (False,) * len(sizes), edges, arcs)


@PROPERTY
@given(class_structures())
def test_clique_screen_refutes_only_programs_without_solution(structure):
    sizes, edges, arcs = structure
    struct = structure_of(sizes, edges, arcs)
    for k in range(struct.chain_weight, sum(sizes) + 1):  # sum(sizes) colors always suffice
        for pre in maximal_proper_preorders(len(sizes), arcs, k + 1):
            refuted = clique_screen(pre, struct.cliques, k)
            assert refuted == reference_screen(pre, sizes, edges, k), (pre, k)
            if refuted:
                assert search(preorder_program(pre, sizes, struct.subsets, k)) is None, (pre, k)


def test_clique_screen_refutes_both_preorders_of_ndm48_at_three_colors():
    # vertices 4 and 5 share an edge and both span only interval 2 of 3:
    # they need 2 colors there and the other two intervals one each, 4 > 3
    g = mixed_graph(
        8,
        [(1, 5), (1, 8), (2, 3), (2, 4), (2, 7), (2, 8), (3, 4), (4, 5), (5, 6)],
        [(1, 2), (3, 5), (4, 7), (4, 8), (5, 7), (6, 2), (6, 4), (6, 7), (6, 8)],
    )
    struct = class_structure(g)
    programs = list(ndm_programs(struct, 3))
    assert len(programs) == 2 and all(prog is None for _, prog in programs)
    assert [clique_screen(pre, struct.cliques, 3) for pre, _ in programs] == [(0b11000, 2, 1)] * 2
    result = ndm_fpt_decide(g, 3)
    assert not result.decision
    assert (result.stats["preorders"], result.stats["feasibility_nodes"]) == (2, 0)


@pytest.mark.parametrize("m", [8, 12, 16])
def test_disjoint_arcs_take_one_preorder_at_two_colors(m):
    g = mixed_graph(2 * m, arcs=[(2 * i + 1, 2 * i + 2) for i in range(m)])
    started = time.perf_counter()
    result = ndm_fpt_decide(g, 2, budget=1000)
    assert time.perf_counter() - started < 1
    assert result.decision and result.stats["preorders"] == 1
    assert check_proper(g, result.witness)[0] and result.witness.max_color() <= 2


@PROPERTY
@given(programs(max_vars=4))
def test_leaves_are_checked_against_every_row(program):
    # with a propagator that never prunes, only the leaf check keeps an
    # assignment that breaks a row from being returned
    prog = Rows.compile(program)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Rows, "propagate", lambda self, lo, hi, seeds: True)
        values = search(prog)
    assert (values is None) == (solve_feasibility(program) is None)
    if values is not None:
        assert program.check(dict(zip(prog.names, values)))
