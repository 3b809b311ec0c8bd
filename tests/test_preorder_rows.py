"""The row builder of the ndm route against a named reference program.

``reference_program`` restates the tuple-named program builder the route
used before it built rows directly, loop for loop. ``preorder_program`` must
emit exactly the rows that compiling the reference gives, and searching
those rows must take the same nodes as solving the named program. Examples
are derandomized so every run of the suite sees the same structures.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedcolor import maximal_proper_preorders, solve_feasibility
from mixedcolor.feasibility import EQ, LE, Constraint, FeasibilityProgram, Rows, search
from mixedcolor.solvers import _Subsets, preorder_program

from test_feasibility import programs

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)


def reference_program(pre, sizes, class_edges, k):
    m = len(sizes)
    ell = pre.ell
    conflict = [0] * m
    for pair in class_edges:
        i, j = sorted(pair)
        conflict[i] |= 1 << j
        conflict[j] |= 1 << i

    def independent(mask):
        return not any(conflict[b] & mask for b in range(m) if mask >> b & 1)

    variables = [(("c", i), 1, k + 1) for i in range(1, ell + 1)]
    masks_by_interval = {}
    for i in range(1, ell):
        active = sum(1 << c for c in range(m) if pre.p_minus[c] <= i < pre.p_plus[c])
        masks = [s for s in range(1, active + 1) if s & ~active == 0 and independent(s)]
        masks_by_interval[i] = masks
        variables += [(("x", i, mask), 0, k) for mask in masks]
    constraints = []
    for i in range(1, ell):
        constraints.append(Constraint(((("c", i), 1), (("c", i + 1), -1)), LE, -1))
        coeffs = [(("x", i, mask), 1) for mask in masks_by_interval[i]]
        coeffs += [(("c", i + 1), -1), (("c", i), 1)]
        constraints.append(Constraint(tuple(coeffs), LE, 0))

    def counts(c, intervals):
        return tuple(
            (("x", i, mask), 1)
            for i in intervals
            for mask in masks_by_interval.get(i, [])
            if mask >> c & 1
        )

    for c in range(m):
        constraints.append(Constraint(counts(c, range(pre.p_minus[c], pre.p_plus[c])), EQ, sizes[c]))
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
