"""Bounded-integer feasibility: propagation and complete search."""

import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedcolor import Constraint, FeasibilityProgram, propagate_bounds, solve_feasibility
from mixedcolor.errors import BudgetExceeded
from mixedcolor.feasibility import EQ, LE, search


def program(variables, constraints):
    return FeasibilityProgram(tuple(variables), tuple(constraints))


class TestSolve:
    def test_single_variable_equality(self):
        p = program([("v", 1, 3)], [Constraint((("v", 1),), EQ, 2)])
        assert solve_feasibility(p) == {"v": 2}

    def test_infeasible_bound(self):
        p = program([("v", 1, 1)], [Constraint((("v", -1),), LE, -2)])
        assert solve_feasibility(p) is None

    def test_returned_assignment_satisfies_program(self):
        p = program(
            [("a", 0, 5), ("b", 0, 5), ("c", 0, 5)],
            [
                Constraint((("a", 1), ("b", 1), ("c", 1)), EQ, 7),
                Constraint((("a", 1), ("b", -1)), LE, 1),
                Constraint((("c", 2),), LE, 6),
            ],
        )
        out = solve_feasibility(p)
        assert out is not None and p.check(out)

    def test_budget(self):
        variables = [(f"v{i}", 0, 9) for i in range(8)]
        cons = [Constraint(tuple((f"v{i}", 1) for i in range(8)), EQ, 36)]
        with pytest.raises(BudgetExceeded):
            solve_feasibility(program(variables, cons), budget=2)

    def test_zero_coefficient(self):
        p = program([("a", 0, 3), ("b", 0, 3)], [Constraint((("a", 1), ("b", 0)), LE, 2)])
        assert solve_feasibility(p) == {"a": 0, "b": 0}
        bounds = {name: (lo, hi) for name, lo, hi in propagate_bounds(p).variables}
        assert bounds == {"a": (0, 2), "b": (0, 3)}

    def test_deep_search_is_iterative(self):
        n = 1200
        variables = [(f"v{i:04d}", 0, 1) for i in range(n)]
        cons = [Constraint(tuple((name, 1) for name, _, _ in variables), LE, n)]
        stats = {}
        out = solve_feasibility(program(variables, cons), stats=stats)
        assert out == {name: 0 for name, _, _ in variables}
        assert stats["nodes"] == n + 1


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Constraint((("v", 1),), "<", 2), "unknown relation '<'"),
        (lambda: program([("v", 0, 1), ("v", 0, 2)], []), "duplicate variable 'v'"),
        (lambda: program([("v", 0, 1)], [Constraint((("w", 1),), LE, 1)]), "constraint uses unknown variable 'w'"),
        (lambda: program([("v", 0, 1)], [Constraint((("v", 0.5),), LE, 1)]), "coefficients must be integral"),
    ],
)
def test_malformed_programs_are_rejected(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_values_outside_the_bounds_are_rejected():
    p = program([("v", 0, 3), ("w", 0, 3)], [Constraint((("v", 1), ("w", 1)), LE, 4)])
    assert p.check({"v": 1, "w": 3})
    assert not p.check({"v": 1}) and not p.check({"v": 1, "w": 4})
    assert search(program([("v", 2, 1)], []).rows) is None  # an empty domain, before any node


class TestPropagation:
    def test_joint_infeasibility(self):
        p = program(
            [("v1", 2, 5), ("v2", 2, 5)],
            [Constraint((("v1", 1), ("v2", 1)), LE, 3)],
        )
        assert propagate_bounds(p) is None

    def test_interval_tightening(self):
        p = program(
            [("v1", 1, 9), ("v2", 1, 9)],
            [Constraint((("v1", 1), ("v2", -1)), LE, -1)],
        )
        tightened = propagate_bounds(p)
        bounds = {name: (lo, hi) for name, lo, hi in tightened.variables}
        assert bounds == {"v1": (1, 8), "v2": (2, 9)}

    def test_no_constraints_unchanged(self):
        p = program([("v", 3, 7)], [])
        assert propagate_bounds(p) == p

    def test_idempotent(self):
        p = program(
            [("a", 0, 9), ("b", 0, 9)],
            [
                Constraint((("a", 1), ("b", 1)), LE, 7),
                Constraint((("a", 1), ("b", -2)), EQ, 1),
            ],
        )
        once = propagate_bounds(p)
        assert propagate_bounds(once) == once

    def test_never_removes_satisfying_values(self):
        rng = random.Random(11)
        for _ in range(80):
            p = _random_program(rng, max_vars=4, max_domain=5)
            solutions = _enumerate(p)
            tightened = propagate_bounds(p)
            if tightened is None:
                assert not solutions
                continue
            bounds = {name: (lo, hi) for name, lo, hi in tightened.variables}
            for sol in solutions:
                assert all(bounds[n][0] <= v <= bounds[n][1] for n, v in sol.items())


def _random_program(rng, max_vars=5, max_domain=6, max_cons=4):
    nvars = rng.randint(1, max_vars)
    variables = []
    for i in range(nvars):
        lo = rng.randint(-3, 3)
        hi = lo + rng.randint(0, max_domain - 1)
        variables.append((f"v{i}", lo, hi))
    cons = []
    for _ in range(rng.randint(0, max_cons)):
        picked = rng.sample(range(nvars), rng.randint(1, nvars))
        coeffs = tuple((f"v{i}", rng.choice((-3, -2, -1, 1, 2, 3))) for i in picked)
        op = rng.choice((LE, EQ))
        rhs = rng.randint(-8, 10)
        cons.append(Constraint(coeffs, op, rhs))
    return program(variables, cons)


def _enumerate(p):
    names = [name for name, _, _ in p.variables]
    domains = [range(lo, hi + 1) for _, lo, hi in p.variables]
    out = []
    for values in itertools.product(*domains):
        assignment = dict(zip(names, values))
        if p.check(assignment):
            out.append(assignment)
    return out


class TestAgainstEnumeration:
    def test_agreement(self):
        rng = random.Random(5)
        for _ in range(150):
            p = _random_program(rng)
            expected = bool(_enumerate(p))
            got = solve_feasibility(p)
            assert (got is not None) == expected
            if got is not None:
                assert p.check(got)


# ---------------------------------------------------------------------------
# property tests against a reference engine
#
# The reference is the full-sweep propagator and recursive search the package
# used before rows were compiled, kept here unchanged except that zero
# coefficients are skipped (the original divided by them). Both engines reach
# the same interval-consistency fixpoint at every node, so they must agree on
# the tightened bounds, on every decision and on the number of search nodes.
# Examples are derandomized so every run of the suite sees the same programs.
# ---------------------------------------------------------------------------

PROPERTY = settings(max_examples=300)


def reference_propagate(bounds, constraints):
    """Sweep every row until no bound moves; False if infeasible."""
    rows = []
    for con in constraints:
        rows.append((con.coeffs, con.rhs))
        if con.op == EQ:
            rows.append((tuple((n, -c) for n, c in con.coeffs), -con.rhs))
    changed = True
    while changed:
        changed = False
        for coeffs, rhs in rows:
            lo_sum = 0
            for name, coef in coeffs:
                lo, hi = bounds[name]
                lo_sum += coef * lo if coef > 0 else coef * hi
            if lo_sum > rhs:
                return False
            for name, coef in coeffs:
                if coef == 0:
                    continue
                lo, hi = bounds[name]
                others = lo_sum - (coef * lo if coef > 0 else coef * hi)
                slack = rhs - others
                if coef > 0:
                    new_hi = slack // coef
                    if new_hi < hi:
                        if new_hi < lo:
                            return False
                        bounds[name] = (lo, new_hi)
                        changed = True
                else:
                    new_lo = -(slack // -coef)
                    if new_lo > lo:
                        if new_lo > hi:
                            return False
                        bounds[name] = (new_lo, hi)
                        changed = True
    return True


def reference_solve(program):
    """Recursive search: smallest domain first (ties by str(name)), values ascending.

    Returns (assignment or None, node count).
    """
    bounds = {name: (lo, hi) for name, lo, hi in program.variables}
    if any(lo > hi for lo, hi in bounds.values()):
        return None, 0
    nodes = [0]

    def dfs(bounds):
        nodes[0] += 1
        if not reference_propagate(bounds, program.constraints):
            return None
        free = [(hi - lo, name) for name, (lo, hi) in bounds.items() if lo < hi]
        if not free:
            assignment = {name: lo for name, (lo, _) in bounds.items()}
            return assignment if program.check(assignment) else None
        _, pick = min(free, key=lambda t: (t[0], str(t[1])))
        lo, hi = bounds[pick]
        for value in range(lo, hi + 1):
            child = dict(bounds)
            child[pick] = (value, value)
            result = dfs(child)
            if result is not None:
                return result
        return None

    return dfs(dict(bounds)), nodes[0]


@st.composite
def programs(draw, max_vars=5):
    """Small programs with LE and EQ rows, negative, zero and repeated terms."""
    nvars = draw(st.integers(1, max_vars))
    # names in shuffled order and domain widths from a short list, so branching
    # often meets equal domains whose tie-break by str(name) is not position order
    names = [f"v{i}" for i in draw(st.permutations(range(nvars)))]
    widths = draw(st.lists(st.integers(0, 4), min_size=1, max_size=2))
    variables = []
    for name in names:
        lo = draw(st.integers(-3, 3))
        variables.append((name, lo, lo + draw(st.sampled_from(widths))))
    constraints = []
    for _ in range(draw(st.integers(0, 4))):
        picked = draw(st.lists(st.sampled_from(names), min_size=1, max_size=nvars + 1))
        coeffs = tuple((name, draw(st.integers(-3, 3))) for name in picked)
        constraints.append(Constraint(coeffs, draw(st.sampled_from((LE, EQ))), draw(st.integers(-8, 10))))
    return FeasibilityProgram(tuple(variables), tuple(constraints))


@PROPERTY
@given(programs())
def test_propagate_bounds_matches_reference(program):
    bounds = {name: (lo, hi) for name, lo, hi in program.variables}
    if reference_propagate(bounds, program.constraints):
        expected = tuple((name, *bounds[name]) for name, _, _ in program.variables)
    else:
        expected = None
    tightened = propagate_bounds(program)
    assert (tightened.variables if tightened is not None else None) == expected


@PROPERTY
@given(programs())
def test_search_matches_reference_and_enumeration(program):
    stats = {}
    got = solve_feasibility(program, stats=stats)
    expected, nodes = reference_solve(program)
    assert (got is None) == (expected is None) == (not _enumerate(program))
    assert stats["nodes"] == nodes
    assert got == expected
    if got is not None:
        assert program.check(got)
