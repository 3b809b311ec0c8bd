"""Property tests: the schedule coloring and the ascent it brackets.

``chi_exact`` answers with the schedule coloring's color count once every
smaller k is refuted, so the coloring must be proper and gap-free, every
route must accept its count, and every route must agree with the
brute-force oracle, on graphs where the schedule is optimal and where it is
not. Examples are derandomized so every run of the suite sees the same graphs.
"""

import heapq
import random

from hypothesis import example, given, settings

from mixedcolor import brute_force_chi, check_proper, chi_exact, mixed_graph, random_mixed_graph, schedule_coloring
from mixedcolor.bounds import bracket
from mixedcolor.errors import DEFAULT_NODE_BUDGET, BudgetExceeded
from mixedcolor.reductions import family_layered_cliques, family_oriented_grid
from mixedcolor.solvers import METHODS, ROUTES

from test_branching_properties import mixed_graphs

PROPERTY = settings(max_examples=150)

# chi 2; the schedule gives vertex 5 color 3, above 2's and beside 4's, and
# the reversed schedule closes the bracket at 2
UNSCHEDULED = mixed_graph(5, edges=[(1, 3), (1, 4), (4, 5)], arcs=[(2, 5)])
# chi 6, both schedules 7 colors, and the windows' propagation gives 5: the window
# search gives up on 5 past its 7 nodes, so where the bracket's budgeted search gave up
# too, every route would decide twice; the budgeted search closes it at 6
TWO_DECIDES = mixed_graph(
    7,
    edges=[(1, 3), (1, 5), (1, 6), (1, 7), (2, 3), (2, 4), (3, 4), (3, 5), (3, 6), (3, 7), (4, 5), (4, 7), (5, 7)],
    arcs=[(2, 5), (2, 7), (4, 1), (5, 6), (7, 6)],
)
# first k 4 on every route (the window search gives up on 3 past its 8 nodes, and
# the budgeted search refutes it), chi 4, both schedules 4 colors: no decide
BUDGETED = mixed_graph(
    8,
    edges=[(1, 3), (1, 5), (1, 8), (2, 5), (2, 6), (2, 7), (2, 8), (3, 7), (5, 7), (5, 8), (6, 8)],
    arcs=[(6, 3)],
)


def assert_routes_match_brute_force(g):
    chi = brute_force_chi(g)[0]
    for method in METHODS:
        stats = {}
        got, witness = chi_exact(g, method, stats=stats)
        assert got == chi
        assert check_proper(g, witness)[0]
        assert witness.num_colors() == chi
        # every route's bracket takes the reversed schedule where it is better, and the
        # search's coloring where the search finds one; that coloring has as many colors
        # as the lower end, so it closes the bracket at chi
        schedules = [schedule_coloring(g, reverse).num_colors() for reverse in (False, True)]
        searched = stats["upper"] != min(schedules)
        assert stats["first_k"] <= chi <= stats["upper"]
        assert not searched or stats["first_k"] == stats["upper"] == chi < min(schedules)
        assert stats["decides"] == min(chi + 1, stats["upper"]) - stats["first_k"]


@PROPERTY
@given(mixed_graphs())
@example(UNSCHEDULED)
def test_schedule_coloring_is_proper_and_gap_free(g):
    for reverse in (False, True):
        coloring = schedule_coloring(g, reverse)
        assert check_proper(g, coloring)[0]
        assert set(coloring.colors.values()) == set(range(1, coloring.max_color() + 1))
        assert coloring.num_colors() >= brute_force_chi(g)[0]


@PROPERTY
@given(mixed_graphs())
@example(UNSCHEDULED)
@example(TWO_DECIDES)
@example(BUDGETED)
def test_reversed_schedule_is_the_schedule_of_the_reversed_graph(g):
    # the forward schedule of g with every arc turned round, its colors turned round
    forward = schedule_coloring(mixed_graph(g.n, g.edges, [(v, u) for u, v in g.arcs])).colors
    top = max(forward.values(), default=0) + 1
    assert schedule_coloring(g, reverse=True).colors == {v: top - c for v, c in forward.items()}


def set_based_schedule(g, reverse=False):
    """The schedule coloring by its set-based rule, with a ready heap: of the vertices
    whose in-neighbors are all colored, the largest ceiling, then the most edge
    neighbors, then the smallest id, takes one above the largest in-neighbor color,
    then past every color an edge neighbor uses. ``reverse`` turns every arc round,
    keys by the floor and turns the colors round. Returns the colors in the order
    they were given."""
    ins, outs, nbrs = ({v: set() for v in g.vertices} for _ in range(3))
    for u, w in g.arcs:
        if reverse:
            u, w = w, u
        outs[u].add(w)
        ins[w].add(u)
    for u, w in g.edges:
        nbrs[u].add(w)
        nbrs[w].add(u)
    ceiling = g.floor if reverse else g.ceiling
    waiting = {v: len(ins[v]) for v in g.vertices}
    ready = [(-ceiling[v], -len(nbrs[v]), v) for v in g.vertices if not waiting[v]]
    heapq.heapify(ready)
    colors = {}
    while ready:
        v = heapq.heappop(ready)[2]
        color = max([colors[u] for u in ins[v]], default=0) + 1
        used = {colors.get(u) for u in nbrs[v]}
        while color in used:
            color += 1
        colors[v] = color
        for w in outs[v]:
            waiting[w] -= 1
            if not waiting[w]:
                heapq.heappush(ready, (-ceiling[w], -len(nbrs[w]), w))
    if reverse:
        top = max(colors.values(), default=0) + 1
        colors = {v: top - c for v, c in colors.items()}
    return list(colors.items())


@PROPERTY
@given(mixed_graphs(max_n=16))
@example(UNSCHEDULED)
@example(TWO_DECIDES)
@example(BUDGETED)
def test_schedule_coloring_matches_the_set_based_rule(g):
    assert list(schedule_coloring(g).colors.items()) == set_based_schedule(g)
    assert list(schedule_coloring(g, True).colors.items()) == set_based_schedule(g, True)


def test_schedule_coloring_matches_the_set_based_rule_past_64_colors():
    rng = random.Random(24)
    graphs = [
        random_mixed_graph(rng, rng.randint(20, 90), rng.choice((0.1, 0.4)), rng.choice((0.2, 0.6)))
        for _ in range(40)
    ]
    graphs += [family_oriented_grid(9), family_layered_cliques(16, 5)]  # 81 and 85 colors
    assert max(schedule_coloring(g).max_color() for g in graphs) > 64
    for g in graphs:
        assert list(schedule_coloring(g).colors.items()) == set_based_schedule(g)
        assert list(schedule_coloring(g, True).colors.items()) == set_based_schedule(g, True)


def test_schedule_coloring_matches_the_set_based_rule_on_a_long_directed_path():
    # 3,000 colors, one per vertex, in both directions
    g = mixed_graph(3000, arcs=[(v, v + 1) for v in range(1, 3000)])
    for reverse in (False, True):
        colors = list(schedule_coloring(g, reverse).colors.items())
        assert colors == set_based_schedule(g, reverse)
        assert colors == sorted(((v, v) for v in g.vertices), reverse=reverse)


@PROPERTY
@given(mixed_graphs())
@example(UNSCHEDULED)
@example(TWO_DECIDES)
@example(BUDGETED)
def test_chi_exact_routes_match_brute_force(g):
    assert_routes_match_brute_force(g)


def rounds_leave_a_gap(g):
    """True when the bracket leaves a gap with its budgeted search cut to one node."""
    lower, upper, _ = bracket(g, 1)
    return lower < upper.num_colors()


def test_chi_exact_routes_match_brute_force_where_the_schedule_is_not_optimal():
    # the search closes nearly every small bracket, so the graphs are drawn dense and
    # kept only where its two n-node rounds leave a gap; the budgeted search closes
    # each of those at the default budget, so every route is also called on its own
    # at chi - 1 and chi, and the ascent runs under budgets of 10 and 30, which the
    # bracket's search overruns on some graphs that a route still decides within
    rng = random.Random(18)
    graphs = [random_mixed_graph(rng, rng.randint(8, 10), 0.5, 0.2) for _ in range(1000)]
    unscheduled = [
        g for g in graphs if rounds_leave_a_gap(g) and brute_force_chi(g)[0] < schedule_coloring(g).num_colors()
    ]
    assert len(unscheduled) >= 10
    decided = 0
    for g in unscheduled:
        assert_routes_match_brute_force(g)
        chi = brute_force_chi(g)[0]
        for method in METHODS:
            decide = ROUTES[method](g, None, DEFAULT_NODE_BUDGET)
            assert not decide(chi - 1).decision
            result = decide(chi)
            assert result.decision and check_proper(g, result.witness)[0]
            assert result.witness.max_color() <= chi
            for budget in (10, 30):
                stats = {}
                try:
                    got, witness = chi_exact(g, method, budget=budget, stats=stats)
                except BudgetExceeded:
                    continue
                assert got == witness.num_colors() == chi and check_proper(g, witness)[0]
                assert stats["decides"] == min(chi + 1, stats["upper"]) - stats["first_k"]
                decided += stats["decides"] > 0
    assert decided == 18  # brute 5, ndm 4, branch 9; twdp's tables overrun both budgets


@PROPERTY
@given(mixed_graphs())
@example(UNSCHEDULED)
def test_every_route_accepts_the_schedule_count(g):
    # the ascent never decides this k; a sound decider must say yes to it
    upper = schedule_coloring(g).num_colors()
    for method in METHODS:
        result = ROUTES[method](g, None, DEFAULT_NODE_BUDGET)(upper)
        assert result.decision
        assert check_proper(g, result.witness)[0]


@PROPERTY
@given(mixed_graphs())
@example(UNSCHEDULED)
@example(TWO_DECIDES)
@example(BUDGETED)
@example(mixed_graph(0))
def test_every_route_ascends_the_one_bracket(g):
    # every route, branch too, passes its budget to the same bracket
    lower, upper, _ = bracket(g)
    for method in METHODS:
        stats = {}
        chi_exact(g, method, stats=stats)
        assert (stats["first_k"], stats["upper"]) == (lower, upper.num_colors())
