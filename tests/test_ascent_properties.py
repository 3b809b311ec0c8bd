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
from mixedcolor.errors import DEFAULT_NODE_BUDGET
from mixedcolor.reductions import family_layered_cliques, family_oriented_grid
from mixedcolor.solvers import METHODS, ROUTES

from test_branching_properties import mixed_graphs

PROPERTY = settings(max_examples=150)

# chi 2; the schedule gives vertex 5 color 3, above 2's and beside 4's
UNSCHEDULED = mixed_graph(5, edges=[(1, 3), (1, 4), (4, 5)], arcs=[(2, 5)])
# first k 3, chi 4, schedule 5 colors
TWO_DECIDES = mixed_graph(6, edges=[(1, 2), (1, 5), (2, 3), (3, 4)], arcs=[(1, 3), (2, 4), (5, 2)])


def assert_routes_match_brute_force(g):
    chi = brute_force_chi(g)[0]
    for method in METHODS:
        stats = {}
        got, witness = chi_exact(g, method, stats=stats)
        assert got == chi
        assert check_proper(g, witness)[0]
        assert witness.num_colors() == chi
        assert stats["first_k"] <= chi <= stats["upper"] == schedule_coloring(g).num_colors()
        assert stats["decides"] == min(chi + 1, stats["upper"]) - stats["first_k"]


@PROPERTY
@given(mixed_graphs())
@example(UNSCHEDULED)
def test_schedule_coloring_is_proper_and_gap_free(g):
    coloring = schedule_coloring(g)
    assert check_proper(g, coloring)[0]
    assert set(coloring.colors.values()) == set(range(1, coloring.max_color() + 1))
    assert coloring.num_colors() >= brute_force_chi(g)[0]


def set_based_schedule(g):
    """The schedule coloring by its set-based rule, with the same ready heap and
    key: one above the largest in-neighbor color, then past every color an
    edge neighbor uses. Returns the colors in the order they were given."""
    waiting = [len(preds) for preds in g.preds]
    ready = [(-g.ceiling[v], -len(g.nbrs[v]), v) for v in g.vertices if not waiting[v]]
    heapq.heapify(ready)
    colors = {}
    while ready:
        v = heapq.heappop(ready)[2]
        color = max([colors[u] for u in g.preds[v]], default=0) + 1
        used = {colors.get(u) for u in g.nbrs[v]}
        while color in used:
            color += 1
        colors[v] = color
        for w in g.succs[v]:
            waiting[w] -= 1
            if not waiting[w]:
                heapq.heappush(ready, (-g.ceiling[w], -len(g.nbrs[w]), w))
    return list(colors.items())


@PROPERTY
@given(mixed_graphs(max_n=16))
@example(UNSCHEDULED)
@example(TWO_DECIDES)
def test_schedule_coloring_matches_the_set_based_rule(g):
    assert list(schedule_coloring(g).colors.items()) == set_based_schedule(g)


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


@PROPERTY
@given(mixed_graphs())
@example(UNSCHEDULED)
@example(TWO_DECIDES)
def test_chi_exact_routes_match_brute_force(g):
    assert_routes_match_brute_force(g)


def test_chi_exact_routes_match_brute_force_where_the_schedule_is_not_optimal():
    rng = random.Random(18)
    graphs = [random_mixed_graph(rng, rng.randint(5, 9), 0.3, 0.15) for _ in range(300)]
    unscheduled = [g for g in graphs if brute_force_chi(g)[0] < schedule_coloring(g).num_colors()]
    assert len(unscheduled) >= 10
    for g in unscheduled:
        assert_routes_match_brute_force(g)


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
@example(mixed_graph(0))
def test_every_route_ascends_the_one_bracket(g):
    # branch passes no budget, so its bracket stops at the windows
    for method in METHODS:
        stats = {}
        chi_exact(g, method, stats=stats)
        lower, upper, _ = bracket(g, None if method == "branch" else DEFAULT_NODE_BUDGET)
        assert (stats["first_k"], stats["upper"]) == (lower, upper.num_colors())
