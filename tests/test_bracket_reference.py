"""``bounds.bracket`` against the bracket as its steps read, without its shortcuts.

The reference below decides the colour windows' propagation by ``windows_refute``
alone, so its window search propagates its first k again, where the bracket hands
the search the propagation's last domain list; and it runs the second search
round wherever the first gives up, where the bracket skips a second round that
would start from the first one's k with the same n nodes and so make the same
steps. The window cliques run once in both: before the first round on a gap of
at least ``bounds.CLIQUE_GAP`` colours, else before the second. Neither shortcut
changes an answer, so the bracket gives the reference's lower end, upper witness
and label on every graph. Where both rounds give up, both end with the window
search ascending from the lower end one weakly connected component at a time,
under the whole budget. The graphs are derandomized ``mixed_graphs()``, an
arc-free graph that this budgeted search closes, and the benchmark's four seed-1
pools.
"""

import io
import random

import pytest
from hypothesis import example, given, settings

from mixedcolor import bounds, graphs
from mixedcolor.bounds import schedule_coloring, window_clique_bound, window_search, windows_refute
from mixedcolor.errors import DEFAULT_NODE_BUDGET
from mixedcolor.graphs import Coloring, mixed_graph
from mixedcolor.reductions import random_mixed_graph

from test_ascent_counters import SECONDS, workloads  # noqa: F401 (a fixture)
from test_ascent_properties import BUDGETED, TWO_DECIDES, UNSCHEDULED
from test_branching_properties import mixed_graphs
from test_chi_u_properties import grotzsch


def components(g):
    """The weakly connected components with an edge or arc, as sorted vertex lists,
    largest first; of equal size, the one reached first from the vertices taken by
    degree descending, then id."""
    adjacent = {v: set() for v in g.vertices}
    for u, v in (*g.edges, *g.arcs):
        adjacent[u].add(v)
        adjacent[v].add(u)
    seen, found = set(), []
    for s in sorted(g.vertices, key=lambda v: -len(adjacent[v])):
        if s in seen or not adjacent[s]:
            continue
        comp, stack = {s}, [s]
        while stack:
            for w in adjacent[stack.pop()] - comp:
                comp.add(w)
                stack.append(w)
        seen |= comp
        found.append(sorted(comp))
    return sorted(found, key=len, reverse=True)


def component_ascent(g, k, budget):
    """Each component renumbered in id order, with its edges and arcs, decided by the
    window search from the running k under one budget: (the k reached, a coloring of g
    or None past the budget)."""
    colors, left = {v: 1 for v in g.vertices}, budget
    for comp in components(g):
        index = {v: i for i, v in enumerate(comp, 1)}
        part = mixed_graph(
            len(comp),
            [(index[u], index[v]) for u, v in g.edges if u in index],
            [(index[u], index[v]) for u, v in g.arcs if u in index],
        )
        while True:
            found, left = window_search(part, k, left)
            if found is not None:
                break
            if left < 0:
                return k, None
            k += 1
        colors.update((v, found.colors[i]) for v, i in index.items())
    return k, Coloring(colors)


def reference_bracket(g, budget=DEFAULT_NODE_BUDGET):
    """The propagation, the schedules, two full search rounds with the window cliques
    before one of them, then the component ascent from the lower end, whose coloring is
    the upper witness: (lower, upper coloring, label)."""
    upper = schedule_coloring(g)
    lower, source = window_clique_bound(g, 0), "window_propagation"
    while lower < upper.num_colors() and windows_refute(g, lower):
        lower += 1
    if lower < upper.num_colors():
        upper = min(upper, schedule_coloring(g, reverse=True), key=Coloring.num_colors)
    count = upper.num_colors()
    for cliques in (True, False) if count - lower >= bounds.CLIQUE_GAP else (False, True):
        if cliques and lower < count and (found := window_clique_bound(g, count)) > lower:
            lower, source = found, "window_clique"
        nodes = g.n
        while lower < count and nodes >= 0:
            found, nodes = window_search(g, lower, nodes)
            if found is not None:
                upper, count = found, found.num_colors()
            elif nodes >= 0:
                lower, source = lower + 1, "window_search"
        if nodes >= 0:  # the round closed the bracket
            break
    if lower < count:
        found, coloring = component_ascent(g, lower, budget)
        if found > lower:
            lower, source = found, "window_search"
        if coloring is not None:
            upper = coloring
    return lower, upper, source


def assert_matches_reference(g):
    lower, upper, source = bounds.bracket(g)
    expected = reference_bracket(g)
    assert (lower, upper.colors, source) == (expected[0], expected[1].colors, expected[2])


@settings(max_examples=300)
@given(mixed_graphs())
@example(UNSCHEDULED)
@example(TWO_DECIDES)
@example(BUDGETED)
@example(mixed_graph(0))
@example(random_mixed_graph(random.Random(24), 30, 0.5, 0.0))  # no arc: the budgeted search closes it
# two components each: the star K_1,14 beside the Grötzsch graph, and the Grötzsch graph
# beside the arcs 12 -> 14 and 13 -> 15 and the edge 14 - 15
@example(mixed_graph(26, [(1, leaf) for leaf in range(2, 16)] + [(u + 15, v + 15) for u, v in grotzsch().edges]))
@example(mixed_graph(15, edges=[*grotzsch().edges, (14, 15)], arcs=[(12, 14), (13, 15)]))
def test_bracket_matches_the_reference(g):
    assert_matches_reference(g)


@pytest.mark.parametrize("pool", ["ndm-fpt", "sparse-branch", "dense-twdp", "analyze-large"])
def test_bracket_matches_the_reference_on_the_seed_one_pools(workloads, pool):
    for text in workloads.materialize(workloads.WORKLOADS[pool].plan(1, SECONDS)):
        assert_matches_reference(graphs.load_graph(io.StringIO(text)))
