"""``bounds.bracket`` against the bracket as its steps read, without its shortcuts.

The reference below decides the colour windows' propagation by ``windows_refute``
alone, so its window search propagates its first k again, where the bracket hands
the search the propagation's last domain list; and it runs the second search
round wherever the first gives up, where the bracket skips a second round that
would start from the first one's k with the same n nodes and so make the same
steps. The window cliques run once in both: before the first round on a gap of
at least ``bounds.CLIQUE_GAP`` colours, else before the second. Neither shortcut
changes an answer, so the bracket gives the reference's lower end, upper witness
and label on every graph. The graphs are derandomized ``mixed_graphs()``, an
arc-free graph that the chi_u search's coloring closes, and the benchmark's four
seed-1 pools.
"""

import io
import random

import pytest
from hypothesis import example, given, settings

from mixedcolor import bounds, graphs
from mixedcolor.bounds import schedule_coloring, window_clique_bound, window_search, windows_refute, windows_shave
from mixedcolor.errors import DEFAULT_NODE_BUDGET, BudgetExceeded
from mixedcolor.graphs import Coloring, mixed_graph
from mixedcolor.reductions import random_mixed_graph

from test_ascent_counters import SECONDS, workloads  # noqa: F401 (a fixture)
from test_ascent_properties import SHAVED, TWO_DECIDES, UNSCHEDULED
from test_branching_properties import mixed_graphs


def reference_bracket(g, budget=DEFAULT_NODE_BUDGET):
    """The propagation, the schedules, two full search rounds with the window cliques
    before one of them, then the shaving and chi_u, whose coloring is the upper witness
    where g has no arc: (lower, upper coloring, label)."""
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
    while lower < count and windows_shave(g, lower, budget):
        lower, source = lower + 1, "window_shaving"
    if lower < count:
        try:
            found, witness = bounds.chi_u_exact(g, budget, lower)
        except BudgetExceeded:
            found, witness = bounds.clique_number(g, budget), None
        if found > lower:
            lower, source = found, "undirected_clique"
        if witness is not None and not g.arcs and found < count:  # no arc: chi_u's coloring is proper
            upper = Coloring(witness)
    return lower, upper, source


def assert_matches_reference(g):
    lower, upper, source = bounds.bracket(g)
    expected = reference_bracket(g)
    assert (lower, upper.colors, source) == (expected[0], expected[1].colors, expected[2])


@settings(max_examples=300)
@given(mixed_graphs())
@example(UNSCHEDULED)
@example(TWO_DECIDES)
@example(SHAVED)
@example(mixed_graph(0))
@example(random_mixed_graph(random.Random(24), 30, 0.5, 0.0))  # no arc: chi_u's coloring closes it
def test_bracket_matches_the_reference(g):
    assert_matches_reference(g)


@pytest.mark.parametrize("pool", ["ndm-fpt", "sparse-branch", "dense-twdp", "analyze-large"])
def test_bracket_matches_the_reference_on_the_seed_one_pools(workloads, pool):
    for text in workloads.materialize(workloads.WORKLOADS[pool].plan(1, SECONDS)):
        assert_matches_reference(graphs.load_graph(io.StringIO(text)))
