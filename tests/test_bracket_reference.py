"""``bounds.bracket`` against the bracket as it stood before its bounds ran
cheapest first, with the window search and the shaving added.

The reference below computes the window cliques before the colour windows'
propagation, on every graph with a budget, and takes the reversed schedule only
with a budget. Without a budget it runs the cliques after the propagation, as
the bracket does, where the fewer colours of the two schedules lie at least
``bounds.CLIQUE_GAP`` above the propagation's end. Neither order changes a
budgeted answer: the propagation refutes every k below its first unrefuted one,
whatever k it starts from, and the reversed schedule uses fewer colours only on
a graph that no lower bound closes at the forward count. So both reach the
window search at the same lower end wherever a gap is left, and the search,
with the same n nodes, makes the same steps; the shaving then runs from the
same end. A budgeted bracket gives the
reference's lower end and upper witness, and only its label may move from
``window_clique`` to ``window_propagation`` where both bounds reach the same
end. Without a budget the lower end is the reference's too: the reference may
search on past an end that meets the reversed schedule, but that end is chi,
which no search refutes. Its upper witness is the schedule with fewer colours
(a tie keeps the forward one), or the search's colouring where that has fewer
colours still; the reference finds the same colouring, as its search makes the
same steps up to it. The graphs are derandomized ``mixed_graphs()`` and the
benchmark's four seed-1 pools.
"""

import io

import pytest
from hypothesis import example, given, settings

from mixedcolor import bounds, graphs
from mixedcolor.bounds import schedule_coloring, window_clique_bound, window_search, windows_refute, windows_shave
from mixedcolor.errors import DEFAULT_NODE_BUDGET
from mixedcolor.graphs import Coloring, mixed_graph

from test_ascent_counters import SECONDS, workloads  # noqa: F401 (a fixture)
from test_ascent_properties import SHAVED, TWO_DECIDES, UNSCHEDULED
from test_branching_properties import mixed_graphs


def reference_bracket(g, budget=DEFAULT_NODE_BUDGET):
    """The bracket with the window cliques first, the reversed schedule only
    under a budget, then the search, the shaving and chi_u: (lower, upper coloring, label)."""
    upper = schedule_coloring(g)
    count = upper.num_colors()
    lower, source = window_clique_bound(g, 0 if budget is None else count), "window_clique"
    if lower < count and budget is not None:
        upper = min(upper, schedule_coloring(g, reverse=True), key=Coloring.num_colors)
        count = upper.num_colors()
    while lower < count and windows_refute(g, lower):
        lower, source = lower + 1, "window_propagation"
    if budget is None and lower < count:
        fewer = min(count, schedule_coloring(g, reverse=True).num_colors())
        if fewer - lower >= bounds.CLIQUE_GAP:
            found = window_clique_bound(g, count)
            if found > lower:
                lower, source = found, "window_clique"
    nodes = g.n
    while lower < count and nodes >= 0:
        found, nodes = window_search(g, lower, nodes)
        if found is not None:
            upper, count = found, found.num_colors()
        elif nodes >= 0:
            lower, source = lower + 1, "window_search"
    while lower < count and budget is not None and windows_shave(g, lower, budget):
        lower, source = lower + 1, "window_shaving"
    if lower < count and budget is not None:
        found = bounds._chi_u_or_clique(g, budget, lower)[0]
        if found > lower:
            lower, source = found, "undirected_clique"
    return lower, upper, source


def assert_matches_reference(g):
    lower, upper, source = bounds.bracket(g)
    expected = reference_bracket(g)
    assert (lower, upper.colors) == (expected[0], expected[1].colors)
    # where the propagation and the cliques reach the same end, the propagation names it
    assert source == expected[2] or (expected[2], source) == ("window_clique", "window_propagation")

    lower, upper, _ = bounds.bracket(g, None)
    expected, forward = reference_bracket(g, None), schedule_coloring(g)
    assert lower == expected[0]
    if lower < forward.num_colors():  # the propagation left a gap
        forward = min(forward, schedule_coloring(g, reverse=True), key=Coloring.num_colors)
    if expected[1].num_colors() < forward.num_colors():  # the search's colouring
        forward = expected[1]
    assert upper.colors == forward.colors


@settings(max_examples=300)
@given(mixed_graphs())
@example(UNSCHEDULED)
@example(TWO_DECIDES)
@example(SHAVED)
@example(mixed_graph(0))
def test_bracket_matches_the_reference(g):
    assert_matches_reference(g)


@pytest.mark.parametrize("pool", ["ndm-fpt", "sparse-branch", "dense-twdp", "analyze-large"])
def test_bracket_matches_the_reference_on_the_seed_one_pools(workloads, pool):
    for text in workloads.materialize(workloads.WORKLOADS[pool].plan(1, SECONDS)):
        assert_matches_reference(graphs.load_graph(io.StringIO(text)))
