"""Property tests: the tree-decomposition DP against the brute-force oracle.

Examples are derandomized so every run of the suite sees the same graphs.
Each graph is decided on its min-degree decomposition and on a star whose
bags all hold every vertex, so joins of full bags are exercised too. The
color windows the DP clamps to are checked against every proper coloring.
"""

from hypothesis import given, settings

from mixedcolor import (
    TreeDecomposition,
    brute_force_decide,
    check_proper,
    min_fill_decomposition,
    tw_dp_decide,
)
from mixedcolor.treedecomp import make_nice

from subgraphs import scanned
from test_branching_properties import mixed_graphs

PROPERTY = settings(max_examples=150)


def full_bag_star(g, leaves=3):
    bag = frozenset(g.vertices)
    return TreeDecomposition(g.n, (bag,) * (leaves + 1), tuple((0, i) for i in range(1, leaves + 1)))


def assert_matches_brute_force(g, td):
    nice = make_nice(td)
    for k in range(g.n + 2):
        result = tw_dp_decide(g, nice, k)
        assert result.decision == (brute_force_decide(g, k) is not None)
        if result.decision:
            assert check_proper(g, result.witness)[0]
            assert result.witness.max_color() <= k


@PROPERTY
@given(mixed_graphs())
def test_min_fill_dp_matches_brute_force(g):
    assert_matches_brute_force(g, min_fill_decomposition(g))


# A full bag of a sparse graph holds up to k**n colorings, so this runs on
# fewer vertices than the min-degree case.
@PROPERTY
@given(mixed_graphs(max_n=6))
def test_full_bag_star_dp_matches_brute_force(g):
    assert_matches_brute_force(g, full_bag_star(g))


def proper_colorings(g, k):
    """Every proper coloring of g with colors 1..k, as vertex -> color dicts."""
    ins, _, nbrs = scanned(g)
    colors = {}

    def extend(i):
        if i == g.n:
            yield dict(colors)
            return
        v = g.order[i]  # in-neighbors come first
        for color in range(max((colors[u] for u in ins[v]), default=0) + 1, k + 1):
            if all(colors.get(u) != color for u in nbrs[v]):
                colors[v] = color
                yield from extend(i + 1)
                del colors[v]

    return extend(0)


# The DP clamps every vertex to its window, so the windows must hold in every
# proper coloring; the tests above check the clamped DP's decisions.
@PROPERTY
@given(mixed_graphs(max_n=6))
def test_color_windows_hold_in_every_proper_coloring(g):
    for colors in proper_colorings(g, g.n):
        top = max(colors.values(), default=0)
        for v in g.vertices:
            assert 1 + g.floor[v] <= colors[v] <= top - g.ceiling[v]
