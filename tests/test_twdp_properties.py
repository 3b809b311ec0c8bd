"""Property tests: the tree-decomposition DP against the brute-force oracle.

Examples are derandomized so every run of the suite sees the same graphs.
Each graph is decided on its min-fill decomposition and on a star whose
bags all hold every vertex, so joins of full bags are exercised too.
"""

from hypothesis import given, settings

from mixedcolor import (
    TreeDecomposition,
    brute_force_decide,
    check_proper,
    min_fill_decomposition,
    tw_dp_decide,
)

from test_branching_properties import mixed_graphs

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


def full_bag_star(g, leaves=3):
    bag = frozenset(g.vertices)
    return TreeDecomposition(g.n, (bag,) * (leaves + 1), tuple((0, i) for i in range(1, leaves + 1)))


def assert_matches_brute_force(g, td):
    for k in range(g.n + 2):
        result = tw_dp_decide(g, td, k)
        assert result.decision == (brute_force_decide(g, k) is not None)
        if result.decision:
            assert check_proper(g, result.witness)[0]
            assert result.witness.max_color() <= k


@PROPERTY
@given(mixed_graphs())
def test_min_fill_dp_matches_brute_force(g):
    assert_matches_brute_force(g, min_fill_decomposition(g))


# A full bag of a sparse graph holds up to k**n colorings, so this runs on
# fewer vertices than the min-fill case.
@PROPERTY
@given(mixed_graphs(max_n=6))
def test_full_bag_star_dp_matches_brute_force(g):
    assert_matches_brute_force(g, full_bag_star(g))
