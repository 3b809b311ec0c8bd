"""Property tests: the branching search against the brute-force oracle.

Examples are derandomized so every run of the suite sees the same graphs.
"""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from mixedcolor import (
    branching_chi,
    branching_decide,
    brute_force_chi,
    brute_force_decide,
    check_proper,
    mixed_graph,
)
from mixedcolor.solvers import maximal_independent_sets

PROPERTY = settings(max_examples=150)


@st.composite
def mixed_graphs(draw, max_n=9):
    """Random simple mixed graphs; arcs follow a drawn vertex order, so they are acyclic."""
    n = draw(st.integers(0, max_n))
    order = draw(st.permutations(range(1, n + 1)))
    rank = {v: i for i, v in enumerate(order)}
    edges, arcs = [], []
    for u, v in combinations(range(1, n + 1), 2):
        kind = draw(st.sampled_from(("none", "edge", "arc")))
        if kind == "edge":
            edges.append((u, v))
        elif kind == "arc":
            arcs.append((u, v) if rank[u] < rank[v] else (v, u))
    return mixed_graph(n, edges, arcs)


@PROPERTY
@given(mixed_graphs())
def test_branching_chi_matches_brute_force(g):
    chi, witness = branching_chi(g)
    assert chi == brute_force_chi(g)[0]
    assert check_proper(g, witness)[0]
    assert witness.num_colors() == chi


@PROPERTY
@given(mixed_graphs())
def test_branching_decide_matches_brute_force(g):
    for k in range(g.n + 2):
        result = branching_decide(g, k)
        assert result.decision == (brute_force_decide(g, k) is not None)
        if result.decision:
            assert check_proper(g, result.witness)[0]
            assert result.witness.max_color() <= k


@st.composite
def undirected_graphs(draw, max_n=10):
    n = draw(st.integers(0, max_n))
    edges = [pair for pair in combinations(range(n), 2) if draw(st.booleans())]
    return n, edges


@PROPERTY
@given(undirected_graphs(), st.data())
def test_maximal_independent_sets_match_definition(graph, data):
    n, edges = graph
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    expected = [
        sum(1 << v for v in subset)
        for size in range(n + 1)
        for subset in combinations(range(n), size)
        if all(v not in adj[u] for u, v in combinations(subset, 2))
        and all(adj[v] & set(subset) for v in range(n) if v not in subset)
    ]
    keep = [~sum(1 << u for u in adj[v] | {v}) for v in range(n)]
    everything = (1 << n) - 1
    assert sorted(maximal_independent_sets(everything, keep)) == sorted(expected)
    # the independent sets are exactly the parts of the maximal ones
    required = data.draw(st.sampled_from(expected)) & data.draw(st.integers(0, everything))
    containing = [mask for mask in expected if mask & required == required]
    assert sorted(maximal_independent_sets(everything, keep, required)) == sorted(containing)
