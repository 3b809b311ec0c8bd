"""Property tests for the DSATUR coloring core in ``mixedcolor.bounds``.

``chi_u_exact`` is checked against an ascending brute-force search on the
underlying graph, and the greedy first descent against a copy of the
greedy DSATUR coloring it replaced. Examples are derandomized so every run
of the suite sees the same graphs.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedcolor import lower_bounds, mixed_graph
from mixedcolor.bounds import _dsatur, chi_u_exact
from mixedcolor.errors import BudgetExceeded
from mixedcolor.graphs import underlying_undirected
from mixedcolor.partitions import clique_number
from mixedcolor.solvers import brute_force_decide

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def component_pairs(draw, n, offset):
    """Relations of a random mixed graph on offset+1..offset+n; arcs are acyclic."""
    order = draw(st.permutations(range(offset + 1, offset + n + 1)))
    rank = {v: i for i, v in enumerate(order)}
    edges, arcs = [], []
    for u, v in combinations(range(offset + 1, offset + n + 1), 2):
        kind = draw(st.sampled_from(("none", "edge", "arc")))
        if kind == "edge":
            edges.append((u, v))
        elif kind == "arc":
            arcs.append((u, v) if rank[u] < rank[v] else (v, u))
    return edges, arcs


@st.composite
def mixed_graphs(draw, max_n=9):
    n = draw(st.integers(0, max_n))
    edges, arcs = draw(component_pairs(n, 0))
    return mixed_graph(n, edges, arcs)


@st.composite
def disjoint_unions(draw, max_n=9):
    """2-4 random graphs side by side, vertex ids shuffled so components interleave."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4).filter(lambda s: sum(s) <= max_n))
    edges, arcs, offset = [], [], 0
    for size in sizes:
        e, a = draw(component_pairs(size, offset))
        edges += e
        arcs += a
        offset += size
    perm = draw(st.permutations(range(1, offset + 1)))
    new = dict(zip(range(1, offset + 1), perm))
    return mixed_graph(offset, [(new[u], new[v]) for u, v in edges], [(new[u], new[v]) for u, v in arcs])


def chromatic_number(g):
    """Smallest k with a proper k-coloring of the underlying graph, by brute force."""
    und = underlying_undirected(g)
    k = 0 if g.n == 0 else 1
    while g.n and brute_force_decide(und, k) is None:
        k += 1
    return k


def assert_exact(g):
    # these graphs need at most a few dozen nodes; a broken search fails fast
    chi, witness = chi_u_exact(g, budget=1_000)
    assert chi == chromatic_number(g)
    assert sorted(witness) == list(g.vertices)
    assert all(witness[u] != witness[v] for u, v in [*g.edges, *g.arcs])
    assert len(set(witness.values())) == chi


@PROPERTY
@given(mixed_graphs())
def test_chi_u_matches_brute_force(g):
    assert_exact(g)


@PROPERTY
@given(disjoint_unions())
def test_chi_u_of_disjoint_unions(g):
    assert_exact(g)


def reference_greedy(g):
    """The greedy DSATUR coloring as it was before the shared search."""
    adj = g.adjacent
    colors = {}
    uncolored = set(g.vertices)
    while uncolored:
        # highest saturation, then highest degree, then smallest id
        v = min(
            uncolored,
            key=lambda u: (-len({colors[w] for w in adj[u] if w in colors}), -len(adj[u]), u),
        )
        taken = {colors[w] for w in adj[v] if w in colors}
        color = 1
        while color in taken:
            color += 1
        colors[v] = color
        uncolored.remove(v)
    return colors


@PROPERTY
@given(st.one_of(mixed_graphs(max_n=24), disjoint_unions()))
def test_first_descent_is_the_greedy_coloring(g):
    if g.n:
        assert _dsatur(g, g.n, budget=2 * g.n)[1] == reference_greedy(g)


def grotzsch():
    """Mycielskian of the 5-cycle: triangle-free, chromatic number 4."""
    cycle = [(i, i % 5 + 1) for i in range(1, 6)]
    shadows = [(u + 5, v) for u, v in cycle] + [(u, v + 5) for u, v in cycle]
    return mixed_graph(11, cycle + shadows + [(11, i) for i in range(6, 11)])


def test_coloring_search_exceeds_budget():
    g = grotzsch()
    assert clique_number(g, budget=20) == 2  # the clique search stays under 20 nodes
    with pytest.raises(BudgetExceeded, match="chi_u search"):
        chi_u_exact(g, budget=20)
    lb = lower_bounds(g, budget=20)
    assert (lb.chi_u, lb.chi_u_exact) == (2, False)
    lb = lower_bounds(g)
    assert (lb.chi_u, lb.chi_u_exact) == (4, True)


def test_grotzsch_node_count():
    # pinned: the saturation order refutes 2 and 3 colors and finds 4 in 44
    # nodes; saturations left stale on backtrack take 82
    g = grotzsch()
    with pytest.raises(BudgetExceeded):
        chi_u_exact(g, budget=43)
    assert chi_u_exact(g, budget=44)[0] == 4


def test_paths_beside_a_five_cycle_are_exact():
    # 24 edge/arc paths meeting at low-id centers plus a 5-cycle: the fixed
    # highest-degree order retried every center before refuting 2 colors
    paths = 24
    edges, arcs = [], []
    for c in range(1, paths + 1):
        leaf = paths + 4 + 2 * c
        edges.append((c, leaf))
        arcs.append((leaf + 1, c))
    b = paths
    edges += [(b + 1, b + 2), (b + 2, b + 3), (b + 3, b + 4), (b + 4, b + 5), (b + 1, b + 5)]
    lb = lower_bounds(mixed_graph(3 * paths + 5, edges, arcs))
    assert (lb.chi_u, lb.chi_u_exact) == (3, True)
