"""Property tests: the ndm route solves on the transitive closure.

The route reads the closure's class structure off reachability masks
instead of building the closure graph. These tests check that structure
against the one computed on ``transitive_closure(g)``, and the route's
answers against the brute-force oracle on the original graph. Examples are
derandomized so every run of the suite sees the same graphs.
"""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from mixedcolor import (
    brute_force_decide,
    check_proper,
    mixed_graph,
    mixed_neighborhood_partition,
    ndm_fpt_decide,
    transitive_closure,
)
from mixedcolor.partitions import class_relations, closure_neighborhood_partition
from mixedcolor.solvers import class_structure

PROPERTY = settings(max_examples=300)


@st.composite
def arc_heavy_graphs(draw, max_n):
    """Random mixed graphs where half the pairs carry an arc, so many arcs are transitive."""
    n = draw(st.integers(0, max_n))
    order = draw(st.permutations(range(1, n + 1)))
    rank = {v: i for i, v in enumerate(order)}
    edges, arcs = [], []
    for u, v in combinations(range(1, n + 1), 2):
        kind = draw(st.sampled_from(("none", "edge", "arc", "arc")))
        if kind == "edge":
            edges.append((u, v))
        elif kind == "arc":
            arcs.append((u, v) if rank[u] < rank[v] else (v, u))
    return mixed_graph(n, edges, arcs)


def arc_closure(arcs):
    closed = set(arcs)
    while True:
        more = {(a, d) for a, b in closed for c, d in closed if b == c} - closed
        if not more:
            return closed
        closed |= more


def reference_structure(g):
    """Sizes, members, kinds, edges and arcs of the classes of g by its own relations."""
    part = mixed_neighborhood_partition(g)
    members = tuple(tuple(sorted(cls)) for cls in part.classes)
    independent = tuple(kind == "independent" for kind in part.class_kinds)
    sizes = tuple(1 if ind else len(cls) for ind, cls in zip(independent, members))
    relations = class_relations(g, part)
    edges = frozenset(frozenset((i, j)) for kind, i, j in relations if kind == "edge")
    arcs = frozenset((i, j) for kind, i, j in relations if kind == "arc")
    return sizes, members, independent, edges, arcs


@PROPERTY
@given(arc_heavy_graphs(max_n=12))
def test_mask_structure_is_the_closure_structure(g):
    closure = transitive_closure(g)
    struct = class_structure(g)
    on_closure = class_structure(closure)
    sizes, members, independent, edges, arcs = reference_structure(closure)
    for s in (struct, on_closure):
        assert (s.sizes, s.members, s.independent, s.class_edges) == (sizes, members, independent, edges)
        assert arc_closure(s.class_arcs) == arcs
    # the generating set is the graph's own arcs, never the closure's
    assert len(struct.class_arcs) <= len(g.arcs)
    assert len(closure_neighborhood_partition(g)) == len(members)


@PROPERTY
@given(arc_heavy_graphs(max_n=8))
def test_closure_route_matches_brute_force(g):
    for k in range(g.n + 2):
        result = ndm_fpt_decide(g, k)
        assert result.decision == (brute_force_decide(g, k) is not None)
        assert result.stats["classes"] == (len(class_structure(g).sizes) if g.n and k else 0)
        if result.decision:
            assert check_proper(g, result.witness)[0]
            assert result.witness.max_color() <= k
