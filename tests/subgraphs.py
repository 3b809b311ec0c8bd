"""Reference views for the tests: the induced subgraph, renumbered, and the
neighborhoods read straight off the relation sets."""

from mixedcolor.graphs import MixedGraph


def induced_subgraph(g, vertices):
    """Induced subgraph with vertices renumbered 1..m; returns (graph, old->new map).

    Renumbering keeps the order of ids, so normalized edges stay normalized.
    """
    keep = sorted(set(vertices))
    remap = {v: i + 1 for i, v in enumerate(keep)}
    edges = frozenset((remap[u], remap[v]) for u, v in g.edges if u in remap and v in remap)
    arcs = frozenset((remap[u], remap[v]) for u, v in g.arcs if u in remap and v in remap)
    return MixedGraph(len(keep), edges, arcs), remap


def scanned(g):
    """Per-vertex in-, out- and edge neighborhoods read straight off the relation sets."""
    ins = {v: frozenset(u for u, w in g.arcs if w == v) for v in g.vertices}
    outs = {v: frozenset(w for u, w in g.arcs if u == v) for v in g.vertices}
    nbrs = {v: frozenset(a if b == v else b for a, b in g.edges if v in (a, b)) for v in g.vertices}
    return ins, outs, nbrs
