"""Reference subgraphs for the tests: the induced subgraph, renumbered."""

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
