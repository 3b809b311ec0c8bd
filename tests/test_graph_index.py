"""Property tests: the cached graph index and the hashed neighborhood partitions.

Every cached view is compared with a direct scan of the edge and arc sets,
and both partitions with the pairwise definition of the type relation.
Examples are derandomized so every run of the suite sees the same graphs.
"""

import io
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedcolor import (
    DirectedCycleError,
    load_graph,
    mixed_graph,
    mixed_neighborhood_partition,
    random_mixed_graph,
    undirected_neighborhood_partition,
)
from mixedcolor.graphs import normalize_edge, save_graph, transitive_closure, underlying_undirected
from mixedcolor.partitions import class_relations
from mixedcolor.reductions import family_layered_cliques
from subgraphs import scanned

PROPERTY = settings(max_examples=150)


@st.composite
def typed_relations(draw, max_n=14):
    """The vertex count, edges (u < v) and arcs of a blow-up of a random
    type graph with a few relations changed afterwards.

    Vertices get a random type; a type is a clique or an independent set and
    relates uniformly to each other type. Arcs follow one drawn vertex order,
    so the graph is acyclic. Without the changes every type would be a class.
    """
    n = draw(st.integers(0, max_n))
    types = [draw(st.integers(0, 3)) for _ in range(n)]
    clique = [draw(st.booleans()) for _ in range(4)]
    between = {
        (a, b): draw(st.sampled_from(("none", "edge", "arc"))) for a, b in combinations(range(4), 2)
    }
    order = draw(st.permutations(range(1, n + 1)))
    rank = {v: i for i, v in enumerate(order)}
    relation = {}
    for u, v in combinations(range(1, n + 1), 2):
        a, b = sorted((types[u - 1], types[v - 1]))
        relation[u, v] = ("edge" if clique[a] else "none") if a == b else between[a, b]
    for _ in range(draw(st.integers(0, 3))):
        if n >= 2:
            pair = tuple(sorted(draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))))
            relation[pair] = draw(st.sampled_from(("none", "edge", "arc")))
    edges = [pair for pair, kind in relation.items() if kind == "edge"]
    arcs = [
        (u, v) if rank[u] < rank[v] else (v, u) for (u, v), kind in relation.items() if kind == "arc"
    ]
    return n, edges, arcs


def typed_graphs(max_n=14):
    return typed_relations(max_n).map(lambda relations: mixed_graph(*relations))


def pairwise_partition(g, same_type):
    """Union-find over all vertex pairs; classes ordered by smallest member."""
    parent = {v: v for v in g.vertices}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in combinations(g.vertices, 2):
        if find(u) != find(v) and same_type(u, v):
            parent[find(v)] = find(u)
    groups = {}
    for v in g.vertices:
        groups.setdefault(find(v), []).append(v)
    classes = sorted(groups.values(), key=lambda m: m[0])
    kinds = tuple(
        "clique" if len(m) >= 2 and (m[0], m[1]) in g.edges else "independent" for m in classes
    )
    return tuple(frozenset(m) for m in classes), kinds


@PROPERTY
@given(typed_graphs())
def test_mixed_partition_matches_pairwise_definition(g):
    ins, outs, nbrs = scanned(g)

    def same_type(u, v):
        return ins[u] == ins[v] and outs[u] == outs[v] and nbrs[u] - {v} == nbrs[v] - {u}

    part = mixed_neighborhood_partition(g)
    assert (part.classes, part.class_kinds) == pairwise_partition(g, same_type)


@PROPERTY
@given(typed_graphs())
def test_undirected_partition_matches_pairwise_definition(g):
    und = underlying_undirected(g)
    _, _, nbrs = scanned(und)

    def same_type(u, v):
        return nbrs[u] - {v} == nbrs[v] - {u}

    part = undirected_neighborhood_partition(g)
    assert (part.classes, part.class_kinds) == pairwise_partition(und, same_type)


@PROPERTY
@given(typed_graphs())
def test_class_relations_match_representative_pairs(g):
    part = mixed_neighborhood_partition(g)
    reps = [min(cls) for cls in part.classes]
    expected = []
    for i, j in combinations(range(len(reps)), 2):
        u, v = reps[i], reps[j]
        if normalize_edge(u, v) in g.edges:
            expected.append(("edge", i, j))
        elif (u, v) in g.arcs:
            expected.append(("arc", i, j))
        elif (v, u) in g.arcs:
            expected.append(("arc", j, i))
    assert class_relations(g, part) == expected


@PROPERTY
@given(typed_graphs())
def test_index_matches_direct_scans(g):
    ins, outs, nbrs = scanned(g)
    for v in g.vertices:
        for view, masks in ((ins, g.pred_masks), (outs, g.succ_masks), (nbrs, g.nbr_masks)):
            assert masks[v] == sum(1 << u for u in view[v])
        assert g.adjacent_masks[v] == sum(1 << u for u in ins[v] | outs[v] | nbrs[v])
    # the order takes, at every step, the smallest vertex whose in-neighbors are all placed
    placed, expected = set(), []
    while len(expected) < g.n:
        v = min(v for v in g.vertices if v not in placed and ins[v] <= placed)
        expected.append(v)
        placed.add(v)
    assert g.order == tuple(expected)
    # reachability masks: every vertex a walk along the scanned arcs meets
    for v in g.vertices:
        for masks, step in ((g.desc_masks, outs), (g.anc_masks, ins)):
            seen, todo = set(), list(step[v])
            while todo:
                u = todo.pop()
                if u not in seen:
                    seen.add(u)
                    todo.extend(step[u])
            assert masks[v] == sum(1 << u for u in seen)


# what construction leaves for the first read: the relation sets and every
# index part but the order
DERIVED = ("edges", "arcs", "adjacent_masks", "anc_masks", "desc_masks", "floor", "ceiling", "layering")


def test_construction_computes_no_derived_part():
    built = mixed_graph(4, edges=[(2, 1)], arcs=[(2, 3), (3, 4)])
    loaded = load_graph(io.StringIO("p mixed 4 1 2\ne 1 2\na 2 3\na 3 4\n"))
    read = load_graph(io.StringIO("# by the line reader\np mixed 4 1 2\ne 1 2\na 2 3\na 3 4\n"))
    assert built == loaded == read
    for g in (built, loaded, read):
        assert set(vars(g)) == {"n", "pred_masks", "succ_masks", "nbr_masks", "order"}


@PROPERTY
@given(typed_graphs(), st.permutations(("edges", "arcs", "adjacent_masks")))
def test_each_relation_part_is_built_on_its_first_read(g, reads):
    def bits(mask):
        return {v for v in g.vertices if mask >> v & 1}

    expected = {
        "edges": {(u, v) for u in g.vertices for v in bits(g.nbr_masks[u]) if u < v},
        "arcs": {(u, v) for u in g.vertices for v in bits(g.succ_masks[u])},
        "adjacent_masks": tuple(p | s | e for p, s, e in zip(g.pred_masks, g.succ_masks, g.nbr_masks)),
    }
    for i, name in enumerate(reads):
        assert not set(reads[i:]) & set(vars(g))
        assert getattr(g, name) == expected[name]
    # later reads are the stored parts, not rebuilds
    assert all(getattr(g, name) is vars(g)[name] for name in reads)


@PROPERTY
@given(typed_relations(), st.data())
def test_relation_sets_are_the_input_pairs(relations, data):
    n, edges, arcs = relations
    # each edge in a drawn orientation, and some pairs given twice
    flipped = [(v, u) if data.draw(st.booleans()) else (u, v) for u, v in edges]
    again = data.draw(st.lists(st.sampled_from(flipped + arcs), max_size=3)) if edges or arcs else []
    g = mixed_graph(n, flipped + [e for e in again if e in flipped], arcs + [a for a in again if a in arcs])
    assert g.edges == frozenset(edges) and g.arcs == frozenset(arcs)
    for v in g.vertices:
        assert g.pred_masks[v] == sum(1 << u for u, w in arcs if w == v)
        assert g.succ_masks[v] == sum(1 << w for u, w in arcs if u == v)
        assert g.nbr_masks[v] == sum(1 << (u + w - v) for u, w in edges if v in (u, w))
    # every constructor gives an equal graph with an equal hash
    buf = io.StringIO()
    save_graph(g, buf)
    closed = transitive_closure(g)
    for other, same in ((load_graph(io.StringIO(buf.getvalue())), g), (transitive_closure(closed), closed)):
        assert other == same and hash(other) == hash(same)


@PROPERTY
@given(typed_graphs(), st.data())
def test_construction_rejects_directed_cycles(g, data):
    if g.n < 2:
        return
    cycle = data.draw(st.lists(st.integers(1, g.n), min_size=2, max_size=g.n, unique=True))
    closing = set(zip(cycle, cycle[1:] + cycle[:1]))
    touched = {normalize_edge(u, v) for u, v in closing}
    edges = frozenset(e for e in g.edges if e not in touched)
    arcs = frozenset(a for a in g.arcs if normalize_edge(*a) not in touched) | closing
    with pytest.raises(DirectedCycleError):
        mixed_graph(g.n, edges, arcs)


def test_color_windows_of_layered_cliques():
    # three stacked K4 with complete arc bundles: each layer needs the four
    # colors of every layer before it (floor) and after it (ceiling)
    g = family_layered_cliques(2, 4)
    assert g.floor == (0,) + (0,) * 4 + (4,) * 4 + (8,) * 4
    assert g.ceiling == (0,) + (8,) * 4 + (4,) * 4 + (0,) * 4


def test_color_windows_of_a_directed_path():
    # every vertex has at most one in- and one out-neighbor
    g = mixed_graph(30, arcs=[(v, v + 1) for v in range(1, 30)])
    assert g.floor == (0,) + tuple(v - 1 for v in g.vertices)
    assert g.ceiling == (0,) + tuple(30 - v for v in g.vertices)


def test_color_windows_of_an_in_star_on_a_clique():
    # the center's five in-neighbors form a clique: five colors lie below its own
    g = mixed_graph(6, edges=combinations(range(1, 6), 2), arcs=[(v, 6) for v in range(1, 6)])
    assert g.floor == (0, 0, 0, 0, 0, 0, 5)
    assert g.ceiling == (0, 1, 1, 1, 1, 1, 0)


@PROPERTY
@given(typed_graphs())
def test_layering_matches_a_longest_arc_path_dp(g):
    rank = dict.fromkeys(g.vertices, 0)
    for _ in range(g.n):  # round r settles every vertex whose longest arc path into it has r arcs
        for u, v in g.arcs:
            rank[v] = max(rank[v], rank[u] + 1)
    assert list(g.layering.inrank.items()) == list(rank.items())  # in id order
    depth = max(rank.values(), default=-1) + 1
    assert g.layering.layers == tuple(frozenset(v for v in g.vertices if rank[v] == r) for r in range(depth))


def greedy_clique_needs(g, order, step):
    """The color windows as first defined: per vertex, a greedy clique among
    its ``step`` neighbors sorted by (need descending, id) on every vertex."""
    need = [0] * (g.n + 1)
    for v in order:
        clique = size = 0
        for u in sorted(step[v], key=lambda u: (-need[u], u)):
            if clique & ~g.adjacent_masks[u] == 0:
                clique |= 1 << u
                size += 1
                need[v] = max(need[v], need[u] + size)
    return tuple(need)


@PROPERTY
@given(typed_graphs())
def test_color_windows_match_the_greedy_clique_definition(g):
    ins, outs, _ = scanned(g)
    assert g.floor == greedy_clique_needs(g, g.order, ins)
    assert g.ceiling == greedy_clique_needs(g, reversed(g.order), outs)


def test_color_windows_match_the_greedy_clique_definition_on_random_graphs():
    rng = random.Random(13)
    for _ in range(200):
        g = random_mixed_graph(rng, rng.randint(1, 24), rng.choice((0.1, 0.3)), rng.choice((0.1, 0.3, 0.6)))
        ins, outs, _ = scanned(g)
        assert g.floor == greedy_clique_needs(g, g.order, ins)
        assert g.ceiling == greedy_clique_needs(g, reversed(g.order), outs)
        assert_windows_step_along_every_arc(g)


def assert_windows_step_along_every_arc(g):
    # the greedy clique's first member has the largest need and joins as member 1,
    # so a vertex needs at least one more than each of its step neighbors
    for u, w in g.arcs:
        assert g.floor[w] > g.floor[u]
        assert g.ceiling[u] > g.ceiling[w]


@PROPERTY
@given(typed_graphs())
def test_color_windows_step_along_every_arc(g):
    assert_windows_step_along_every_arc(g)
