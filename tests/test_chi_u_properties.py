"""Property tests for the DSATUR coloring core in ``mixedcolor.bounds``.

``chi_u_exact`` is checked against an ascending brute-force search on the
underlying graph, ``window_search``'s symmetry rule on arc-free graphs against
the same search, and the greedy first descent against a copy of the
greedy DSATUR coloring it replaced. The mask kernels are checked against
the same searches run on induced subgraphs: ``layering_coloring`` against
a per-layer subgraph construction, and ``max_clique`` against
``clique_number`` and against subset enumeration. Examples are derandomized so every run of the suite sees
the same graphs.
"""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedcolor import layering, layering_coloring, lower_bounds, mixed_graph
from mixedcolor.bounds import EXACT_LAYER_CAP, check_proper, chi_u_exact, window_search
from mixedcolor.errors import BudgetExceeded
from mixedcolor.graphs import underlying_undirected
from mixedcolor.partitions import clique_number, max_clique
from mixedcolor.solvers import brute_force_decide

from subgraphs import induced_subgraph, scanned

PROPERTY = settings(max_examples=150)


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


@st.composite
def layered_graphs(draw):
    """A source layer of 21-28 vertices with sparse or dense edges, then up to
    three more groups that take arcs from earlier ones; ids are shuffled."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    sizes = [draw(st.integers(EXACT_LAYER_CAP + 1, 28))] + draw(st.lists(st.integers(1, 12), max_size=3))
    edge_p = draw(st.sampled_from((0.03, 0.08, 0.2, 0.5)))
    groups, start = [], 1
    for size in sizes:
        groups.append(range(start, start + size))
        start += size
    n = start - 1
    ids = rng.sample(range(1, n + 1), n)
    edges, arcs = [], []
    for i, group in enumerate(groups):
        edges += [(u, v) for u, v in combinations(group, 2) if rng.random() < edge_p]
        for later in groups[i + 1:]:
            arcs += [(u, v) for u in group for v in later if rng.random() < 0.1]
    return mixed_graph(n, [(ids[u - 1], ids[v - 1]) for u, v in edges], [(ids[u - 1], ids[v - 1]) for u, v in arcs])


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


@PROPERTY
@given(mixed_graphs())
def test_chi_u_search_from_a_start(g):
    chi = chi_u_exact(g)[0]
    for start in range(g.n + 2):
        found, witness = chi_u_exact(g, start=start)
        assert found == max(start, chi)
        assert sorted(witness) == list(g.vertices)
        assert all(witness[u] != witness[v] for u, v in [*g.edges, *g.arcs])
        assert set(witness.values()) <= set(range(1, found + 1))


@PROPERTY
@given(mixed_graphs().map(underlying_undirected))
def test_the_symmetry_rule_keeps_the_window_search_exact(g):
    # no arc: the window search tries at most one color above those its fixes took,
    # and still refutes exactly the k below chi and colors properly from chi on
    chi = chromatic_number(g)
    for k in range(1, g.n + 2):
        coloring, left = window_search(g, k, 1 << 62)
        assert left >= 0 and (coloring is None) == (k < chi), k
        if coloring is not None:
            assert check_proper(g, coloring)[0] and coloring.max_color() <= k, k


def reference_greedy(g):
    """The greedy DSATUR coloring as it was before the shared search."""
    ins, outs, nbrs = scanned(g)
    adj = {v: ins[v] | outs[v] | nbrs[v] for v in g.vertices}
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
        assert chi_u_exact(g, budget=2 * g.n, start=g.n)[1] == reference_greedy(g)


def subgraph_layering_coloring(g):
    """The layering coloring built as it was before the mask kernels: one
    induced subgraph per layer, renumbered, colored and mapped back."""
    assignment, offset = {}, 0
    for layer in layering(g).layers:
        sub, remap = induced_subgraph(g, layer)
        if sub.n <= EXACT_LAYER_CAP:
            _, local = chi_u_exact(sub)
        else:
            _, local = chi_u_exact(sub, start=sub.n)
        back = {new: old for old, new in remap.items()}
        for new, color in local.items():
            assignment[back[new]] = offset + color
        offset += max(local.values(), default=0)
    return assignment


@settings(max_examples=60)
@given(st.one_of(layered_graphs(), disjoint_unions(), mixed_graphs()))
def test_layering_coloring_matches_the_subgraph_construction(g):
    assert layering_coloring(g).colors == subgraph_layering_coloring(g)


@PROPERTY
@given(mixed_graphs(), st.data())
def test_mask_clique_matches_the_induced_subgraph(g, data):
    subset = data.draw(st.sets(st.sampled_from(list(g.vertices)))) if g.n else set()
    mask = sum(1 << v for v in subset)
    assert max_clique(g.adjacent_masks, mask) == clique_number(induced_subgraph(g, subset)[0])


def brute_force_clique(g, subset):
    """Largest subset of ``subset`` whose pairs are all related, by enumeration."""
    related = underlying_undirected(g).edges
    for size in range(len(subset), 1, -1):
        for cand in combinations(sorted(subset), size):
            if all((u, v) in related for u, v in combinations(cand, 2)):
                return size
    return len(subset) and 1


@PROPERTY
@given(mixed_graphs(max_n=12), st.data())
def test_mask_clique_matches_enumeration(g, data):
    subset = data.draw(st.sets(st.sampled_from(list(g.vertices)))) if g.n else set()
    mask = sum(1 << v for v in subset)
    assert max_clique(g.adjacent_masks, mask) == brute_force_clique(g, subset)


def grotzsch():
    """Mycielskian of the 5-cycle: triangle-free, chromatic number 4."""
    cycle = [(i, i % 5 + 1) for i in range(1, 6)]
    shadows = [(u + 5, v) for u, v in cycle] + [(u, v + 5) for u, v in cycle]
    return mixed_graph(11, cycle + shadows + [(11, i) for i in range(6, 11)])


def test_coloring_search_exceeds_budget():
    g = grotzsch()
    assert clique_number(g, budget=18) == 2  # the clique search stays under 18 nodes
    with pytest.raises(BudgetExceeded, match="chi_u search"):
        chi_u_exact(g, budget=18)
    lb = lower_bounds(g, budget=18)
    assert (lb.chi_u, lb.chi_u_exact) == (2, False)
    lb = lower_bounds(g)
    assert (lb.chi_u, lb.chi_u_exact) == (4, True)


def test_grotzsch_node_count():
    # pinned: the saturation order with forward checking and the symmetry rule
    # refutes 2 and 3 colors and finds 4 in 19 fixes
    g = grotzsch()
    with pytest.raises(BudgetExceeded):
        chi_u_exact(g, budget=18)
    assert chi_u_exact(g, budget=19)[0] == 4


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
