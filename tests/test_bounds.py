"""Properness checking, chromatic lower bounds, and the constructive colorings."""

import hashlib
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixedcolor import (
    Coloring,
    IncompleteColoring,
    InvalidCover,
    check_proper,
    chromatic_bounds,
    clique_number,
    layering,
    layering_coloring,
    lower_bounds,
    maxrank,
    mixed_graph,
    transitive_closure,
    vc_coloring,
    vertex_cover_number,
)
from mixedcolor import bounds
from mixedcolor.bounds import chi_u_exact, window_clique_bound
from mixedcolor.errors import DEFAULT_NODE_BUDGET, BudgetExceeded
from mixedcolor.reductions import (
    SuperstringInstance,
    family_layered_cliques,
    random_mixed_graph,
    reduce_superstring,
    superstring_coloring,
)
from mixedcolor.solvers import brute_force_chi, brute_force_decide

from subgraphs import induced_subgraph
from test_branching_properties import mixed_graphs
from test_chi_u_properties import grotzsch


def directed_path(length):
    return mixed_graph(length + 1, arcs=[(i, i + 1) for i in range(1, length + 1)])


class TestCheckProper:
    def test_single_vertex(self):
        g = mixed_graph(1)
        assert check_proper(g, Coloring({1: 1})) == (True, None)

    def test_arc_violation_reported(self):
        g = mixed_graph(2, arcs=[(1, 2)])
        ok, violation = check_proper(g, Coloring({1: 2, 2: 1}))
        assert not ok and violation == ("arc", 1, 2)

    def test_smallest_violation_wins(self):
        g = mixed_graph(4, edges=[(3, 4)], arcs=[(1, 2)])
        ok, violation = check_proper(g, Coloring({1: 5, 2: 1, 3: 2, 4: 2}))
        assert not ok and violation == ("arc", 1, 2)

    def test_incomplete_coloring(self):
        g = mixed_graph(2, edges=[(1, 2)])
        with pytest.raises(IncompleteColoring):
            check_proper(g, Coloring({1: 1}))
        with pytest.raises(IncompleteColoring):
            check_proper(g, Coloring({1: 1, 2: 2, 3: 1}))

    def test_superstring_figure_coloring(self):
        inst = SuperstringInstance(("01", "100", "11"), 4)
        g, _ = reduce_superstring(inst)
        coloring = superstring_coloring(inst, "1010")
        ok, violation = check_proper(g, coloring)
        assert ok and violation is None
        assert coloring.num_colors() == 4


class TestLowerBounds:
    def test_directed_path(self):
        for ell in (1, 3, 5):
            lb = lower_bounds(directed_path(ell))
            assert (lb.chi_u, lb.maxrank) == (2, ell)
            assert lb.combined == ell + 1

    def test_edgeless_arc_free(self):
        lb = lower_bounds(mixed_graph(4))
        assert (lb.chi_u, lb.maxrank, lb.combined) == (1, 0, 1)

    def test_layered_cliques(self):
        # adjacent layers of G_{2,3} induce K_6 in the underlying graph
        lb = lower_bounds(family_layered_cliques(2, 3))
        assert (lb.chi_u, lb.maxrank) == (6, 2)
        assert lb.combined >= 3

    def test_empty_graph(self):
        assert lower_bounds(mixed_graph(0)).combined == 0

    def test_budget_falls_back_to_clique_number(self, monkeypatch):
        g = family_layered_cliques(2, 3)
        # one node does not finish the clique search, so there is nothing to fall back on
        with pytest.raises(BudgetExceeded, match="clique search exceeded 1 nodes"):
            lower_bounds(g, budget=1)
        budgets, clique_number = [], bounds.clique_number
        monkeypatch.setattr(bounds, "clique_number", lambda g, budget: budgets.append(budget) or clique_number(g, budget))
        # six nodes finish the clique search but not the coloring, which takes seven
        lb = lower_bounds(g, budget=6)
        assert budgets == [6, 6]  # the fallback keeps the caller's budget
        assert not lb.chi_u_exact
        assert lb.chi_u == 6  # adjacent layers induce K_6; the clique is found
        full = lower_bounds(g)
        assert full.chi_u_exact and full.chi_u >= lb.chi_u


def windows(g):
    return max([g.floor[v] + g.ceiling[v] + 1 for v in g.vertices], default=0)


def joined_pairs(g):
    """The pairs of vertices that an edge or an arc of g joins."""
    return {frozenset(pair) for pair in g.edges | g.arcs}


def greedy_clique(g, clique, pairs):
    """Grow the vertex list ``clique`` greedily: every other vertex, by ``floor +
    ceiling`` descending, then id, joins if ``pairs`` holds its pair with each member."""
    key = [f + c for f, c in zip(g.floor, g.ceiling)]
    for u in sorted(g.vertices, key=lambda u: (-key[u], u)):
        if u not in clique and all(frozenset((u, w)) in pairs for w in clique):
            clique.append(u)
    return clique


def hall_count(g, clique):
    """The largest a + b + (members with floor >= a and ceiling >= b), over the a
    and b where there are such members."""
    best = 0
    for a in {g.floor[u] for u in clique}:
        for b in {g.ceiling[u] for u in clique}:
            count = sum(g.floor[u] >= a and g.ceiling[u] >= b for u in clique)
            if count:
                best = max(best, a + b + count)
    return best


def plain_window_clique_bound(g):
    """The window-clique rule without the closure: from each vertex, in id
    order, a clique grows greedily on the underlying graph and scores its Hall
    count; the windows alone are the start."""
    pairs = joined_pairs(g)
    return max([windows(g)] + [hall_count(g, greedy_clique(g, [v], pairs)) for v in g.vertices])


def closure_window_clique_bound(g):
    """The full rule in any start order: each plain greedy clique grows again on
    the underlying graph of ``transitive_closure(g)`` and scores its Hall count;
    the windows alone are the start."""
    plain, closure = joined_pairs(g), joined_pairs(transitive_closure(g))
    cliques = [greedy_clique(g, greedy_clique(g, [v], plain), closure) for v in g.vertices]
    return max([windows(g)] + [hall_count(g, clique) for clique in cliques])


def assert_window_clique_bound_holds(g):
    chi = brute_force_chi(g)[0]
    bound = window_clique_bound(g, g.n + 1)  # no bound exceeds n
    assert windows(g) <= plain_window_clique_bound(g) <= bound <= chi
    assert bound == closure_window_clique_bound(g)
    for stop in range(bound + 1):  # stops early at stop, never above the full bound
        assert min(stop, bound) <= window_clique_bound(g, stop) <= bound
    for stop in range(bound, g.n + 2):  # the bracket's stops: a stop at or above the full bound returns it
        assert window_clique_bound(g, stop) == bound


class TestWindowCliqueBound:
    def test_beats_the_windows_and_the_clique_number(self):
        # vertices 1 and 2 share an edge and each needs a colour above it, so
        # both lie in 1 .. k - 1 with distinct colours: k >= 3
        g = mixed_graph(4, edges=[(1, 2)], arcs=[(1, 3), (2, 4)])
        assert (windows(g), clique_number(g)) == (2, 2)
        assert window_clique_bound(g, 10) == brute_force_chi(g)[0] == 3
        assert window_clique_bound(g, 2) == 2  # the windows alone reach the stop

    def test_the_closure_extends_the_cliques(self):
        # 1 sees all of the path 4 -> 2 -> 3, so {1, 2, 3, 4} is a clique of the
        # closure: 4 colours, where the underlying cliques are triangles
        g = mixed_graph(4, edges=[(1, 2), (1, 3), (1, 4)], arcs=[(2, 3), (4, 2)])
        assert plain_window_clique_bound(g) == 3
        assert window_clique_bound(g, 10) == brute_force_chi(g)[0] == 4
        assert window_clique_bound(g, 3) == 3  # the windows alone reach the stop

        # here the windows alone give 3, short of the stop 4: the first grown
        # clique reaches 4 and ends the loop, so the clique giving 5 is never grown
        h = mixed_graph(
            6,
            edges=[(1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5), (3, 6), (4, 5)],
            arcs=[(2, 3), (2, 6), (6, 1)],
        )
        assert window_clique_bound(h, 0) == 3
        assert plain_window_clique_bound(h) == 4
        assert window_clique_bound(h, 10) == brute_force_chi(h)[0] == 5
        assert window_clique_bound(h, 4) == 4

    @settings(max_examples=150)
    @given(mixed_graphs(max_n=10))
    @example(mixed_graph(0))
    def test_between_the_windows_and_chi(self, g):
        assert_window_clique_bound_holds(g)

    def test_between_the_windows_and_chi_on_the_corpus(self, small_corpus):
        for g in small_corpus:
            assert_window_clique_bound_holds(g)


def window_sets(g, k):
    return {v: set(range(1 + g.floor[v], k - g.ceiling[v] + 1)) for v in g.vertices}


def propagation_empties_a_domain(g, k):
    """The window rules by plain sweeps over colour sets, to their fixpoint: True
    when a domain empties. Across an arc u -> v, v keeps the colours above u's
    smallest and u those below v's largest; a one-colour domain removes its colour
    from the edge neighbours'."""
    domain = window_sets(g, k)
    changed = True
    while changed:
        if not all(domain.values()):
            return True
        changed = False
        for u, v in g.arcs:
            if domain[u] and domain[v]:
                tail, head = min(domain[u]), max(domain[v])
                kept = ({c for c in domain[u] if c < head}, {c for c in domain[v] if c > tail})
                changed |= kept != (domain[u], domain[v])
                domain[u], domain[v] = kept
        for u, v in g.edges:
            for a, b in ((u, v), (v, u)):
                if len(domain[a]) == 1 and domain[a] <= domain[b]:
                    domain[b] = domain[b] - domain[a]
                    changed = True
    return False


UNBOUNDED = 1 << 62


def reference_dive(g, k):
    """The search's first descent without backtracking, as ``bounds.dive`` ran it before the
    search replaced it: (a colouring or None, the fixes it made). The open vertex with the
    fewest colours left, then the most neighbours, then the lowest id, takes its lowest
    colour, and the propagation runs again until a domain empties or every domain holds one
    colour."""
    domain = bounds._propagated(g, k)
    if domain is None:
        return None, 0
    degree = [mask.bit_count() for mask in g.adjacent_masks]
    open_ = sorted([v for v in g.vertices if domain[v] & (domain[v] - 1)], key=degree.__getitem__, reverse=True)
    fixes = 0
    while open_:
        v = min(open_, key=lambda u: domain[u].bit_count())
        domain[v] &= -domain[v]
        fixes += 1
        if bounds._propagate(g, domain, [v]):
            return None, fixes
        open_ = [u for u in open_ if domain[u] & (domain[u] - 1)]
    return Coloring({v: domain[v].bit_length() - 1 for v in g.vertices}), fixes


class TestWindowsRefute:
    def test_an_edge_between_two_fixed_heads(self):
        # at k = 2 the tails 1 and 2 are fixed at 1 and the heads 3 and 4 at 2,
        # so the edge 3 - 4 empties one head; at k = 3 nothing is fixed
        g = mixed_graph(4, edges=[(3, 4)], arcs=[(1, 3), (2, 4)])
        assert window_clique_bound(g, 10) == 2
        assert bounds.windows_refute(g, 2) and not bounds.windows_refute(g, 3)
        assert brute_force_chi(g)[0] == 3

    def test_sound_and_the_fixpoint_of_the_rules(self):
        # chi from brute-force decides, which do not read the bracket; the search
        # decides every k as brute does, and under a cap of n nodes it leaves 172 of
        # them open
        checks = below = refuted = capped = 0
        for seed in range(2000):
            rng = random.Random(seed)
            n = rng.randint(1, 10)
            g = random_mixed_graph(rng, n, rng.random() * 0.7, rng.random() * 0.3)
            chi = next(k for k in range(1, n + 1) if brute_force_decide(g, k) is not None)
            for k in range(1, n + 2):
                answer = bounds.windows_refute(g, k)
                assert not (answer and k >= chi), (seed, k)
                assert answer == propagation_empties_a_domain(g, k), (seed, k)
                coloring, unspent = bounds.window_search(g, k, UNBOUNDED)
                assert unspent >= 0 and (coloring is not None) == (k >= chi), (seed, k)
                if coloring is not None:
                    assert check_proper(g, coloring)[0] and coloring.max_color() <= k, (seed, k)
                capped_coloring, left = bounds.window_search(g, k, n)
                assert left >= 0 or capped_coloring is None, (seed, k)
                assert not (capped_coloring is None and left >= 0 and k >= chi), (seed, k)
                if capped_coloring is not None:
                    assert check_proper(g, capped_coloring)[0] and capped_coloring.max_color() <= k, (seed, k)
                dived, fixes = reference_dive(g, k)
                if dived is not None:  # the first descent is the dive, and makes its fixes
                    assert bounds.window_search(g, k, fixes) == (dived, 0), (seed, k)
                else:  # the windows refute k at the root, the symmetry rule leaves an arc-free
                    # dive no other branch, so the search refutes k with its fixes, or the
                    # search needs one node more
                    refuted_by_dive = answer or (not g.arcs and UNBOUNDED - unspent == fixes)
                    assert bounds.window_search(g, k, fixes) == (None, 0 if refuted_by_dive else -1), (seed, k)
                checks += 1
                below += k < chi
                refuted += answer
                capped += left < 0
        assert (checks, below, refuted, capped) == (12_971, 3_955, 3_366, 172)

    def test_the_search_keeps_one_domain_list_and_a_trail(self):
        # 500 disjoint stars K_1,3 and a triangle at k = 2: the centres have the most
        # neighbours, so the search fixes all 500 (each fix settles its leaves) before the
        # triangle empties a domain, then backtracks until its nodes run out; a copy of
        # the domains per level would hold 500 * 2,003 slots, about 8 MB
        stars = 500
        n = 4 * stars + 3
        edges = [(c, c + i) for c in range(1, 4 * stars, 4) for i in (1, 2, 3)]
        g = mixed_graph(n, edges=edges + [(n - 2, n - 1), (n - 1, n), (n - 2, n)])
        g.adjacent_masks, g.floor, g.ceiling  # derived on first read, before the trace
        tracemalloc.start()
        try:
            assert bounds.window_search(g, 2, stars + 10) == (None, -1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 400 * n


class TestLayeringColoring:
    def test_layered_cliques_tight(self):
        for ell in (1, 2, 3):
            for k in (1, 2, 3):
                g = family_layered_cliques(ell, k)
                coloring = layering_coloring(g)
                assert coloring.num_colors() == (ell + 1) * k
                assert check_proper(g, coloring)[0]

    def test_arc_free_bipartite(self):
        g = mixed_graph(4, edges=[(1, 3), (1, 4), (2, 3), (2, 4)])
        assert layering_coloring(g).num_colors() == 2

    def test_directed_path(self):
        for ell in (1, 4):
            assert layering_coloring(directed_path(ell)).num_colors() == ell + 1

    def test_proper_and_bounded_by_layer_sum(self, small_corpus):
        for g in small_corpus:
            coloring = layering_coloring(g)
            assert check_proper(g, coloring)[0]
            lay = layering(g)
            total = 0
            for layer in lay.layers:
                sub, _ = induced_subgraph(g, layer)
                total += chi_u_exact(sub)[0]
            assert coloring.num_colors() <= total


def test_layering_coloring_raises_past_the_budget(monkeypatch):
    # the Grötzsch graph is one layer, searched up from its clique number 2: refuting 2
    # takes more than one node
    monkeypatch.setattr(bounds, "DEFAULT_NODE_BUDGET", 1)
    with pytest.raises(BudgetExceeded, match="layer search exceeded 1 nodes"):
        layering_coloring(grotzsch())


class TestVcColoring:
    def test_path_p6_optimal(self):
        g = directed_path(6)
        size, cover = vertex_cover_number(g)
        assert size == 3
        coloring = vc_coloring(g, cover)
        assert check_proper(g, coloring)[0]
        assert coloring.num_colors() == 7

    def test_single_edge(self):
        g = mixed_graph(2, edges=[(1, 2)])
        coloring = vc_coloring(g, {1})
        assert check_proper(g, coloring)[0]
        assert coloring.max_color() <= 3

    def test_edgeless_empty_cover(self):
        g = mixed_graph(3)
        coloring = vc_coloring(g, set())
        assert set(coloring.colors.values()) == {1}

    def test_invalid_cover(self):
        g = mixed_graph(3, edges=[(1, 2)], arcs=[(2, 3)])
        with pytest.raises(InvalidCover):
            vc_coloring(g, {3})  # edge {1,2} uncovered
        with pytest.raises(InvalidCover):
            vc_coloring(g, {1})  # arc (2,3) is an underlying edge

    def test_bound_on_corpus(self, small_corpus):
        for g in small_corpus:
            size, cover = vertex_cover_number(g)
            coloring = vc_coloring(g, cover)
            assert check_proper(g, coloring)[0]
            assert coloring.max_color() <= 2 * size + 1

    @settings(max_examples=300)
    @given(mixed_graphs(), st.data())
    def test_bound_for_any_valid_cover(self, g, data):
        # a random vertex set, grown by one drawn endpoint of each uncovered relation
        cover = {v for v in g.vertices if data.draw(st.booleans())}
        for u, v in sorted((*g.edges, *g.arcs)):
            if u not in cover and v not in cover:
                cover.add(data.draw(st.sampled_from((u, v))))
        coloring = vc_coloring(g, cover)
        assert check_proper(g, coloring)[0]
        assert coloring.max_color() <= 2 * len(cover) + 1
        assert all((color % 2 == 0) == (v in cover) for v, color in coloring.colors.items())


class TestBracketing:
    def test_chi_between_bounds(self, small_corpus):
        for g in small_corpus:
            if g.n > 8:
                continue
            chi, _ = brute_force_chi(g)
            result = chromatic_bounds(g)
            assert max(clique_number(g), maxrank(g) + 1) <= result.lower <= chi <= result.upper
            assert check_proper(g, result.upper_witness)[0]
            assert len(set(result.upper_witness.colors.values())) == result.upper

    def test_empty_graph(self):
        result = chromatic_bounds(mixed_graph(0))
        assert (result.lower, result.upper, result.lower_witness) == (0, 0, "window_propagation")

    def test_the_cheaper_bound_names_an_end_both_reach(self):
        # edge 1-2, both with an out-neighbour: at k = 2 both tails are fixed at 1,
        # and the clique {1, 2} has two members in 1 .. k - 1; the propagation runs first
        g = mixed_graph(4, edges=[(1, 2)], arcs=[(1, 3), (2, 4)])
        assert window_clique_bound(g, 0) == 2
        assert window_clique_bound(g, 10) == 3 and bounds.windows_refute(g, 2)
        lower, upper, source = bounds.bracket(g)
        assert (lower, upper.num_colors(), source) == (3, 3, "window_propagation")

    def test_the_search_names_the_end_it_raises(self):
        # the triangle 1 2 5 gives 3, and so does the propagation, as the tails 1 and 2
        # of the arcs 1 -> 3 and 2 -> 4 are fixed at k = 2; both heads sit beside 5,
        # so chi is 4: the window search refutes 3 in two nodes and names the end, which
        # meets the schedules' 4
        g = mixed_graph(5, edges=[(1, 2), (1, 5), (2, 5), (3, 5), (4, 5)], arcs=[(1, 3), (2, 4)])
        assert window_clique_bound(g, 10) == 3 and brute_force_chi(g)[0] == 4
        stats = {}
        lower, upper, source = bounds.bracket(g, DEFAULT_NODE_BUDGET, stats)
        assert (lower, upper.num_colors(), source, stats) == (4, 4, "window_search", {"search_nodes": 2})

    def test_a_later_bound_names_the_end_only_when_it_raises_it(self):
        # the propagation gives 3; the window search gives up on 3 past its 8 nodes, the
        # window cliques then run but leave the end where it was, so a second round would
        # repeat the first and does not run; the budgeted search then refutes 3 in 10
        # nodes, names the end, and colours with chi = 4 in 5 more (found by a seeded
        # search of random graphs)
        g = mixed_graph(
            8,
            edges=[(1, 3), (1, 5), (1, 8), (2, 5), (2, 6), (2, 7), (2, 8), (3, 7), (5, 7), (5, 8), (6, 8)],
            arcs=[(6, 3)],
        )
        assert window_clique_bound(g, 10) == 3 and brute_force_chi(g)[0] == 4
        assert not bounds.windows_refute(g, 3) and bounds.window_search(g, 3, g.n) == (None, -1)
        stats = {}
        lower, upper, source = bounds.bracket(g, DEFAULT_NODE_BUDGET, stats)
        assert (lower, upper.num_colors(), source, stats) == (4, 4, "window_search", {"search_nodes": 23})

    def test_split_superstring_brackets_keep_their_ends(self):
        # the paper's split reduction, 2-3 binary strings of length 2-3: at budget 10**4,
        # 41 of 200 brackets stay open
        pairs = []
        for i in range(200):
            rng = random.Random(1000 + i)
            strings = tuple(
                "".join(rng.choice("01") for _ in range(rng.randint(2, 3))) for _ in range(rng.randint(2, 3))
            )
            k = rng.randint(max(map(len, strings)), sum(map(len, strings)))
            g, _ = reduce_superstring(SuperstringInstance(strings, k), split=True)
            lower, upper, _ = bounds.bracket(g, 10**4)
            pairs.append((lower, upper.num_colors()))
        assert sum(lower < upper for lower, upper in pairs) == 41
        assert hashlib.sha256(repr(pairs).encode()).hexdigest()[:16] == "bc8de7c052bc3c58"

    def test_random_brackets_all_close(self):
        # 1,500 draws of 16 vertices: the two n-node rounds leave 74 brackets open, and
        # the budgeted search closes every one of them within 10**4 nodes
        pairs = []
        for i in range(1500):
            lower, upper, _ = bounds.bracket(random_mixed_graph(random.Random(i), 16, 0.4, 0.1), 10**4)
            pairs.append((lower, upper.num_colors()))
        assert sum(lower < upper for lower, upper in pairs) == 0
        assert hashlib.sha256(repr(pairs).encode()).hexdigest()[:16] == "2653ea311cd5c8e8"

    def test_an_arc_free_bracket_keeps_the_chi_u_coloring(self):
        # no arc: where both search rounds give up, the budgeted search is the chi_u
        # search, and its coloring closes the bracket that the schedules leave at 9 colors
        g = random_mixed_graph(random.Random(24), 30, 0.5, 0.0)
        assert min(bounds.schedule_coloring(g).num_colors(), bounds.schedule_coloring(g, True).num_colors()) == 9
        stats = {}
        lower, upper, source = bounds.bracket(g, 10**5, stats)
        assert (lower, upper.num_colors(), source, stats) == (7, 7, "window_search", {"search_nodes": 147})
        assert upper.colors == chi_u_exact(g, 10**5, 7)[1] and check_proper(g, upper)[0]

    def test_the_search_takes_one_component_at_a_time(self):
        # the star K_1,14 beside the Grötzsch graph, no arcs: a search of the whole graph
        # fixes the 14 leaves first and refutes the Grötzsch graph's 3 again under each
        # of their colourings, past 10**4 nodes; taken alone, the Grötzsch graph's 3 falls
        # and its 4 closes the bracket
        g = mixed_graph(26, [(1, leaf) for leaf in range(2, 16)] + [(u + 15, v + 15) for u, v in grotzsch().edges])
        assert bounds.window_search(g, 3, 10**4) == (None, -1)
        lower, upper, source = bounds.bracket(g, 10**4)
        assert (lower, upper.num_colors(), source) == (4, 4, "window_search")
        assert check_proper(g, upper)[0]

    def test_the_search_spends_no_more_than_its_budget(self):
        # a split superstring graph that superstring_exists answers no at 5 (n = 66): the
        # window cliques give 5 before the first round, which gives up on 5 past its n
        # nodes; nothing raises the end, so no second round runs, and the budgeted search
        # gives up on 5 after exactly its budget
        g, _ = reduce_superstring(SuperstringInstance(("0110", "011", "1000"), 5), split=True)
        assert bounds.window_search(g, 5, g.n) == (None, -1)
        stats = {}
        lower, upper, source = bounds.bracket(g, 10**5, stats)
        assert (lower, upper.num_colors(), source) == (5, 6, "window_clique")
        assert stats["search_nodes"] == g.n + 10**5

    def test_maxrank_plus_one_lower_bound(self, small_corpus):
        # strengthened form of the rank bound, checked against the oracle
        for g in small_corpus:
            if 0 < g.n <= 8:
                chi, _ = brute_force_chi(g)
                assert chi >= lower_bounds(g).maxrank + 1
