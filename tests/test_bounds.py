"""Properness checking, chromatic lower bounds, and the constructive colorings."""

import pytest
from hypothesis import example, given, settings

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
    vc_coloring,
    vertex_cover_number,
)
from mixedcolor import bounds
from mixedcolor.bounds import chi_u_exact, window_clique_bound
from mixedcolor.errors import BudgetExceeded
from mixedcolor.reductions import (
    SuperstringInstance,
    family_layered_cliques,
    reduce_superstring,
    superstring_coloring,
)
from mixedcolor.solvers import brute_force_chi

from subgraphs import induced_subgraph
from test_branching_properties import mixed_graphs


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
        g = family_layered_cliques(1, 3)
        # one node does not finish the clique search, so there is nothing to fall back on
        with pytest.raises(BudgetExceeded, match="clique search exceeded 1 nodes"):
            lower_bounds(g, budget=1)
        budgets, clique_number = [], bounds.clique_number
        monkeypatch.setattr(bounds, "clique_number", lambda g, budget: budgets.append(budget) or clique_number(g, budget))
        # six nodes finish the clique search but not the coloring
        lb = lower_bounds(g, budget=6)
        assert budgets == [6, 6]  # the fallback keeps the caller's budget
        assert not lb.chi_u_exact
        assert lb.chi_u == 6  # adjacent layers induce K_6; the clique is found
        full = lower_bounds(g)
        assert full.chi_u_exact and full.chi_u >= lb.chi_u


def windows(g):
    return max([g.floor[v] + g.ceiling[v] + 1 for v in g.vertices], default=0)


def assert_window_clique_bound_holds(g):
    chi = brute_force_chi(g)[0]
    bound = window_clique_bound(g, g.n + 1)  # no bound exceeds n
    assert windows(g) <= bound <= chi
    for stop in range(bound + 1):  # stops early at stop, never above the full bound
        assert min(stop, bound) <= window_clique_bound(g, stop) <= bound


class TestWindowCliqueBound:
    def test_beats_the_windows_and_the_clique_number(self):
        # vertices 1 and 2 share an edge and each needs a colour above it, so
        # both lie in 1 .. k - 1 with distinct colours: k >= 3
        g = mixed_graph(4, edges=[(1, 2)], arcs=[(1, 3), (2, 4)])
        assert (windows(g), clique_number(g)) == (2, 2)
        assert window_clique_bound(g, 10) == brute_force_chi(g)[0] == 3
        assert window_clique_bound(g, 2) == 2  # the windows alone reach the stop

    @settings(max_examples=150)
    @given(mixed_graphs())
    @example(mixed_graph(0))
    def test_between_the_windows_and_chi(self, g):
        assert_window_clique_bound_holds(g)

    def test_between_the_windows_and_chi_on_the_corpus(self, small_corpus):
        for g in small_corpus:
            assert_window_clique_bound_holds(g)


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
        assert (result.lower, result.upper, result.lower_witness) == (0, 0, "undirected_clique")

    def test_maxrank_plus_one_lower_bound(self, small_corpus):
        # strengthened form of the rank bound, checked against the oracle
        for g in small_corpus:
            if 0 < g.n <= 8:
                chi, _ = brute_force_chi(g)
                assert chi >= lower_bounds(g).maxrank + 1
