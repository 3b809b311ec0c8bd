"""Reductions as generators, their source-problem oracles, and the families."""

import random

import pytest

from mixedcolor import (
    ListColoringInstance,
    SchedulingInstance,
    SuperstringInstance,
    branching_decide,
    brute_force_chi,
    brute_force_decide,
    check_proper,
    evaluate,
    family_grid_arc_vertices,
    family_grid_hamiltonian,
    family_hamiltonian_tournament,
    family_layered_cliques,
    family_oriented_grid,
    family_oriented_star,
    family_tripartite,
    is_supersequence,
    layering,
    list_coloring_exists,
    maxrank,
    mixed_graph,
    multicolored_clique_exists,
    ndm,
    ndu,
    random_mixed_graph,
    reduce_list_coloring,
    reduce_multicolored_clique,
    reduce_scheduling,
    reduce_superstring,
    schedule_exists,
    split_superstring_expression,
    superstring_exists,
    transitive_closure,
    tw_dp_decide,
    underlying_undirected,
    vertex_cover_number,
    width,
)
from mixedcolor.graphs import normalize_edge
from mixedcolor.treedecomp import make_nice, min_fill_decomposition


def relabel_to(g, order):
    remap = {i + 1: order[i] for i in range(g.n)}
    edges = frozenset(normalize_edge(remap[u], remap[v]) for u, v in g.edges)
    arcs = frozenset((remap[u], remap[v]) for u, v in g.arcs)
    return mixed_graph(g.n, edges, arcs)


FIG_STRINGS = ("01", "100", "11")


class TestSuperstring:
    def test_supersequence_predicate(self):
        assert is_supersequence("1010", "01")
        assert is_supersequence("1010", "100")
        assert is_supersequence("1010", "11")
        assert not is_supersequence("101", "100")

    def test_figure_instance_shape(self):
        g, k = reduce_superstring(SuperstringInstance(FIG_STRINGS, 4))
        assert (g.n, k) == (7, 4)
        assert len(g.arcs) == 4  # one arc per consecutive character pair

    def test_figure_chromatic_number(self):
        g, _ = reduce_superstring(SuperstringInstance(FIG_STRINGS, 4))
        assert brute_force_chi(g)[0] == 4
        assert superstring_exists(FIG_STRINGS, 4)
        assert not superstring_exists(FIG_STRINGS, 3)
        assert brute_force_decide(g, 3) is None

    def test_split_maxrank_one(self):
        for strings, k in ((FIG_STRINGS, 4), (("010", "11"), 3), (("1101",), 5)):
            g, _ = reduce_superstring(SuperstringInstance(strings, k), split=True)
            assert maxrank(g) == 1
        # a single-character string leaves no arcs at all
        g, _ = reduce_superstring(SuperstringInstance(("0",), 2), split=True)
        assert maxrank(g) == 0

    def test_split_and_unsplit_agree(self):
        rng = random.Random(99)
        for _ in range(12):
            strings = tuple(
                "".join(rng.choice("01") for _ in range(rng.randint(1, 3)))
                for _ in range(rng.randint(1, 2))
            )
            k = rng.randint(max(len(s) for s in strings), 4)
            inst = SuperstringInstance(strings, k)
            plain, _ = reduce_superstring(inst)
            split, _ = reduce_superstring(inst, split=True)
            expected = brute_force_decide(plain, k) is not None
            got = tw_dp_decide(split, make_nice(min_fill_decomposition(split)), k).decision
            assert got == expected

    def test_split_expression_matches_graph(self):
        for strings, k in ((FIG_STRINGS, 4), (("10",), 3), (("0", "1"), 2)):
            inst = SuperstringInstance(strings, k)
            g, _ = reduce_superstring(inst, split=True)
            expr, order = split_superstring_expression(inst)
            assert width(expr) <= 6
            assert relabel_to(evaluate(expr).graph, order) == g

    def test_oracle_equivalence_sample(self):
        rng = random.Random(7)
        for _ in range(25):
            strings = tuple(
                "".join(rng.choice("01") for _ in range(rng.randint(1, 4)))
                for _ in range(rng.randint(1, 3))
            )
            if sum(len(s) for s in strings) > 8:
                continue
            k = rng.randint(1, 6)
            g, _ = reduce_superstring(SuperstringInstance(strings, max(k, 1)))
            assert (brute_force_decide(g, k) is not None) == superstring_exists(
                strings, k
            )


class TestScheduling:
    FIG = SchedulingInstance(("t1",), ("t2", "t3"), (("t1", "t3"),), 2)

    def test_figure_is_eight_colorable(self):
        g, k = reduce_scheduling(self.FIG)
        assert k == 8
        result = branching_decide(g, 8)
        assert result.decision
        assert check_proper(g, result.witness)[0]

    def test_tight_deadline_fails(self):
        inst = SchedulingInstance(("t1",), ("t2", "t3"), (("t1", "t3"),), 1)
        g, k = reduce_scheduling(inst)
        assert k == 4
        assert not branching_decide(g, 4).decision
        assert not schedule_exists(inst)

    def test_no_tasks(self):
        inst = SchedulingInstance((), (), (), 1)
        g, k = reduce_scheduling(inst)
        assert g.n == 4 and k == 4
        assert brute_force_decide(g, 4) is not None
        assert schedule_exists(inst)

    def test_closure_has_eight_undirected_types(self):
        for inst in (
            self.FIG,
            SchedulingInstance(("a", "b"), ("c",), (), 2),
            SchedulingInstance(("a",), ("b",), (("a", "b"),), 3),
        ):
            g, _ = reduce_scheduling(inst)
            assert ndu(transitive_closure(g)) == 8

    def test_closed_precedence(self):
        inst = SchedulingInstance(("a", "c"), ("b", "d"), (("a", "b"), ("b", "c"), ("a", "b")), 2)
        assert inst.closed_precedence == {("a", "b"), ("b", "c"), ("a", "c")}
        assert inst.closed_precedence is inst.closed_precedence  # built once, in __post_init__

    def test_long_cycle_rejected(self):
        with pytest.raises(ValueError, match="^precedence contains a cycle$"):
            SchedulingInstance(("a", "b"), ("c",), (("a", "b"), ("b", "c"), ("c", "a")), 2)

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            SchedulingInstance(("a", "b"), (), (("a", "b"), ("b", "a")), 2)

    def test_path_coloring_forced(self):
        g, k = reduce_scheduling(self.FIG)
        witness = branching_decide(g, k).witness
        assert [witness.colors[i] for i in range(1, 9)] == list(range(1, 9))


class TestListColoring:
    def test_instances_are_undirected(self):
        # gen list_coloring builds its graph from edges alone, so only the API reaches this
        with pytest.raises(ValueError, match=r"^list coloring instances are undirected$"):
            ListColoringInstance(mixed_graph(2, arcs=[(1, 2)]), {1: frozenset({1}), 2: frozenset({2})}, 2)

    def test_blocker_paths_added(self):
        base = mixed_graph(1)
        inst = ListColoringInstance(base, {1: frozenset({1, 4})}, 5)
        g, k = reduce_list_coloring(inst)
        assert k == 5
        assert g.n == 1 + 3 * 5  # three forbidden colors, one path each
        # the j-th vertex of each blocker path is tied to the vertex;
        # paths start at 2, 7, 12 for forbidden colors 2, 3, 5
        blocked = sorted(j for v, j in g.edges if v == 1)
        assert blocked == [2 + 1, 7 + 2, 12 + 4]

    def test_full_lists_add_nothing(self):
        base = mixed_graph(3, edges=[(1, 2), (2, 3)])
        lists = {v: frozenset({1, 2, 3}) for v in (1, 2, 3)}
        g, k = reduce_list_coloring(ListColoringInstance(base, lists, 3))
        assert g == base and k == 3

    def test_single_vertex_forced_color(self):
        base = mixed_graph(1)
        inst = ListColoringInstance(base, {1: frozenset({2})}, 2)
        g, k = reduce_list_coloring(inst)
        witness = brute_force_decide(g, k)
        assert witness is not None and witness.colors[1] == 2
        inst1 = ListColoringInstance(base, {1: frozenset({1})}, 2)
        g1, k1 = reduce_list_coloring(inst1)
        w1 = brute_force_decide(g1, k1)
        assert w1 is not None and w1.colors[1] == 1

    def test_oracle_equivalence_sample(self):
        rng = random.Random(13)
        for _ in range(20):
            n = rng.randint(1, 5)
            base = random_mixed_graph(rng, n, 0.5, 0.0)
            ell = rng.randint(2, 4)
            lists = {
                v: frozenset(rng.sample(range(1, ell + 1), rng.randint(1, ell)))
                for v in base.vertices
            }
            inst = ListColoringInstance(base, lists, ell)
            g, k = reduce_list_coloring(inst)
            td = min_fill_decomposition(g)
            assert tw_dp_decide(g, make_nice(td), k).decision == list_coloring_exists(inst)


class TestMulticoloredClique:
    def test_clique_instance_feasible(self):
        # five vertices, classes {1,4} {2,3} {5}; multicolored clique {1,2,5}
        g = mixed_graph(5, edges=[(1, 2), (1, 5), (2, 5), (3, 4)])
        classes = (frozenset({1, 4}), frozenset({2, 3}), frozenset({5}))
        assert multicolored_clique_exists(g, classes)
        inst = reduce_multicolored_clique(g, classes)
        assert list_coloring_exists(inst)

    @pytest.mark.parametrize("check", [multicolored_clique_exists, reduce_multicolored_clique])
    def test_arcs_rejected(self, check):
        g = mixed_graph(2, arcs=[(1, 2)])
        with pytest.raises(ValueError, match="multicolored clique instances are undirected"):
            check(g, (frozenset({1}), frozenset({2})))

    def test_complete_multipartite_trivial(self):
        g = mixed_graph(
            4, edges=[(1, 3), (1, 4), (2, 3), (2, 4)]
        )
        classes = (frozenset({1, 2}), frozenset({3, 4}))
        inst = reduce_multicolored_clique(g, classes)
        assert inst.graph.n == len(classes)  # no edge vertices
        assert list_coloring_exists(inst)

    def test_oracle_equivalence_sample(self):
        rng = random.Random(17)
        for _ in range(25):
            n = rng.randint(3, 8)
            g = random_mixed_graph(rng, n, 0.5, 0.0)
            ids = list(g.vertices)
            rng.shuffle(ids)
            third = max(1, n // 3)
            classes = (
                frozenset(ids[:third]),
                frozenset(ids[third: 2 * third]),
                frozenset(ids[2 * third:]),
            )
            inst = reduce_multicolored_clique(g, classes)
            assert list_coloring_exists(inst) == multicolored_clique_exists(g, classes)


class TestFamilies:
    def test_tripartite_values(self):
        for ell in (1, 2, 3, 4):
            g = family_tripartite(ell)
            assert ndm(g) == ndu(g) == 2 * ell + 4
            assert ndm(transitive_closure(g)) == 6

    def test_hamiltonian_tournament_values(self):
        for ell in (2, 3, 4):
            g = family_hamiltonian_tournament(ell)
            assert ndu(g) == 1
            assert ndm(g) == ell

    def test_grid_arc_vertices(self):
        for ell in (2, 3):
            g = family_grid_arc_vertices(ell)
            assert ndu(g) == 2
            n_grid = ell * ell
            grid_vertices = range(1, n_grid + 1)
            # independent in g
            assert all(
                normalize_edge(u, v) not in g.edges
                for u in grid_vertices
                for v in grid_vertices
                if u < v
            )
            # induce the grid in the closure's underlying graph
            closure = underlying_undirected(transitive_closure(g))
            ids = {(r, c): (r - 1) * ell + c for r in range(1, ell + 1) for c in range(1, ell + 1)}
            expected = set()
            for r in range(1, ell + 1):
                for c in range(1, ell + 1):
                    if c < ell:
                        expected.add(normalize_edge(ids[(r, c)], ids[(r, c + 1)]))
                    if r < ell:
                        expected.add(normalize_edge(ids[(r, c)], ids[(r + 1, c)]))
            induced = {
                (u, v)
                for (u, v) in closure.edges
                if u <= n_grid and v <= n_grid
            }
            assert induced == expected

    def test_oriented_star(self):
        for ell in (1, 3, 4):
            g = family_oriented_star(ell)
            assert vertex_cover_number(g)[0] == 1
            closure = underlying_undirected(transitive_closure(g))
            center = ell + 1
            # K_{ell,ell} between sources and sinks
            assert all(
                normalize_edge(u, center + (w - ell)) in closure.edges
                for u in range(1, ell + 1)
                for w in range(ell + 1, 2 * ell + 1)
            )

    def test_oriented_grid(self):
        g = family_oriented_grid(3)
        assert ndu(g) == 1  # underlying complete
        assert len(underlying_undirected(g).edges) == 9 * 8 // 2
        assert maxrank(g) == 4  # monotone lattice paths have length 2(ell-1)

    def test_grid_hamiltonian_closure_is_tournament(self):
        for ell in (2, 3):
            g = family_grid_hamiltonian(ell)
            n = ell * ell
            tc = transitive_closure(g)
            assert not tc.edges
            assert len(tc.arcs) == n * (n - 1) // 2
            assert maxrank(tc) == n - 1

    def test_layered_cliques_layers(self):
        g = family_layered_cliques(3, 2)
        assert [len(layer) for layer in layering(g).layers] == [2, 2, 2, 2]
