"""Neighborhood partitions, vertex cover, clique number, and their bounds."""

import itertools
import sys

import pytest

from mixedcolor import (
    BudgetExceeded,
    clique_number,
    evaluate,
    lower_bounds,
    maxrank,
    mixed_graph,
    mixed_neighborhood_partition,
    ndm,
    ndm_expression,
    ndu,
    transitive_closure,
    undirected_neighborhood_partition,
    underlying_undirected,
    vertex_cover_number,
)
from mixedcolor import partitions
from mixedcolor.reductions import family_hamiltonian_tournament, family_layered_cliques, family_tripartite
from subgraphs import scanned


def complete(n):
    return mixed_graph(n, edges=[(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def tournament(n):
    return mixed_graph(n, arcs=[(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def directed_path(length):
    return mixed_graph(length + 1, arcs=[(i, i + 1) for i in range(1, length + 1)])


class TestMixedPartition:
    def test_complete_graph_single_clique_class(self):
        part = mixed_neighborhood_partition(complete(5))
        assert len(part) == 1 and part.class_kinds == ("clique",)

    def test_tournament_all_singletons(self):
        for n in (2, 4, 6):
            part = mixed_neighborhood_partition(tournament(n))
            assert len(part) == n
            assert all(len(c) == 1 for c in part.classes)

    def test_tripartite_family(self):
        assert ndm(family_tripartite(3)) == 10

    def test_classes_clique_or_independent(self, small_corpus):
        for g in small_corpus:
            part = mixed_neighborhood_partition(g)
            for cls, kind in zip(part.classes, part.class_kinds):
                members = sorted(cls)
                pairs = [
                    (u, v) for i, u in enumerate(members) for v in members[i + 1:]
                ]
                if kind == "clique":
                    assert all((u, v) in g.edges for u, v in pairs)
                else:
                    assert all((u, v) not in g.edges for u, v in pairs)
                # never an arc inside a class
                assert all(
                    (u, v) not in g.arcs and (v, u) not in g.arcs for u, v in pairs
                )

    def test_partition_is_coarsest(self, small_corpus):
        # directly re-stated type predicate; merging any two classes must fail
        for g in small_corpus:
            if g.n > 7:
                continue
            nin, nout, nund = scanned(g)

            def same(u, v):
                return (
                    nin[u] == nin[v]
                    and nout[u] == nout[v]
                    and nund[u] - {v} == nund[v] - {u}
                )

            part = mixed_neighborhood_partition(g)
            cls_of = {v: i for i, cls in enumerate(part.classes) for v in cls}
            for u in g.vertices:
                for v in g.vertices:
                    if u < v:
                        assert same(u, v) == (cls_of[u] == cls_of[v])


class TestUndirectedPartition:
    def test_tournament_one_class(self):
        assert ndu(tournament(5)) == 1

    def test_independent_set_one_class(self):
        assert ndu(mixed_graph(6)) == 1

    def test_star_two_classes(self):
        g = mixed_graph(4, edges=[(1, 2), (1, 3), (1, 4)])
        part = undirected_neighborhood_partition(g)
        assert len(part) == 2
        assert frozenset({1}) in part.classes


class TestVertexCover:
    def test_directed_paths(self):
        for ell in range(1, 7):
            g = directed_path(2 * ell)
            assert vertex_cover_number(g)[0] == ell

    def test_k4(self):
        assert vertex_cover_number(complete(4))[0] == 3

    def test_edgeless(self):
        assert vertex_cover_number(mixed_graph(5))[0] == 0

    def test_exact_against_enumeration(self, small_corpus):
        for g in small_corpus:
            if g.n > 8:
                continue
            und = underlying_undirected(g)
            exact = next(
                size
                for size in range(g.n + 1)
                for cand in itertools.combinations(range(1, g.n + 1), size)
                if all(u in cand or v in cand for u, v in und.edges)
            )
            size, witness = vertex_cover_number(g)
            assert size == exact == len(witness)
            assert all(u in witness or v in witness for u, v in und.edges)

    def test_no_recursion_per_branch(self):
        # 300 disjoint 4-cycles need 300 nested branchings; a search that
        # recursed once per branch would exceed this limit
        cycles = [(4 * c + i, 4 * c + i % 4 + 1) for c in range(300) for i in range(1, 5)]
        g = mixed_graph(1200, edges=cycles)
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            size, witness = vertex_cover_number(g)
        finally:
            sys.setrecursionlimit(limit)
        assert size == len(witness) == 600
        assert all(u in witness or v in witness for u, v in g.edges)

    def test_long_undirected_path(self):
        g = mixed_graph(1500, edges=[(i, i + 1) for i in range(1, 1500)])
        assert vertex_cover_number(g)[0] == 750

    def test_budget(self):
        import pytest

        from mixedcolor import BudgetExceeded

        grid = []
        ids = {(r, c): (r - 1) * 4 + c for r in range(1, 5) for c in range(1, 5)}
        for r in range(1, 5):
            for c in range(1, 5):
                if c < 4:
                    grid.append((ids[(r, c)], ids[(r, c + 1)]))
                if r < 4:
                    grid.append((ids[(r, c)], ids[(r + 1, c)]))
        g = mixed_graph(16, grid)
        with pytest.raises(BudgetExceeded):
            vertex_cover_number(g, budget=2)
        with pytest.raises(BudgetExceeded):
            clique_number(g, budget=1)


class TestCliqueNumber:
    def test_triangle(self):
        assert clique_number(complete(3)) == 3

    def test_empty_graph(self):
        assert clique_number(complete(0)) == 0

    def test_tournament_underlying_complete(self):
        assert clique_number(tournament(5)) == 5

    def test_grid_is_bipartite(self):
        edges = []
        ids = {(r, c): (r - 1) * 3 + c for r in range(1, 4) for c in range(1, 4)}
        for r in range(1, 4):
            for c in range(1, 4):
                if c < 3:
                    edges.append((ids[(r, c)], ids[(r, c + 1)]))
                if r < 3:
                    edges.append((ids[(r, c)], ids[(r + 1, c)]))
        assert clique_number(mixed_graph(9, edges)) == 2

    def test_no_recursion_per_clique_vertex(self):
        # the clique of K150 is 150 nested branchings; a search that recursed
        # once per clique vertex would exceed this limit
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            omega = clique_number(complete(150))
        finally:
            sys.setrecursionlimit(limit)
        assert omega == 150

    def test_exact_against_enumeration(self, small_corpus):
        for g in small_corpus:
            if g.n > 8:
                continue
            und = underlying_undirected(g)
            best = max(
                (
                    size
                    for size in range(1, g.n + 1)
                    for cand in itertools.combinations(range(1, g.n + 1), size)
                    if all(
                        (u, v) in und.edges
                        for i, u in enumerate(cand)
                        for v in cand[i + 1:]
                    )
                ),
                default=0,
            )
            assert clique_number(g) == best


    @pytest.mark.parametrize("n", [1, 2, 30, 150])
    def test_complete_graph_takes_one_node_per_vertex(self, n):
        # each node's colouring gives every vertex its own class: the search
        # runs straight down to the whole clique and prunes everything else
        assert clique_number(family_hamiltonian_tournament(n), budget=n) == n
        with pytest.raises(BudgetExceeded, match=f"clique search exceeded {n - 1} nodes"):
            clique_number(family_hamiltonian_tournament(n), budget=n - 1)


class TestComputedOnce:
    """The clique number and the mixed partition are computed once per graph."""

    def test_smaller_budget_after_success_raises_as_fresh(self):
        g = family_hamiltonian_tournament(40)
        assert clique_number(g, budget=40) == 40
        assert clique_number(g, budget=10**6) == 40
        for budget in (39, 1):
            with pytest.raises(BudgetExceeded) as fresh:
                clique_number(family_hamiltonian_tournament(40), budget=budget)
            with pytest.raises(BudgetExceeded) as cached:
                clique_number(g, budget=budget)
            assert str(cached.value) == str(fresh.value) == f"clique search exceeded {budget} nodes"

    def test_failed_search_keeps_nothing(self, monkeypatch):
        searches, max_clique = [], partitions.max_clique
        monkeypatch.setattr(partitions, "max_clique", lambda *args: searches.append(args[2]) or max_clique(*args))
        g = family_hamiltonian_tournament(12)
        with pytest.raises(BudgetExceeded):
            clique_number(g, budget=11)
        assert clique_number(g, budget=12) == 12
        assert clique_number(g) == 12
        assert searches == [11, 12]

    def test_lower_bounds_fallback_runs_no_second_search(self, monkeypatch):
        searches, max_clique = [], partitions.max_clique
        monkeypatch.setattr(partitions, "max_clique", lambda *args: searches.append(args[2]) or max_clique(*args))
        # six nodes finish the clique search but not the coloring
        lb = lower_bounds(family_layered_cliques(1, 3), budget=6)
        assert (lb.chi_u, lb.chi_u_exact) == (6, False)
        assert searches == [6]

    def test_ndm_expression_reuses_the_partition(self, monkeypatch):
        g = family_tripartite(3)
        part = mixed_neighborhood_partition(g)
        builds, build = [], partitions._partition_by_signature
        monkeypatch.setattr(partitions, "_partition_by_signature", lambda *args: builds.append(args) or build(*args))
        expr = ndm_expression(g)
        assert mixed_neighborhood_partition(g) is part
        assert builds == []
        assert evaluate(expr).graph.n == g.n


class TestParameterInequalities:
    def test_ndu_le_ndm(self, param_corpus):
        for g in param_corpus:
            assert ndu(g) <= ndm(g)

    def test_ndm_le_vc_plus_exponential(self, param_corpus):
        for g in param_corpus:
            vc, _ = vertex_cover_number(g)
            assert ndm(g) <= vc + 4**vc

    def test_directed_path_forces_types(self):
        for ell in range(1, 7):
            assert ndm(directed_path(ell)) >= ell + 1

    def test_closure_never_increases_ndm(self, param_corpus):
        for g in param_corpus:
            assert ndm(transitive_closure(g)) <= ndm(g)

    def test_maxrank_bounds(self, param_corpus):
        for g in param_corpus:
            if g.n == 0:
                continue
            assert maxrank(g) + 1 <= ndm(transitive_closure(g))
            vc, _ = vertex_cover_number(g)
            assert maxrank(g) <= 2 * vc
