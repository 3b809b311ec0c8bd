"""Tree decompositions: heuristic construction, PACE I/O, nice form."""

import io

import pytest

from mixedcolor import (
    InvalidDecomposition,
    TreeDecomposition,
    load_td,
    mixed_graph,
    save_td,
    min_fill_decomposition,
    validate_decomposition,
)
from mixedcolor.reductions import family_tripartite
from mixedcolor.treedecomp import make_nice


class TestMinFill:
    def test_valid_on_corpus(self, small_corpus):
        for g in small_corpus:
            td = min_fill_decomposition(g)
            validate_decomposition(td, g)

    def test_path_has_width_one(self):
        g = mixed_graph(6, arcs=[(i, i + 1) for i in range(1, 6)])
        assert min_fill_decomposition(g).width == 1

    def test_clique_width(self):
        g = mixed_graph(5, edges=[(i, j) for i in range(1, 6) for j in range(i + 1, 6)])
        assert min_fill_decomposition(g).width == 4

    # bags (sorted) and tree edges; ties on (fill, degree) go to the smaller id,
    # so a change in which vertices are rescored shows here
    PINNED = {
        "grid3x3": (
            [(1, 2, 4), (2, 3, 6), (4, 7, 8), (6, 8, 9), (2, 4, 5, 6), (4, 5, 6, 8), (5, 6, 8), (6, 8), (8,)],
            ((0, 4), (1, 4), (2, 5), (3, 7), (4, 5), (5, 6), (6, 7), (7, 8)),
        ),
        "tripartite3": (
            [(1, 2, 3, 10), (4, 5, 6, 11), (1, 2, 3, 4, 5, 6, 7), (2, 3, 4, 5, 6, 7, 8), (7, 8, 9, 12),
             (3, 4, 5, 6, 7, 8, 9), (4, 5, 6, 7, 8, 9), (5, 6, 7, 8, 9), (6, 7, 8, 9), (7, 8, 9), (8, 9), (9,)],
            ((0, 2), (1, 6), (2, 3), (3, 5), (4, 9), (5, 6), (6, 7), (7, 8), (8, 9), (9, 10), (10, 11)),
        ),
        "mixed7": (
            [(1, 2, 5, 6), (2, 3, 5, 6), (3, 4, 5, 6), (3, 5, 6, 7), (5, 6, 7), (6, 7), (7,)],
            ((0, 1), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6)),
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned_output(self, name):
        graphs = {
            "grid3x3": mixed_graph(
                9,
                edges=[(3 * r + c + 1, 3 * r + c + 2) for r in range(3) for c in range(2)]
                + [(3 * r + c + 1, 3 * r + c + 4) for r in range(2) for c in range(3)],
            ),
            "tripartite3": family_tripartite(3),
            "mixed7": mixed_graph(
                7,
                edges=[(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (6, 7)],
                arcs=[(1, 6), (2, 6), (3, 7), (6, 4), (7, 5)],
            ),
        }
        td = min_fill_decomposition(graphs[name])
        bags, tree_edges = self.PINNED[name]
        assert [tuple(sorted(bag)) for bag in td.bags] == bags
        assert td.tree_edges == tree_edges

    def test_long_path(self):
        # eliminates from the low end: bags {i, i+1}, then {1500}, in a chain
        n = 1500
        td = min_fill_decomposition(mixed_graph(n, edges=[(i, i + 1) for i in range(1, n)]))
        assert td.bags == tuple(frozenset({i, i + 1}) for i in range(1, n)) + (frozenset({n}),)
        assert td.tree_edges == tuple((i, i + 1) for i in range(n - 1))


class TestValidation:
    def test_missing_vertex(self):
        g = mixed_graph(3, edges=[(1, 2)])
        td = TreeDecomposition(3, (frozenset({1, 2}),), ())
        with pytest.raises(InvalidDecomposition, match="bags do not cover the vertex set"):
            validate_decomposition(td, g)

    def test_missing_relation(self):
        g = mixed_graph(3, arcs=[(1, 3)])
        td = TreeDecomposition(3, (frozenset({1, 2}), frozenset({2, 3})), ((0, 1),))
        with pytest.raises(InvalidDecomposition, match=r"relation \{1,3\} not contained in any bag"):
            validate_decomposition(td, g)

    def test_disconnected_occurrence(self):
        g = mixed_graph(3, edges=[(1, 2), (2, 3)])
        td = TreeDecomposition(
            3,
            (frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3})),
            ((0, 1), (1, 2)),
        )
        with pytest.raises(InvalidDecomposition, match="bags containing vertex 1 are disconnected"):
            validate_decomposition(td, g)

    def test_not_a_tree(self):
        g = mixed_graph(2, edges=[(1, 2)])
        td = TreeDecomposition(2, (frozenset({1, 2}), frozenset({1, 2})), ())
        with pytest.raises(InvalidDecomposition, match="bag graph is not a tree"):
            validate_decomposition(td, g)


class TestPaceFormat:
    def test_round_trip(self, small_corpus):
        for g in small_corpus[:20]:
            td = min_fill_decomposition(g)
            buf = io.StringIO()
            save_td(td, buf)
            again = load_td(io.StringIO(buf.getvalue()))
            assert again == td

    def test_parse_with_comments(self):
        text = "c a comment\ns td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n"
        td = load_td(io.StringIO(text))
        assert td.bags == (frozenset({1, 2}), frozenset({2, 3}))
        assert td.tree_edges == ((0, 1),)


class TestNiceForm:
    def test_structure(self, small_corpus):
        for g in small_corpus[:25]:
            if g.n == 0:
                continue
            td = min_fill_decomposition(g)
            nice = make_nice(td)
            root = nice[-1]
            assert root.bag == ()
            position = {id(node): i for i, node in enumerate(nice)}
            assert len(position) == len(nice)
            seen_vertices = set()
            stack = [root]
            while stack:
                node = stack.pop()
                stack.extend(node.children)
                # every node is listed once, after its children
                assert all(position[id(child)] < position[id(node)] for child in node.children)
                del position[id(node)]
                if node.kind == "leaf":
                    assert node.bag == () and not node.children
                elif node.kind == "join":
                    left, right = node.children
                    assert left.bag == node.bag == right.bag
                elif node.kind == "introduce":
                    (child,) = node.children
                    assert set(node.bag) - set(child.bag) == {node.vertex}
                    seen_vertices.add(node.vertex)
                else:
                    (child,) = node.children
                    assert set(child.bag) - set(node.bag) == {node.vertex}
            assert seen_vertices == set(g.vertices)
            assert not position

    def test_long_path_decomposition(self):
        # 1500 bags {i, i+1}: one leaf, and a chain far deeper than the
        # interpreter's recursion limit
        bags = tuple(frozenset({i, i + 1}) for i in range(1, 1501))
        td = TreeDecomposition(1501, bags, tuple((i, i + 1) for i in range(1499)))
        root = make_nice(td)[-1]
        kinds = {"leaf": 0, "introduce": 0, "forget": 0, "join": 0}
        stack = [root]
        while stack:
            node = stack.pop()
            kinds[node.kind] += 1
            stack.extend(node.children)
        assert kinds == {"leaf": 1, "introduce": 1501, "forget": 1501, "join": 0}

    def test_cycle_in_bag_graph_rejected(self):
        bags = (frozenset({1}), frozenset({1}), frozenset({1}))
        td = TreeDecomposition(1, bags, ((0, 1), (1, 2), (2, 0)))
        with pytest.raises(InvalidDecomposition):
            make_nice(td)
