"""Tree decompositions: heuristic construction, PACE I/O, nice form."""

import io
import re
from collections import Counter

import pytest
from hypothesis import given, settings

from mixedcolor import (
    InvalidDecomposition,
    ParseError,
    TreeDecomposition,
    load_td,
    mixed_graph,
    save_td,
    min_fill_decomposition,
    validate_decomposition,
)
from mixedcolor.reductions import (
    family_grid_arc_vertices,
    family_grid_hamiltonian,
    family_oriented_star,
    family_tripartite,
)
from mixedcolor.treedecomp import make_nice

from test_branching_properties import mixed_graphs


def elimination_bags(g):
    """The min-degree bags before contraction, one per vertex, recomputed without
    a heap: each step eliminates the vertex of least (degree, id), and its bag
    is it and its neighbors, which then become a clique."""
    adj = {v: set() for v in g.vertices}
    for u, v in [*g.edges, *g.arcs]:
        adj[u].add(v)
        adj[v].add(u)

    def key(v):
        return len(adj[v]), v

    bags = []
    while adj:
        v = min(adj, key=key)
        nbrs = adj.pop(v)
        for a in nbrs:
            adj[a] = (adj[a] | nbrs) - {a, v}
        bags.append(frozenset(nbrs | {v}))
    return bags


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

    # bags (sorted) and tree edges; ties on degree go to the smaller id,
    # so a change in which vertices are rescored shows here, and a bag inside
    # its child is gone: grid3x3's {6, 8} folds into {6, 8, 9}, the child that
    # comes first in elimination order, not into {5, 6, 8}
    PINNED = {
        "grid3x3": (
            [(1, 2, 4), (2, 3, 6), (4, 7, 8), (6, 8, 9), (2, 4, 5, 6), (4, 5, 6, 8)],
            ((0, 4), (1, 4), (2, 5), (4, 5), (5, 3)),
        ),
        "tripartite3": (
            [(1, 2, 3, 10), (4, 5, 6, 11), (7, 8, 9, 12), (1, 2, 3, 4, 5, 6, 7), (2, 3, 4, 5, 6, 7, 8),
             (3, 4, 5, 6, 7, 8, 9)],
            ((0, 3), (1, 5), (3, 4), (4, 5), (5, 2)),
        ),
        "mixed7": (
            [(1, 2, 5, 6), (2, 3, 5, 6), (3, 4, 5, 6), (3, 5, 6, 7)],
            ((0, 1), (1, 3), (2, 3)),
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

    # the widths on the analyze-large families, so a heuristic that grows them shows
    @pytest.mark.parametrize(
        "build, ell, width",
        [
            (family_tripartite, 60, 120),
            (family_grid_hamiltonian, 20, 28),
            (family_grid_arc_vertices, 6, 36),
            (family_oriented_star, 150, 1),
        ],
    )
    def test_family_width_is_pinned(self, build, ell, width):
        assert min_fill_decomposition(build(ell)).width == width

    def test_long_path(self):
        # eliminates from the low end: bags {i, i+1} in a chain; the last
        # vertex's bag {1500} lies inside {1499, 1500} and is contracted
        n = 1500
        td = min_fill_decomposition(mixed_graph(n, edges=[(i, i + 1) for i in range(1, n)]))
        assert td.bags == tuple(frozenset({i, i + 1}) for i in range(1, n))
        assert td.tree_edges == tuple((i, i + 1) for i in range(n - 2))


@settings(max_examples=200)
@given(mixed_graphs(max_n=12))
def test_min_fill_keeps_only_the_maximal_elimination_bags(g):
    td = min_fill_decomposition(g)
    validate_decomposition(td, g)
    for i, j in td.tree_edges:
        assert not td.bags[i] <= td.bags[j] and not td.bags[j] <= td.bags[i]
    assert len(td.bags) <= max(g.n, 1)  # the empty graph has one empty bag
    bags = elimination_bags(g) or [frozenset()]
    assert td.width == max(map(len, bags)) - 1
    assert set(td.bags) == {bag for bag in bags if not any(bag < other for other in bags)}


# Every error validate_decomposition words, by a decomposition of the graph
# 1 - 2 - 3 that reaches it: (vertex count, bags, tree edges, message)
VALIDATION_ERRORS = {
    "vertex count": (99, [{1, 2, 3}], [], "decomposition is for 99 vertices, the graph has 3"),
    "tree edge range": (3, [{1, 2, 3}], [(0, 1)], "tree edge (0,1) out of range"),
    "no bags": (3, [], [], "decomposition has no bags"),
    "not a tree": (3, [{1, 2}, {2, 3}], [], "bag graph is not a tree"),
    "stray vertex": (3, [{1, 2}, {2, 3, 9}], [(0, 1)], "bag vertex 9 is not a vertex of the graph"),
    "smallest stray vertex": (3, [{0, 1, 2, 3}, {3, 7}], [(0, 1)], "bag vertex 0 is not a vertex of the graph"),
    "missing vertex": (3, [{1, 2}], [], "bags do not cover the vertex set"),
    "missing relation": (3, [{1, 2}, {3}], [(0, 1)], "relation {2,3} not contained in any bag"),
    "disconnected": (3, [{1, 2}, {2, 3}, {1}], [(0, 1), (1, 2)], "bags containing vertex 1 are disconnected"),
}


@pytest.mark.parametrize("case", VALIDATION_ERRORS)
def test_validation_errors(case):
    n, bags, tree_edges, message = VALIDATION_ERRORS[case]
    td = TreeDecomposition(n, tuple(map(frozenset, bags)), tuple(tree_edges))
    with pytest.raises(InvalidDecomposition, match=f"^{re.escape(message)}$"):
        validate_decomposition(td, mixed_graph(3, edges=[(1, 2), (2, 3)]))


class TestValidation:
    def test_vertex_count_differs_from_graph(self):
        g = mixed_graph(3, edges=[(1, 2), (2, 3)])
        td = TreeDecomposition(99, (frozenset({1, 2, 3}),), ())
        with pytest.raises(InvalidDecomposition, match="decomposition is for 99 vertices, the graph has 3"):
            validate_decomposition(td, g)

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


    def test_no_bags(self):
        # no bags is width -1, as one empty bag is; validation rejects it
        td = load_td(io.StringIO("s td 0 0 3\n"))
        assert td == TreeDecomposition(3, (), ()) and td.width == -1
        assert TreeDecomposition(0, (frozenset(),), ()).width == -1
        with pytest.raises(InvalidDecomposition, match="decomposition has no bags"):
            validate_decomposition(td, mixed_graph(3))

    def test_header_bag_size_differs_from_bags(self):
        text = "c a comment\ns td 1 2 3\nb 1 1 2 3\n"
        with pytest.raises(ParseError, match="line 2: header gives largest bag 2, the bags give 3"):
            load_td(io.StringIO(text))


# Every error load_td words, by a text that reaches it; line numbers count
# comment and blank lines.
TD_ERRORS = {
    "duplicate solution line": ("s td 1 1 1\nc c\ns td 1 1 1\nb 1 1\n", "line 3: duplicate solution line"),
    "short solution line": ("s td 1 1\n", "line 1: bad 's td' line"),
    "not td": ("c c\ns tw 1 1 1\n", "line 2: bad 's td' line"),
    "header integers": ("s td 1 x 1\n", "line 1: expected integers in ['1', 'x', '1']"),
    "bag before header": ("c c\nb 1 1\ns td 1 1 1\n", "line 2: bag before header"),
    "bag without id": ("s td 1 1 1\nb\n", "line 2: bag line without a bag id"),
    "bag integers": ("s td 1 1 1\nb 1 y\n", "line 2: expected integers in ['1', 'y']"),
    "duplicate bag": ("s td 2 1 2\nb 1 1\n\nb 1 2\n", "line 4: duplicate bag 1"),
    "edge before header": ("1 2\ns td 2 1 2\n", "line 1: edge before header"),
    "long tree edge": ("s td 2 1 2\nb 1 1\nb 2 2\n1 2 3\n", "line 4: bad tree edge"),
    "tree edge integers": ("s td 2 1 2\nb 1 1\nb 2 2\n1 z\n", "line 4: expected integers in ['1', 'z']"),
    "missing solution line": ("c only a comment\n\n", "missing 's td' line"),
    "bag id past num_bags": ("s td 2 1 2\nb 1 1\nb 3 2\n1 3\n", "bag ids must be 1..num_bags"),
    "bag id zero": ("s td 1 1 1\nb 0 1\n", "bag ids must be 1..num_bags"),
    "missing bag": ("s td 2 1 2\nb 2 2\n", "bag ids must be 1..num_bags"),
    "bag count past the bags": ("s td 100000000 2 2\nb 1 1 2\n", "bag ids must be 1..num_bags"),
    "negative bag count": ("s td -1 1 1\nb 1 1\n", "bag ids must be 1..num_bags"),
    "header bag size": ("c c\ns td 1 2 3\nb 1 1 2 3\n", "line 2: header gives largest bag 2, the bags give 3"),
}


@pytest.mark.parametrize("case", TD_ERRORS)
def test_td_loader_errors(case):
    text, message = TD_ERRORS[case]
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        load_td(io.StringIO(text))


class TestNiceForm:
    def test_structure(self, small_corpus):
        for g in small_corpus[:25]:
            if g.n == 0:
                continue
            nice = make_nice(min_fill_decomposition(g))
            assert nice[-1].bag == ()
            # replay the steps on a stack of bags: every operand is a bag an
            # earlier step left there, so each step comes after its operands
            bags: list[tuple[int, ...]] = []
            seen_vertices = set()
            for step in nice:
                if step.kind == "leaf":
                    assert step.bag == ()
                elif step.kind == "join":
                    right, left = bags.pop(), bags.pop()
                    assert left == step.bag == right
                elif step.kind == "introduce":
                    operand = bags.pop()
                    assert set(step.bag) - set(operand) == {step.vertex}
                    assert len(step.bag) == len(operand) + 1
                    assert step.bag[step.pos] == step.vertex
                    seen_vertices.add(step.vertex)
                else:
                    operand = bags.pop()
                    assert set(operand) - set(step.bag) == {step.vertex}
                    assert len(operand) == len(step.bag) + 1
                    assert operand[step.pos] == step.vertex
                bags.append(step.bag)
            assert bags == [()]
            assert seen_vertices == set(g.vertices)

    def test_long_path_decomposition(self):
        # 1500 bags {i, i+1}: one leaf, and a chain far deeper than the
        # interpreter's recursion limit
        bags = tuple(frozenset({i, i + 1}) for i in range(1, 1501))
        td = TreeDecomposition(1501, bags, tuple((i, i + 1) for i in range(1499)))
        kinds = Counter(step.kind for step in make_nice(td))
        assert kinds == Counter(leaf=1, introduce=1501, forget=1501, join=0)

    def test_step_order_of_a_three_child_bag(self):
        # bag 0 has children 1, 2, 3: they are taken last to first, each
        # followed by its forget/introduce chain and all but the first by a
        # join, so the joins nest as join(1, join(2, 3)); the join order sets
        # which tables the DP intersects and so its table entry count
        bags = (frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 4}), frozenset({1, 2, 5}))
        td = TreeDecomposition(5, bags, ((0, 1), (0, 2), (0, 3)))
        assert [(step.kind, step.bag, step.vertex) for step in make_nice(td)] == [
            ("leaf", (), None),
            ("introduce", (1,), 1),
            ("introduce", (1, 2), 2),
            ("introduce", (1, 2, 5), 5),
            ("forget", (1, 2), 5),
            ("leaf", (), None),
            ("introduce", (2,), 2),
            ("introduce", (2, 4), 4),
            ("forget", (2,), 4),
            ("introduce", (1, 2), 1),
            ("join", (1, 2), None),
            ("leaf", (), None),
            ("introduce", (1,), 1),
            ("introduce", (1, 3), 3),
            ("forget", (1,), 3),
            ("introduce", (1, 2), 2),
            ("join", (1, 2), None),
            ("forget", (2,), 1),
            ("forget", (), 2),
        ]

    def test_cycle_in_bag_graph_rejected(self):
        bags = (frozenset({1}), frozenset({1}), frozenset({1}))
        td = TreeDecomposition(1, bags, ((0, 1), (1, 2), (2, 0)))
        with pytest.raises(InvalidDecomposition):
            make_nice(td)

    def test_no_bags_rejected(self):
        with pytest.raises(InvalidDecomposition, match="decomposition has no bags"):
            make_nice(TreeDecomposition(0, (), ()))

    def test_tree_edge_past_the_last_bag_rejected(self):
        td = TreeDecomposition(2, (frozenset({1}), frozenset({2})), ((0, 5),))
        with pytest.raises(InvalidDecomposition, match=r"tree edge \(0,5\) out of range"):
            make_nice(td)

    def test_negative_tree_edge_rejected(self):
        # -1 must not wrap around to the last bag, which would make a tree
        td = TreeDecomposition(3, (frozenset({1, 2}), frozenset({2, 3}), frozenset({3})), ((0, 1), (1, -1)))
        with pytest.raises(InvalidDecomposition, match=r"tree edge \(1,-1\) out of range"):
            make_nice(td)

    def test_disconnected_bag_graph_rejected(self):
        # bag 1 cannot be reached from bag 0, so vertex 2 would go uncolored
        td = TreeDecomposition(2, (frozenset({1}), frozenset({2})), ())
        with pytest.raises(InvalidDecomposition, match="bag graph is not a tree"):
            make_nice(td)
