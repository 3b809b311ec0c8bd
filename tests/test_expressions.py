"""Expression evaluation, serialization, and the constructive transformations."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedcolor import (
    AddArc,
    AddEdge,
    ConflictingRelation,
    DirectedCycleError,
    Introduce,
    ParseError,
    Relabel,
    Union,
    UnsupportedClosureExpression,
    WidthCapExceeded,
    corresponding_digraph,
    directed_path_expression,
    evaluate,
    evaluate_arcs,
    format_expression,
    maxrank,
    mixed_graph,
    mixed_to_directed,
    ndm,
    ndm_expression,
    ndm_introduce_order,
    parse_expression,
    tc_expression,
    tournament_expression,
    transitive_closure,
    width,
)
from mixedcolor.graphs import normalize_edge
from mixedcolor.reductions import family_tripartite


def relabel_to(g, order):
    """Rename evaluation vertices (introduce order) back to original ids."""
    remap = {i + 1: order[i] for i in range(g.n)}
    edges = frozenset(normalize_edge(remap[u], remap[v]) for u, v in g.edges)
    arcs = frozenset((remap[u], remap[v]) for u, v in g.arcs)
    return mixed_graph(g.n, edges, arcs)


def inline_three_label_expression():
    inner = AddArc(1, 2, Union(Introduce(1), Introduce(2)))
    inner = AddArc(2, 3, Union(inner, Introduce(3)))
    inner = Relabel(3, 2, Relabel(2, 1, inner))
    return AddArc(2, 3, Union(inner, Introduce(3)))


class TestEvaluate:
    def test_single_introduce(self):
        lg = evaluate(Introduce(1))
        assert lg.graph == mixed_graph(1) and lg.labels == {1: 1}

    def test_single_edge(self):
        lg = evaluate(AddEdge(1, 2, Union(Introduce(1), Introduce(2))))
        assert lg.graph == mixed_graph(2, edges=[(1, 2)])

    def test_inline_three_label_round(self):
        # the extend-relabel rounds produce the directed path on 4 vertices
        lg = evaluate(inline_three_label_expression())
        assert lg.graph == mixed_graph(4, arcs=[(1, 2), (2, 3), (3, 4)])

    def test_path_expression_lengths(self):
        for length in range(0, 6):
            g = evaluate(directed_path_expression(length)).graph
            expected = mixed_graph(
                length + 1, arcs=[(i, i + 1) for i in range(1, length + 1)]
            )
            assert g == expected
        assert width(directed_path_expression(4)) == 3

    def test_duplicate_relation_is_noop(self):
        expr = AddEdge(1, 2, AddEdge(1, 2, Union(Introduce(1), Introduce(2))))
        assert evaluate(expr).graph == mixed_graph(2, edges=[(1, 2)])

    def test_parallel_conflict(self):
        base = AddArc(1, 2, Union(Introduce(1), Introduce(2)))
        with pytest.raises(ConflictingRelation):
            evaluate(AddEdge(1, 2, base))
        basee = AddEdge(1, 2, Union(Introduce(1), Introduce(2)))
        with pytest.raises(ConflictingRelation):
            evaluate(AddArc(1, 2, basee))
        with pytest.raises(ConflictingRelation):
            evaluate(AddArc(2, 1, base))

    def test_directed_cycle_detected(self):
        # 1 -> 2 -> 3 -> 1 through relabels
        e = AddArc(1, 2, Union(Introduce(1), Introduce(2)))
        e = AddArc(2, 3, Union(e, Introduce(3)))
        e = Relabel(1, 4, e)
        with pytest.raises(DirectedCycleError):
            evaluate(AddArc(3, 4, e))


class TestWidth:
    def test_examples(self):
        assert width(inline_three_label_expression()) == 3
        assert width(Introduce(1)) == 1
        assert width(tournament_expression(6)) == 2


class TestSerialization:
    def test_round_trip(self):
        for expr in (
            Introduce(7),
            inline_three_label_expression(),
            tournament_expression(5),
            ndm_expression(family_tripartite(2)),
        ):
            text = format_expression(expr)
            again = parse_expression(text)
            assert evaluate(again).graph == evaluate(expr).graph
            assert width(again) == width(expr)

    def test_parse_errors(self):
        for bad in ("", "(intro 1", "(union (intro 1))", "(frob 1 2 (intro 1))",
                    "(intro 1) (intro 2)"):
            with pytest.raises(ParseError):
                parse_expression(bad)


labels = st.integers(-3, 9)
expressions = st.recursive(
    st.builds(Introduce, labels),
    lambda inner: st.builds(Union, inner, inner)
    | st.builds(AddEdge, labels, labels, inner)
    | st.builds(AddArc, labels, labels, inner)
    | st.builds(Relabel, labels, labels, inner),
    max_leaves=12,
)
EDITS = ["(", ")", "((", "))", "intro", "union", "edge", "arc", "relabel", "1", "2", "3", "-3", "x", "foo"]


def tokens(text):
    return text.replace("(", " ( ").replace(")", " ) ").split()


@st.composite
def mutated_texts(draw):
    """A formatted expression with one to three token insertions, deletions or replacements."""
    words = tokens(format_expression(draw(expressions)))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("insert", "delete", "replace") if words else ("insert",)))
        pos = draw(st.integers(0, len(words) - (kind != "insert")))
        if kind == "insert":
            words.insert(pos, draw(st.sampled_from(EDITS)))
        elif kind == "delete":
            del words[pos]
        else:
            words[pos] = draw(st.sampled_from(EDITS))
    return " ".join(words)


class TestParseProperties:
    @settings(max_examples=300)
    @given(expressions)
    def test_formatted_text_parses_back(self, expr):
        text = format_expression(expr)
        assert format_expression(parse_expression(text)) == text

    @settings(max_examples=500)
    @given(mutated_texts())
    def test_mutated_text_parses_or_raises_parse_error(self, text):
        try:
            expr = parse_expression(text)
        except ParseError:
            return
        # an accepted text is read token for token
        assert tokens(format_expression(expr)) == tokens(text)


class TestNdmExpression:
    def test_complete_graph_two_labels(self):
        k4 = mixed_graph(4, edges=[(i, j) for i in range(1, 5) for j in range(i + 1, 5)])
        expr = ndm_expression(k4)
        assert width(expr) == 2
        assert evaluate(expr).graph == k4

    def test_edgeless(self):
        g = mixed_graph(4)
        expr = ndm_expression(g)
        assert width(expr) <= 2
        assert evaluate(expr).graph == g

    def test_tripartite(self):
        g = family_tripartite(2)
        expr = ndm_expression(g)
        assert width(expr) <= ndm(g) + 1 == 9
        assert relabel_to(evaluate(expr).graph, ndm_introduce_order(g)) == g

    def test_round_trip_on_corpus(self, small_corpus):
        for g in small_corpus:
            if g.n == 0:
                continue
            expr = ndm_expression(g)
            assert width(expr) <= ndm(g) + 1
            assert relabel_to(evaluate(expr).graph, ndm_introduce_order(g)) == g


@pytest.mark.parametrize(
    "build, arg, message",
    [
        (ndm_expression, mixed_graph(0), "cannot express the empty graph"),
        (directed_path_expression, -1, "length must be nonnegative"),
        (tournament_expression, 0, "tournament needs at least one vertex"),
    ],
)
def test_constructions_reject_what_they_cannot_build(build, arg, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(arg)


class TestTournamentExpression:
    def test_single_vertex(self):
        expr = tournament_expression(1)
        assert isinstance(expr, Introduce) and expr.label == 1

    def test_transitive_triangle(self):
        g = evaluate(tournament_expression(3)).graph
        assert g.arcs == {(1, 2), (1, 3), (2, 3)}

    def test_six_vertices(self):
        g = evaluate(tournament_expression(6)).graph
        assert transitive_closure(g) == g
        assert maxrank(g) == 5


class TestMixedToDirected:
    def test_single_edge(self):
        e = AddEdge(1, 2, Union(Introduce(1), Introduce(2)))
        d = mixed_to_directed(e)
        assert evaluate_arcs(d) == (2, frozenset({(1, 2), (2, 1)}))

    def test_arc_only_unchanged(self):
        e = directed_path_expression(3)
        d = mixed_to_directed(e)
        assert evaluate_arcs(d)[1] == evaluate(e).graph.arcs

    def test_matches_corresponding_digraph(self, small_corpus):
        for g in small_corpus[:40]:
            if g.n == 0:
                continue
            expr = ndm_expression(g)
            directed = mixed_to_directed(expr)
            assert width(directed) == width(expr)
            n, arcs = evaluate_arcs(directed)
            assert n == g.n
            lg = evaluate(expr).graph
            assert arcs == corresponding_digraph(lg)


def random_expressions(count, seed=424, labels=3, valid=True):
    """Random expressions of width <= labels (by construction).

    Unions sometimes graft whole random subtrees, not just fresh vertices,
    so label groups from different branches meet mid-expression. With
    ``valid=False`` the expressions that evaluation rejects are kept too.
    """
    rng = random.Random(seed)

    def grow(n_ops):
        expr = Introduce(rng.randint(1, labels))
        for _ in range(n_ops):
            op = rng.random()
            if op < 0.25:
                expr = Union(expr, Introduce(rng.randint(1, labels)))
            elif op < 0.50:
                i = rng.randint(1, labels)
                j = rng.randint(1, labels)
                if i != j:
                    expr = AddArc(i, j, expr)
            elif op < 0.72:
                i = rng.randint(1, labels)
                j = rng.randint(1, labels)
                if i != j:
                    expr = AddEdge(i, j, expr)
            elif op < 0.88:
                expr = Relabel(rng.randint(1, labels), rng.randint(1, labels), expr)
            else:
                expr = Union(expr, grow(rng.randint(1, 5)))
        return expr

    out = []
    while len(out) < count:
        expr = grow(rng.randint(1, 16))
        if valid:
            try:
                evaluate(expr)
            except (ConflictingRelation, DirectedCycleError):
                continue
        out.append(expr)
    return out


class TestTcExpression:
    def test_short_path(self):
        expr = directed_path_expression(2)
        closed = tc_expression(expr)
        g = evaluate(closed).graph
        assert g.arcs == {(1, 2), (2, 3), (1, 3)}

    def test_arc_free_identity(self):
        e = AddEdge(1, 2, Union(Introduce(1), Union(Introduce(2), Introduce(1))))
        closed = tc_expression(e)
        assert evaluate(closed).graph == evaluate(e).graph

    def test_path_four_becomes_tournament(self):
        expr = directed_path_expression(4)
        closed = tc_expression(expr)
        g = evaluate(closed).graph
        assert g == transitive_closure(evaluate(expr).graph)
        assert g.n == 5 and len(g.arcs) == 10 and not g.edges
        assert width(closed) <= 4**3 * 3

    def test_width_cap(self):
        g = family_tripartite(2)
        with pytest.raises(WidthCapExceeded):
            tc_expression(ndm_expression(g))

    def test_matches_closure_on_random_corpus(self):
        supported = 0
        unsupported = 0
        for expr in random_expressions(40):
            try:
                closed = tc_expression(expr)
            except UnsupportedClosureExpression:
                unsupported += 1
                continue
            assert evaluate(closed).graph == transitive_closure(evaluate(expr).graph)
            supported += 1
        assert supported >= 30

    def test_label_uniform_limitation_detected(self):
        # two same-labeled chains unioned, then an edge operation across the
        # chain ends: the closure keeps only the cross edges, which no
        # label-uniform operation can separate
        def chain(a, b, c):
            e = AddArc(a, b, Union(Introduce(a), Introduce(b)))
            return AddArc(b, c, Union(e, Introduce(c)))

        # labels 1, 9 and 17 collide in a set's hash table, so the message
        # lists its sets sorted to name each label one way
        for a, b, c in [(1, 2, 3), (1, 9, 17)]:
            expr = AddEdge(a, c, Union(chain(a, b, c), chain(a, b, c)))
            evaluate(expr)  # the input itself is a valid mixed graph
            shown = f"labels ({a}, [{a}], [{a}, {b}, {c}]) / ({c}, [{a}, {b}, {c}], [{c}])"
            with pytest.raises(UnsupportedClosureExpression, match=re.escape(f"{shown} mix surviving")):
                tc_expression(expr)


@pytest.mark.parametrize(
    "expr, closed_width, relabels",
    [
        (directed_path_expression(4), 10, 21),
        (directed_path_expression(10), 10, 69),
        (tournament_expression(6), 4, 20),
    ],
    ids=["path-4", "path-10", "tournament-6"],
)
def test_closure_expansion_moves_each_group_once(expr, closed_width, relabels):
    # a relabel or arc operation moves each group straight to its final
    # composite label, so no intermediate label is ever used
    closed = tc_expression(expr)
    assert width(closed) == closed_width
    assert format_expression(closed).count("(relabel ") == relabels
