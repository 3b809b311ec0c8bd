"""Core graph model: validation, file formats, order/reachability primitives."""

import hashlib
import io
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixedcolor import (
    DirectedCycleError,
    DuplicateRelation,
    LoopError,
    MixedGraph,
    ParseError,
    corresponding_digraph,
    layering,
    load_coloring,
    load_graph,
    maxrank,
    mixed_graph,
    save_coloring,
    save_graph,
    topological_order,
    transitive_closure,
    underlying_undirected,
)
from mixedcolor import graphs as graphs_module
from mixedcolor.errors import MixedColorError
from mixedcolor.graphs import Coloring
from mixedcolor.reductions import family_layered_cliques
from subgraphs import scanned
from test_ascent_counters import SECONDS, workloads  # noqa: F401 (a fixture)


def parse(text: str) -> MixedGraph:
    return load_graph(io.StringIO(text))


def tournament(n: int) -> MixedGraph:
    return mixed_graph(
        n, arcs=[(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    )


class TestLoadGraph:
    def test_smallest_arc_graph(self):
        g = parse("p mixed 2 0 1\na 1 2\n")
        assert g.n == 2 and g.edges == frozenset() and g.arcs == {(1, 2)}

    def test_two_cycle_rejected(self):
        with pytest.raises(DirectedCycleError):
            parse("p mixed 2 0 2\na 1 2\na 2 1\n")

    def test_parallel_edge_and_arc_rejected(self):
        with pytest.raises(DuplicateRelation):
            parse("p mixed 3 1 1\ne 1 2\na 1 2\n")

    def test_loop_rejected(self):
        with pytest.raises(LoopError):
            parse("p mixed 2 0 1\na 1 1\n")

    def test_malformed_lines(self):
        with pytest.raises(ParseError):
            parse("p mixed 2 0\n")
        with pytest.raises(ParseError):
            parse("p mixed 2 0 1\nq 1 2\n")
        with pytest.raises(ParseError):
            parse("a 1 2\n")
        with pytest.raises(ParseError):
            parse("p mixed 2 1 0\ne 2 1\n")  # edges must be written u < v
        with pytest.raises(ParseError):
            parse("p mixed 2 1 0\n")  # count mismatch

    def test_comments_and_blank_lines(self):
        g = parse("# header comment\n\np mixed 3 1 1  # trailing\ne 1 2\na 2 3\n")
        assert g.edges == {(1, 2)} and g.arcs == {(2, 3)}

    def test_round_trip(self, small_corpus):
        for g in small_corpus:
            buf = io.StringIO()
            save_graph(g, buf)
            assert parse(buf.getvalue()) == g

    def test_coloring_round_trip(self):
        c = Coloring({1: 3, 2: 1, 3: 2})
        buf = io.StringIO()
        save_coloring(c, buf)
        assert load_coloring(io.StringIO(buf.getvalue())) == c


# One malformed relation each: the relations as handed to ``mixed_graph``, the
# error it raises (None: it takes an edge in either orientation), then the
# relation lines of a file and the error ``load_graph`` raises, whose line
# numbers count the comment line above the header.
MALFORMED = {
    "edge loop": ({(1, 1)}, set(), LoopError("edge (1,1) is a loop"),
                  "e 1 1", LoopError("line 3: loop at vertex 1")),
    "arc loop": (set(), {(2, 2)}, LoopError("arc (2,2) is a loop"),
                 "a 2 2", LoopError("line 3: loop at vertex 2")),
    "edge out of range": ({(1, 3)}, set(), ValueError("edge (1,3) not normalized or out of range"),
                          "e 1 3", ParseError("line 3: vertex out of range 1..2")),
    "arc out of range": (set(), {(0, 1)}, ValueError("arc (0,1) out of range"),
                         "a 0 1", ParseError("line 3: vertex out of range 1..2")),
    "unnormalized edge": ({(2, 1)}, set(), None,
                          "e 2 1", ParseError("line 3: edge must satisfy u < v")),
    "arc after parallel edge": ({(1, 2)}, {(2, 1)}, DuplicateRelation("pair {2,1} carries an edge and an arc"),
                                "e 1 2\na 2 1", DuplicateRelation("line 4: pair {2,1} already related")),
    "edge after parallel arc": ({(1, 2)}, {(1, 2)}, DuplicateRelation("pair {1,2} carries an edge and an arc"),
                                "a 1 2\ne 1 2", DuplicateRelation("line 4: pair {1,2} already related")),
    "opposite arcs": (set(), {(1, 2), (2, 1)}, DirectedCycleError("arc set induces a directed cycle"),
                      "a 1 2\na 2 1", DirectedCycleError("arc set induces a directed cycle")),
}


def raises_exactly(error: Exception):
    return pytest.raises(type(error), match=f"^{re.escape(str(error))}$")


# Every error the line reader words, by a text that reaches it; line numbers
# count comment and blank lines. Relation errors are in MALFORMED.
LINE_READER_ERRORS = {
    "duplicate header": ("p mixed 1 0 0\np mixed 1 0 0\n", ParseError("line 2: duplicate header")),
    "short header": ("# note\np mixed 1 0\n", ParseError("line 2: bad header 'p mixed 1 0'")),
    "not mixed": ("p graph 1 0 0\n", ParseError("line 1: bad header 'p graph 1 0 0'")),
    "header numbers": ("p mixed 1 x 0\n", ParseError("line 1: bad header numbers")),
    "negative vertex count": ("p mixed -1 0 0\n", ParseError("line 1: negative counts")),
    "negative edge count": ("\np mixed 2 -1 0\n", ParseError("line 2: negative counts")),
    "negative arc count": ("p mixed 2 0 -3\n", ParseError("line 1: negative counts")),
    # in save_graph's layout, so the one-pass path turns it down first
    "vertex count over the cap": ("p mixed 100001 0 0\n", ParseError("line 1: 100001 vertices, more than the 100000 allowed")),
    "vertex count over the cap, commented": (
        "# c\np mixed 100001 0 0\n", ParseError("line 2: 100001 vertices, more than the 100000 allowed")
    ),
    "relation before header": ("e 1 2\np mixed 2 1 0\n", ParseError("line 1: relation before header")),
    "short relation": ("p mixed 2 1 0\ne 1\n", ParseError("line 2: bad relation line 'e 1'")),
    "long relation": ("p mixed 3 0 1\na 1 2 3  # c\n", ParseError("line 2: bad relation line 'a 1 2 3'")),
    "vertex id": ("p mixed 2 1 0\ne 1 x\n", ParseError("line 2: bad vertex id")),
    "line kind": ("p mixed 2 0 0\nq 1 2\n", ParseError("line 2: unknown line kind 'q'")),
    "no header": ("# only a comment\n\n", ParseError("missing header line")),
    "count mismatch": ("p mixed 3 1 1\ne 1 2\n", ParseError("header announced 1 edges / 1 arcs, found 1 / 0")),
}


@pytest.mark.parametrize("case", LINE_READER_ERRORS)
def test_graph_loader_errors(case):
    text, error = LINE_READER_ERRORS[case]
    with raises_exactly(error):
        parse(text)


@pytest.mark.parametrize("text", ["p mixed {} 0 0\n", "# c\np mixed {} 0 0\n"], ids=["one pass", "line reader"])
def test_graph_loaders_take_the_largest_vertex_count(text):
    cap = graphs_module.MAX_VERTICES
    assert parse(text.format(cap)).n == cap


@pytest.mark.parametrize("head", ["", "# c\n"], ids=["one pass", "line reader"])
def test_graph_loaders_cap_the_mask_size_before_building_masks(head):
    # the directed path on 100,000 vertices is a 1.3 MB text whose masks would take
    # about 1.2 GiB: both loaders turn it down from the relations' summed ends
    n = graphs_module.MAX_VERTICES
    text = head + f"p mixed {n} 0 {n - 1}\n" + "".join([f"a {v} {v + 1}\n" for v in range(1, n)])
    tracemalloc.start()
    try:
        with raises_exactly(ParseError("relations need 1192 MiB of adjacency masks, more than the 256 MiB allowed")):
            parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20


@pytest.mark.parametrize("head", ["", "# c\n"], ids=["one pass", "line reader"])
def test_graph_loaders_cap_the_real_mask_size(head, monkeypatch):
    # on K_20 the relations' ends sum to 19 * 210 = 3990, but the masks hold 19 * 20 + 19
    # = 399 bits: a cap between the two takes the graph, one bit below 399 turns it down
    n = 20
    text = head + f"p mixed {n} {n * (n - 1) // 2} 0\n" + "".join(
        [f"e {u} {v}\n" for u in range(1, n) for v in range(u + 1, n + 1)]
    )
    monkeypatch.setattr(graphs_module, "MAX_MASK_BITS", 399)
    assert len(parse(text).edges) == n * (n - 1) // 2
    monkeypatch.setattr(graphs_module, "MAX_MASK_BITS", 398)
    with pytest.raises(ParseError, match="of adjacency masks, more than the"):
        parse(text)


CERTIFICATE_ERRORS = {
    "three tokens": ("1 1\n2 1 3\n", ParseError("line 2: expected '<vertex> <color>'")),
    "one token": ("# c\n1\n", ParseError("line 2: expected '<vertex> <color>'")),
    "bad integer": ("1 x\n", ParseError("line 1: bad integer")),
    "bad vertex": ("\n1.5 2\n", ParseError("line 2: bad integer")),
    "colored twice": ("1 1\n# c\n1 2\n", ParseError("line 3: vertex 1 colored twice")),
    "zero color": ("1 0\n", ParseError("line 1: color must be positive")),
    "negative color": ("1 1\n2 -2  # c\n", ParseError("line 2: color must be positive")),
}


@pytest.mark.parametrize("case", CERTIFICATE_ERRORS)
def test_certificate_loader_errors(case):
    text, error = CERTIFICATE_ERRORS[case]
    with raises_exactly(error):
        load_coloring(io.StringIO(text))


@pytest.mark.parametrize("case", MALFORMED)
def test_construction_errors(case):
    edges, arcs, error, lines, load_error = MALFORMED[case]
    if error is None:
        assert mixed_graph(2, edges, arcs).edges == {(1, 2)}
    else:
        with raises_exactly(error):
            mixed_graph(2, edges, arcs)
    header = f"p mixed 2 {lines.count('e ')} {lines.count('a ')}"
    with raises_exactly(load_error):
        parse(f"# one malformed relation\n{header}\n{lines}\n")


def saved(g: MixedGraph) -> str:
    buf = io.StringIO()
    save_graph(g, buf)
    return buf.getvalue()


def outcome(load, text: str):
    """The graph ``load`` reads from ``text``, or its error's type and message."""
    try:
        return load(io.StringIO(text))
    except MixedColorError as exc:
        return type(exc), str(exc)


# Tokens, whitespace and lines the agreement property splices into saved
# texts: int() accepts "+1", "01" and "1_0", and str.split() and str.strip()
# take "\r", "\x0c", "\x85", "\u2028" and the rest for whitespace, but only "\n" ends a
# line of an io.StringIO.
FUZZ_TOKENS = (
    ["p", "mixed", "e", "a", "#", "x", "-1", "+1", "01", "1_0"]
    + [str(i) for i in range(8)]
    + ["\n", " ", "\t", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
)
FUZZ_LINES = ["", "# note", "p mixed 3 1 1", "e 1 2", "a 2 1", "a 1 3", "e 1 2 3", "a 1", " e 1 2"]


@st.composite
def saved_texts(draw):
    """``save_graph`` texts, mutated by whole lines and then by tokens."""
    n = draw(st.integers(0, 6))
    rank = draw(st.permutations(range(n)))  # arcs point up this order, so they are acyclic
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    kinds = draw(st.lists(st.sampled_from("nea"), min_size=len(pairs), max_size=len(pairs)))
    edges = [pair for pair, kind in zip(pairs, kinds) if kind == "e"]
    arcs = [(u, v) if rank[u - 1] < rank[v - 1] else (v, u) for (u, v), kind in zip(pairs, kinds) if kind == "a"]
    lines = saved(mixed_graph(n, edges, arcs)).split("\n")
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2)))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(("delete", "repeat", "swap", "insert")))
        if op == "delete":
            del lines[i]
        elif op == "repeat":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            lines.insert(i, draw(st.sampled_from(FUZZ_LINES)))
    pieces = re.findall(r"\S+|\s", "\n".join(lines))
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 1, 2, 3)))):
        op = draw(st.sampled_from(("insert", "delete", "replace", "renumber") if pieces else ("insert",)))
        i = draw(st.integers(0, len(pieces) - (op != "insert")))
        if op == "insert":
            pieces.insert(i, draw(st.sampled_from(FUZZ_TOKENS)))
        elif op == "delete":
            del pieces[i]
        elif op == "replace":
            pieces[i] = draw(st.sampled_from(FUZZ_TOKENS))
        elif pieces[i].isdigit():  # keeps the layout, may break the graph
            pieces[i] = str(draw(st.integers(0, 7)))
    return "".join(pieces)


class TestOnePassLoad:
    """``load_graph`` reads ``save_graph``'s layout in one pass and every
    other text with the line reader; both must give the same graph or error."""

    @settings(max_examples=300)
    @given(saved_texts())
    # each passes every layout check but one
    @example("p mixed 3\n1 0\ne 1 2")  # no final newline
    @example("p mixed 3 1 0\ne 1\n2\n")  # a newline inside a relation
    @example("p mixed 3 1 0 e 1\n2\n")  # a relation line not starting with its kind
    @example("p mixed 3 1 1\na 1 2\ne 1 3\n")  # an arc before an edge
    @example("p mixed 3 2 0\ne 1 2\ne 1 2\n")  # a repeated relation
    @example("p mixed 2 0 2\na 1 2\na 2 1\n")  # a graph that MixedGraph rejects
    def test_agrees_with_the_line_reader(self, text):
        assert outcome(load_graph, text) == outcome(graphs_module._load_lines, text)

    def test_saved_texts_take_the_one_pass_path(self, small_corpus, monkeypatch):
        def line_reader(stream):
            raise AssertionError("line reader used")

        monkeypatch.setattr(graphs_module, "_load_lines", line_reader)
        for g in small_corpus + [mixed_graph(0), mixed_graph(3), tournament(4)]:
            assert parse(saved(g)) == g

    def test_crlf_file(self, tmp_path):
        path = tmp_path / "g.txt"
        g = mixed_graph(4, edges=[(1, 2), (3, 4)], arcs=[(2, 3), (4, 1)])
        path.write_bytes(saved(g).replace("\n", "\r\n").encode())
        with open(path, encoding="utf-8") as fh:
            assert load_graph(fh) == g
        for *_, lines, load_error in MALFORMED.values():
            header = f"p mixed 2 {lines.count('e ')} {lines.count('a ')}"
            path.write_bytes(f"# one malformed relation\n{header}\n{lines}\n".replace("\n", "\r\n").encode())
            with open(path, encoding="utf-8") as fh, raises_exactly(load_error):
                load_graph(fh)


# sha256 (first 16 digits) of each benchmark pool's seed-1 texts, joined:
# generation builds every graph with mixed_graph and writes it with save_graph
POOL_TEXTS = {
    "ndm-fpt": "2dfce814ba514dc3",
    "sparse-branch": "87bca5e7d11e0c42",
    "dense-twdp": "9c97d047d83adaa0",
    "analyze-large": "0ad7b45843071a9a",
}


@pytest.mark.parametrize("pool", POOL_TEXTS)
def test_benchmark_pool_texts_are_pinned(workloads, pool):
    texts = workloads.materialize(workloads.WORKLOADS[pool].plan(1, SECONDS))
    assert hashlib.sha256("".join(texts).encode()).hexdigest()[:16] == POOL_TEXTS[pool]


class TestTopologicalOrder:
    def test_directed_path(self):
        g = mixed_graph(3, arcs=[(1, 2), (2, 3)])
        assert topological_order(g) == [1, 2, 3]

    def test_edge_only_triangle_uses_id_order(self):
        g = mixed_graph(3, edges=[(1, 2), (2, 3), (1, 3)])
        assert topological_order(g) == [1, 2, 3]

    def test_arcs_force_order(self):
        g = mixed_graph(3, arcs=[(3, 1), (1, 2)])
        assert topological_order(g) == [3, 1, 2]

    def test_every_arc_respected(self, small_corpus):
        for g in small_corpus:
            pos = {v: i for i, v in enumerate(topological_order(g))}
            assert all(pos[u] < pos[v] for u, v in g.arcs)


class TestTransitiveClosure:
    def test_directed_path(self):
        g = mixed_graph(3, arcs=[(1, 2), (2, 3)])
        assert transitive_closure(g).arcs == {(1, 2), (2, 3), (1, 3)}

    def test_parallel_edge_removed(self):
        g = mixed_graph(3, edges=[(1, 2)], arcs=[(1, 3), (3, 2)])
        tc = transitive_closure(g)
        assert tc.arcs == {(1, 3), (3, 2), (1, 2)}
        assert tc.edges == frozenset()

    def test_idempotent(self, small_corpus):
        for g in small_corpus:
            tc = transitive_closure(g)
            assert transitive_closure(tc) == tc

    def test_maxrank_invariant(self, small_corpus):
        for g in small_corpus:
            assert maxrank(transitive_closure(g)) == maxrank(g)

    def test_vertex_set_preserved(self, small_corpus):
        for g in small_corpus:
            assert transitive_closure(g).n == g.n


class TestLayering:
    def test_edge_only_graph_single_layer(self):
        g = mixed_graph(4, edges=[(1, 2), (3, 4)])
        lay = layering(g)
        assert lay.layers == (frozenset({1, 2, 3, 4}),)

    def test_empty_graph_has_no_layers(self):
        g = mixed_graph(0)
        assert layering(g).layers == ()
        assert maxrank(g) == 0

    def test_built_once_per_graph(self):
        g = mixed_graph(3, arcs=[(1, 2)])
        assert layering(g) is layering(g) is g.layering

    def test_directed_path_singleton_layers(self):
        g = mixed_graph(4, arcs=[(1, 2), (2, 3), (3, 4)])
        assert [sorted(layer) for layer in layering(g).layers] == [[1], [2], [3], [4]]

    def test_layered_cliques_family(self):
        g = family_layered_cliques(2, 3)
        assert [len(layer) for layer in layering(g).layers] == [3, 3, 3]

    def test_arcs_point_to_higher_layers(self, small_corpus):
        for g in small_corpus:
            lay = layering(g)
            assert all(lay.inrank[u] < lay.inrank[v] for u, v in g.arcs)

    def test_inrank_is_longest_path_length(self):
        # independent oracle: enumerate all simple directed paths
        g = mixed_graph(5, arcs=[(1, 2), (2, 4), (1, 3), (3, 4), (4, 5), (1, 5)])
        out = {v: sorted(w) for v, w in scanned(g)[1].items()}

        def longest_ending_at(target):
            best = 0

            def walk(v, length, seen):
                nonlocal best
                if v == target:
                    best = max(best, length)
                for w in out[v]:
                    if w not in seen:
                        walk(w, length + 1, seen | {w})

            for s in g.vertices:
                walk(s, 0, {s})
            return best

        lay = layering(g)
        for v in g.vertices:
            assert lay.inrank[v] == longest_ending_at(v)


class TestMaxrank:
    def test_arc_free(self):
        assert maxrank(mixed_graph(4, edges=[(1, 2)])) == 0

    def test_directed_path(self):
        g = mixed_graph(6, arcs=[(i, i + 1) for i in range(1, 6)])
        assert maxrank(g) == 5

    def test_acyclic_tournament_six_vertices(self):
        g = tournament(6)
        # oracle: longest simple directed path by exhaustive walk
        out = {v: sorted(w) for v, w in scanned(g)[1].items()}
        best = 0
        stack = [(v, 0, frozenset({v})) for v in g.vertices]
        while stack:
            v, length, seen = stack.pop()
            best = max(best, length)
            for w in out[v]:
                if w not in seen:
                    stack.append((w, length + 1, seen | {w}))
        assert best == 5
        assert maxrank(g) == 5


class TestUnderlyingAndDigraph:
    def test_single_arc_becomes_edge(self):
        g = mixed_graph(2, arcs=[(1, 2)])
        assert underlying_undirected(g).edges == {(1, 2)}

    def test_already_undirected_identity(self):
        g = mixed_graph(3, edges=[(1, 2), (2, 3)])
        assert underlying_undirected(g) == g

    def test_tournament_underlying_complete(self):
        g = tournament(5)
        assert len(underlying_undirected(g).edges) == 10

    def test_corresponding_digraph(self):
        assert corresponding_digraph(mixed_graph(2, edges=[(1, 2)])) == {(1, 2), (2, 1)}
        assert corresponding_digraph(mixed_graph(2, arcs=[(1, 2)])) == {(1, 2)}
        g = mixed_graph(3, edges=[(1, 2)], arcs=[(2, 3)])
        assert corresponding_digraph(g) == {(1, 2), (2, 1), (2, 3)}

    def test_corresponding_digraph_injective(self, small_corpus):
        seen = {}
        for g in small_corpus:
            key = (g.n, corresponding_digraph(g))
            if key in seen:
                assert seen[key] == g
            seen[key] = g
