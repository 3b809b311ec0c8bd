"""Fuzzing the command line: the exit-code contract holds for every input.

Every test builds a valid input of one kind the command line reads, applies
a few token edits to it and runs ``cli.main`` on the result. Whatever the
input, the exit code is 0, 1 or 2; 1 comes only from a ``solve`` that
answers ``decision=no`` or a ``verify`` that answers ``proper=no``; and no
traceback reaches stderr. Every number an edit writes stays below 64, so no
header asks for a huge graph, but ``solve`` also runs at k = ``HUGE_K``, where
every route must answer or stop within its budget. Examples are derandomized
so every run of the suite sees the same inputs.
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from mixedcolor import graphs as graphs_module
from mixedcolor import solvers
from mixedcolor.cli import main
from mixedcolor.errors import MixedColorError
from mixedcolor.expressions import format_expression, ndm_expression
from mixedcolor.graphs import Coloring, mixed_graph, save_coloring, save_graph
from mixedcolor.treedecomp import min_fill_decomposition, save_td

FUZZ = settings(max_examples=100)

HUGE_K = 10**9
NUMBERS = [str(i) for i in range(64)] + ["-1", "-3"]
GRAPH_TOKENS = ["p", "mixed", "e", "a", "#", "\n", "x"] + NUMBERS
TD_TOKENS = ["s", "td", "b", "c", "\n", "x"] + NUMBERS
EXPR_TOKENS = ["(", ")", "((", "))", "intro", "union", "edge", "arc", "relabel", "x", "foo"] + NUMBERS
CERT_TOKENS = ["#", "\n", "x"] + NUMBERS
# small budgets stop every route's search early
budgets = (st.integers(1, 5) | st.integers(1, 50)).map(str)


@st.composite
def graphs(draw, min_n=0, max_n=6):
    """Small simple mixed graphs; arcs follow a drawn vertex order, so they are acyclic."""
    n = draw(st.integers(min_n, max_n))
    order = draw(st.permutations(range(1, n + 1)))
    rank = {v: i for i, v in enumerate(order)}
    edges, arcs = [], []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            kind = draw(st.sampled_from(("none", "edge", "arc")))
            if kind == "edge":
                edges.append((u, v))
            elif kind == "arc":
                arcs.append((u, v) if rank[u] < rank[v] else (v, u))
    return mixed_graph(n, edges, arcs)


@st.composite
def mutated(draw, text, pool):
    """``text`` with up to three token insertions, deletions or replacements."""
    tokens = [tok for tok in text.replace("\n", " \n ").split(" ") if tok]
    for _ in range(draw(st.sampled_from((0, 0, 1, 1, 2, 3)))):
        kind = draw(st.sampled_from(("insert", "delete", "replace") if tokens else ("insert",)))
        pos = draw(st.integers(0, len(tokens) - (kind != "insert")))
        if kind == "insert":
            tokens.insert(pos, draw(st.sampled_from(pool)))
        elif kind == "delete":
            del tokens[pos]
        else:
            tokens[pos] = draw(st.sampled_from(pool))
    return " ".join(tokens).replace(" \n", "\n").replace("\n ", "\n")  # newlines unpadded


def written(write, value) -> str:
    out = io.StringIO()
    write(value, out)
    return out.getvalue()


def run_cli(files: dict[str, str], argv: list[str]) -> None:
    """Write ``files`` to a fresh directory, run the CLI there and check the contract.

    An argument that names one of ``files``, or ``out``, becomes its path in
    that directory.
    """
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, name) for name in [*files, "out"]}
        for name, text in files.items():
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        argv = [paths.get(arg, arg) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), err.getvalue()
    if code == 1:
        answer = {"solve": "decision=no", "verify": "proper=no"}.get(argv[0])
        assert answer is not None and answer in out.getvalue().splitlines(), (argv, out.getvalue())


@st.composite
def graph_texts(draw):
    return draw(mutated(written(save_graph, draw(graphs())), GRAPH_TOKENS))


def test_graph_texts_reach_the_one_pass_loader(monkeypatch):
    """Unmutated and lightly mutated graph files keep ``save_graph``'s layout,
    so the fuzz reaches ``load_graph``'s one-pass path with edges and arcs."""
    line_reads = []
    line_reader = graphs_module._load_lines

    def counted(stream):
        line_reads.append(stream)
        return line_reader(stream)

    monkeypatch.setattr(graphs_module, "_load_lines", counted)
    hits = []

    @settings(max_examples=300)
    @given(graph_texts())
    def load(text):
        before = len(line_reads)
        try:
            g = graphs_module.load_graph(io.StringIO(text))
        except MixedColorError:
            return
        if len(line_reads) == before and (g.edges or g.arcs):
            hits.append(text)

    load()
    assert len(hits) >= 30


@FUZZ
@given(graph_texts(), st.sampled_from(solvers.METHODS), st.none() | st.integers(-1, 8) | st.just(HUGE_K), budgets)
def test_solve(text, method, k, budget):
    argv = ["solve", "g", "--method", method, "--budget", budget]
    run_cli({"g": text}, argv + ([] if k is None else ["--k", str(k)]))


@FUZZ
@given(graph_texts(), st.sampled_from(("bounds", "params")))
def test_bounds_and_params(text, command):
    run_cli({"g": text}, [command, "g"])


@st.composite
def graph_and_td(draw):
    g = draw(graphs())
    td = written(save_td, min_fill_decomposition(g))
    return draw(mutated(written(save_graph, g), GRAPH_TOKENS)), draw(mutated(td, TD_TOKENS))


@FUZZ
@given(graph_and_td(), st.none() | st.integers(0, 8) | st.just(HUGE_K), budgets)
def test_solve_with_tree_decomposition(texts, k, budget):
    argv = ["solve", "g", "--method", "twdp", "--td", "td", "--budget", budget]
    run_cli(dict(zip(("g", "td"), texts)), argv + ([] if k is None else ["--k", str(k)]))


@st.composite
def expression_texts(draw):
    return draw(mutated(format_expression(ndm_expression(draw(graphs(min_n=1, max_n=5)))), EXPR_TOKENS))


@FUZZ
@given(expression_texts(), st.sampled_from(("eval", "tc")))
def test_expressions(text, action):
    run_cli({"x": text}, ["expr", action, "x"])


@st.composite
def graph_and_certificate(draw):
    g = draw(graphs())
    colors = {v: draw(st.integers(1, max(g.n, 1))) for v in g.vertices}
    cert = written(save_coloring, Coloring(colors))
    return draw(mutated(written(save_graph, g), GRAPH_TOKENS)), draw(mutated(cert, CERT_TOKENS))


@FUZZ
@given(graph_and_certificate())
def test_verify(texts):
    run_cli(dict(zip(("g", "cert"), texts)), ["verify", "g", "cert"])


REDUCTION_SPECS = {
    "superstring": {"strings": ["01", "100", "11"], "k": 4},
    "scheduling": {"tasks_m1": ["t1"], "tasks_m2": ["t2", "t3"], "precedence": [["t1", "t3"]], "deadline": 2},
    "list_coloring": {"n": 3, "edges": [[1, 2], [2, 3]], "lists": {"1": [1, 2], "2": [2], "3": [1, 3]}, "num_colors": 3},
    "multicolored_clique": {"n": 4, "edges": [[1, 3], [2, 4], [1, 4]], "classes": [[1, 2], [3, 4]]},
}
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 63) | st.text("01at", max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text("123n", max_size=2), inner, max_size=2),
    max_leaves=6,
)


@st.composite
def mutated_json(draw, value):
    """``value`` with some entries dropped or replaced by small JSON values."""
    if draw(st.integers(0, 7)) == 0:
        return draw(json_values)
    if isinstance(value, dict):
        return {key: draw(mutated_json(item)) for key, item in value.items() if draw(st.integers(0, 7))}
    if isinstance(value, list):
        return [draw(mutated_json(item)) for item in value]
    return value


@FUZZ
@given(st.sampled_from(sorted(REDUCTION_SPECS)).flatmap(
    lambda kind: st.tuples(st.just(kind), mutated_json(REDUCTION_SPECS[kind]))))
def test_reductions(case):
    kind, spec = case
    run_cli({"spec": json.dumps(spec)}, ["gen", kind, "spec", "--out", "out"])
