"""Property tests for the analysis kernels: expression evaluation and vertex cover.

``expressions.evaluate`` / ``evaluate_arcs`` keep label buckets and
``partitions.vertex_cover_number`` searches bitmask states from an explicit
stack. Each is checked against a reference copy of the simpler kernel it
replaced: the same graph, the same labels in the same order, the same
exception and message, the same cover and witness, and ``BudgetExceeded``
at the same budgets. Examples are derandomized so every run of the suite
sees the same inputs.
"""

from dataclasses import dataclass, field
from itertools import combinations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixedcolor import mixed_graph
from mixedcolor.errors import BudgetExceeded, ConflictingRelation, MixedColorError
from mixedcolor.expressions import (
    AddArc,
    AddEdge,
    Introduce,
    Relabel,
    Union,
    _walk_postorder,
    evaluate,
    evaluate_arcs,
)
from mixedcolor.graphs import normalize_edge
from mixedcolor.partitions import vertex_cover_number
from subgraphs import scanned

PROPERTY = settings(max_examples=300)


# ---------------------------------------------------------------------------
# reference kernels: the vertex -> label scan and the recursive cover search
# ---------------------------------------------------------------------------

@dataclass
class _RefState:
    labels: dict = field(default_factory=dict)
    edges: set = field(default_factory=set)
    arcs: set = field(default_factory=set)


def _reference_fold(e, allow_opposite):
    states = []
    counter = 0
    for node in _walk_postorder(e):
        if isinstance(node, Introduce):
            counter += 1
            states.append(_RefState({counter: node.label}))
        elif isinstance(node, Union):
            right = states.pop()
            left = states.pop()
            left.labels.update(right.labels)
            left.edges |= right.edges
            left.arcs |= right.arcs
            states.append(left)
        elif isinstance(node, Relabel):
            s = states[-1]
            for v, lab in s.labels.items():
                if lab == node.old:
                    s.labels[v] = node.new
        elif isinstance(node, AddEdge):
            if node.i == node.j:
                raise ConflictingRelation(f"operation needs distinct labels, got {node.i},{node.j}")
            s = states[-1]
            if allow_opposite:
                raise ConflictingRelation("edge operations are not allowed in arc-only evaluation")
            side_i = [v for v, lab in s.labels.items() if lab == node.i]
            side_j = [v for v, lab in s.labels.items() if lab == node.j]
            for u in side_i:
                for w in side_j:
                    pair = normalize_edge(u, w)
                    if pair in s.edges:
                        continue
                    if (u, w) in s.arcs or (w, u) in s.arcs:
                        raise ConflictingRelation(f"edge {{{u},{w}}} would parallel an existing arc")
                    s.edges.add(pair)
        else:
            if node.i == node.j:
                raise ConflictingRelation(f"operation needs distinct labels, got {node.i},{node.j}")
            s = states[-1]
            side_i = [v for v, lab in s.labels.items() if lab == node.i]
            side_j = [v for v, lab in s.labels.items() if lab == node.j]
            for u in side_i:
                for w in side_j:
                    if (u, w) in s.arcs:
                        continue
                    if not allow_opposite:
                        if (w, u) in s.arcs:
                            raise ConflictingRelation(f"arc ({u},{w}) would oppose an existing arc")
                        if normalize_edge(u, w) in s.edges:
                            raise ConflictingRelation(f"arc ({u},{w}) would parallel an existing edge")
                    s.arcs.add((u, w))
    return states.pop()


def reference_evaluate(e):
    s = _reference_fold(e, allow_opposite=False)
    graph = mixed_graph(len(s.labels), s.edges, s.arcs)
    return graph, dict(s.labels)


def reference_evaluate_arcs(e):
    s = _reference_fold(e, allow_opposite=True)
    return len(s.labels), frozenset(s.arcs)


def reference_vertex_cover(g, budget=10**9):
    """The recursive search; returns (size, witness, nodes)."""
    best = [None, frozenset()]
    nodes = [0]

    def matching_bound(adj):
        used = set()
        size = 0
        for u in sorted(adj):
            if u in used or not adj[u]:
                continue
            for v in sorted(adj[u]):
                if v not in used:
                    used.update((u, v))
                    size += 1
                    break
        return size

    def without(adj, drop):
        return {u: nbrs - drop for u, nbrs in adj.items() if u not in drop}

    def branch(adj, chosen):
        nodes[0] += 1
        if nodes[0] > budget:
            raise BudgetExceeded(f"vertex cover search exceeded {budget} nodes")
        while True:
            leaf = next((u for u in sorted(adj) if len(adj[u]) == 1), None)
            if leaf is None:
                break
            forced = min(adj[leaf])
            chosen = chosen | {forced}
            adj = without(adj, {forced, leaf})
        if best[0] is not None and len(chosen) >= best[0]:
            return
        if all(not nbrs for nbrs in adj.values()):
            best[0] = len(chosen)
            best[1] = frozenset(chosen)
            return
        if best[0] is not None and len(chosen) + matching_bound(adj) >= best[0]:
            return
        v = max(adj, key=lambda u: (len(adj[u]), -u))
        branch(without(adj, {v}), chosen | {v})
        nbrs = set(adj[v])
        branch(without(adj, nbrs | {v}), chosen | nbrs)

    ins, outs, nbrs = scanned(g)
    branch({v: set(ins[v] | outs[v] | nbrs[v]) for v in g.vertices}, set())
    return best[0], best[1], nodes[0]


def outcome(call, *args):
    """A call's result, or the type and message of what it raised."""
    try:
        return "ok", call(*args)
    except MixedColorError as exc:
        return type(exc).__name__, str(exc)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

@st.composite
def expressions(draw, edges=True, labels=3, max_ops=30):
    """Random expressions built on a stack of subexpressions.

    Operations act on the top of the stack and are drawn only once it holds
    two vertices or more. Labels come from a small range, so edge and arc
    operations overlap and conflict; operations may name one label twice or
    a label no vertex has, and a relabel may keep its label or move to an
    absent one.
    """
    label = st.integers(1, labels)
    ops = ("intro", "union", "union", "arc", "arc", "relabel", "relabel") + ("edge",) * edges
    stack = [(Introduce(draw(label)), 1)]  # (subexpression, vertex count)
    for _ in range(draw(st.integers(0, max_ops))):
        op = draw(st.sampled_from(ops))
        if op != "intro" and stack[-1][1] == 1:
            op = "union"
        if op == "union" and len(stack) == 1:
            op = "intro"
        if op == "intro":
            stack.append((Introduce(draw(label)), 1))
        elif op == "union":
            right, m = stack.pop()
            left, n = stack.pop()
            stack.append((Union(left, right), n + m))
        else:
            top, n = stack.pop()
            if op == "relabel":
                top = Relabel(draw(label), draw(st.integers(1, labels + 1)), top)
            else:
                # mostly two distinct labels; sometimes one label twice, an error
                i, shift = draw(label), draw(st.sampled_from((0,) + tuple(range(1, labels)) * 4))
                top = (AddEdge if op == "edge" else AddArc)(i, (i + shift - 1) % labels + 1, top)
            stack.append((top, n))
    expr = stack.pop()[0]
    while stack:
        expr = Union(stack.pop()[0], expr)
    return expr


@st.composite
def mixed_graphs(draw, max_n=22):
    """Random mixed graphs of varied density; arcs follow a random order, so they are acyclic."""
    n = draw(st.integers(0, max_n))
    order = draw(st.permutations(range(1, n + 1)))
    rank = {v: i for i, v in enumerate(order)}
    kinds = st.sampled_from(("none",) * draw(st.integers(1, 8)) + ("edge", "arc"))
    edges, arcs = [], []
    for u, v in combinations(range(1, n + 1), 2):
        kind = draw(kinds)
        if kind == "edge":
            edges.append((u, v))
        elif kind == "arc":
            arcs.append((u, v) if rank[u] < rank[v] else (v, u))
    return mixed_graph(n, edges, arcs)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

# vertex 1 has label 2, vertex 2 label 1 and vertex 3 label 3; after the two
# edges and relabel 2 -> 1 both arcs into vertex 3 parallel an edge, and the
# pair of the smaller id must be the one reported
_THREE = Union(Union(Introduce(2), Introduce(1)), Introduce(3))
MERGE_THEN_CONFLICT = AddArc(1, 3, Relabel(2, 1, AddEdge(2, 3, AddEdge(1, 3, _THREE))))


@PROPERTY
@given(expressions())
@example(MERGE_THEN_CONFLICT)
def test_evaluate_matches_reference(e):
    kind, got = outcome(evaluate, e)
    ref_kind, ref = outcome(reference_evaluate, e)
    assert kind == ref_kind
    if kind != "ok":
        assert got == ref
        return
    graph, labels = ref
    assert got.graph == graph
    assert list(got.labels.items()) == list(labels.items())


@PROPERTY
@given(expressions(edges=False) | expressions())
def test_evaluate_arcs_matches_reference(e):
    assert outcome(evaluate_arcs, e) == outcome(reference_evaluate_arcs, e)


@PROPERTY
@given(mixed_graphs())
def test_vertex_cover_matches_reference(g):
    size, witness, nodes = reference_vertex_cover(g)
    assert vertex_cover_number(g) == (size, witness)
    # equal node counts: both give up one node short of the reference's count
    assert vertex_cover_number(g, budget=nodes) == (size, witness)
    if nodes > 1:
        assert outcome(vertex_cover_number, g, nodes - 1) == (
            "BudgetExceeded",
            f"vertex cover search exceeded {nodes - 1} nodes",
        )
