"""Mixed cliquewidth expressions: evaluation, width, serialization, and the
constructive transformations (partition-based construction, acyclic
tournament 2-expression, arc-only conversion, transitive-closure expansion).

An expression is a tree over five operations: introduce a labeled vertex,
disjoint union, add all edges between two labels, add all arcs from one
label to another, and relabel. Evaluation is a bottom-up fold; vertices are
numbered by introduce order (left to right), which fixes the correspondence
used when comparing an evaluated expression against a target graph.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import reduce

from .errors import (
    ConflictingRelation,
    DirectedCycleError,
    ParseError,
    UnsupportedClosureExpression,
    WidthCapExceeded,
)
from .graphs import MixedGraph, normalize_edge, transitive_closure
from .partitions import class_relations, mixed_neighborhood_partition


class _Node:
    """Identity equality and hashing for the node types below.

    A node is a named tuple that lists its integer labels before its
    subexpressions, so ``cls(*fields)`` builds it and the walkers read its
    fields by position. Two operations with the same fields are still
    different places in a tree, so a node is equal only to itself, never to
    another node or a plain tuple.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return self is other

    def __ne__(self, other: object) -> bool:
        return self is not other

    __hash__ = object.__hash__


class Introduce(_Node, namedtuple("Introduce", "label")):
    __slots__ = ()


class Union(_Node, namedtuple("Union", "left right")):
    __slots__ = ()


class AddEdge(_Node, namedtuple("AddEdge", "i j child")):
    __slots__ = ()


class AddArc(_Node, namedtuple("AddArc", "i j child")):
    __slots__ = ()


class Relabel(_Node, namedtuple("Relabel", "old new child")):
    __slots__ = ()


MixedExpression = Introduce | Union | AddEdge | AddArc | Relabel


@dataclass(frozen=True)
class LabeledGraph:
    graph: MixedGraph
    labels: dict[int, int]


def _walk_postorder(e: MixedExpression) -> list[MixedExpression]:
    """Every node of e, children before parents and left before right.

    This is the pre-order that visits the right subtree first, reversed:
    each step follows right operands and single children down to a leaf,
    leaving the left operands on the stack.
    """
    order: list[MixedExpression] = []
    stack = [e]
    while stack:
        node = stack.pop()
        while type(node) is not Introduce:
            order.append(node)
            if type(node) is Union:
                stack.append(node[0])
                node = node[1]
            else:
                node = node[2]
        order.append(node)
    order.reverse()
    return order


def _labels(e: MixedExpression) -> set[int]:
    """The distinct labels appearing anywhere in the expression."""
    labels: set[int] = set()
    for node in _walk_postorder(e):
        kind = type(node)
        if kind is Introduce:
            labels.add(node[0])
        elif kind is not Union:
            labels.add(node[0])
            labels.add(node[1])
    return labels


def width(e: MixedExpression) -> int:
    """Number of distinct labels appearing anywhere in the expression."""
    return len(_labels(e))


def _evaluate(
    e: MixedExpression, allow_opposite: bool
) -> tuple[int, dict[int, list[int]], set[tuple[int, int]], set[tuple[int, int]]]:
    """Fold e bottom-up; returns the vertex count, the label buckets, the edges and the arcs.

    A subexpression's state is its ``label -> vertices`` buckets, ids
    ascending, so a relabel moves one bucket and an edge or arc operation
    reads only the two buckets it joins. The right operand of a union was
    introduced later, so its ids exceed the left's and appending keeps every
    bucket ascending. Relations are kept in one edge set and one arc set:
    a relation between two vertices was added below the lowest operation
    that holds both, so the sets answer for every subexpression.
    """
    states: list[dict[int, list[int]]] = []
    edges: set[tuple[int, int]] = set()
    arcs: set[tuple[int, int]] = set()
    counter = 0
    for node in _walk_postorder(e):
        kind = type(node)
        if kind is Introduce:
            counter += 1
            states.append({node[0]: [counter]})
            continue
        if kind is Union:
            right = states.pop()
            left = states[-1]
            for lab, members in right.items():
                if lab in left:
                    left[lab] += members
                else:
                    left[lab] = members
            continue
        i, j, _ = node
        buckets = states[-1]
        if kind is Relabel:
            moved = buckets.pop(i, None)
            if moved is not None:
                kept = buckets.get(j)
                buckets[j] = moved if kept is None else sorted(kept + moved)
            continue
        if i == j:
            raise ConflictingRelation(f"operation needs distinct labels, got {i},{j}")
        side_i = buckets.get(i, ())
        side_j = buckets.get(j, ())
        if kind is AddEdge:
            if allow_opposite:
                raise ConflictingRelation("edge operations are not allowed in arc-only evaluation")
            for u in side_i:
                for w in side_j:
                    pair = (u, w) if u < w else (w, u)
                    if pair in edges:
                        continue
                    if (u, w) in arcs or (w, u) in arcs:
                        raise ConflictingRelation(
                            f"edge {{{u},{w}}} would parallel an existing arc"
                        )
                    edges.add(pair)
        else:
            for u in side_i:
                for w in side_j:
                    pair = (u, w)
                    if pair in arcs:
                        continue
                    if not allow_opposite:
                        if (w, u) in arcs:
                            raise ConflictingRelation(
                                f"arc ({u},{w}) would oppose an existing arc"
                            )
                        if (pair if u < w else (w, u)) in edges:
                            raise ConflictingRelation(
                                f"arc ({u},{w}) would parallel an existing edge"
                            )
                    arcs.add(pair)
    return counter, states.pop(), edges, arcs


def evaluate(e: MixedExpression) -> LabeledGraph:
    """Bottom-up evaluation to a labeled mixed graph.

    Re-adding an identical relation is a no-op; adding a relation parallel or
    opposite to an existing one is an error at that operation. Arcs only
    accumulate, so a directed cycle closed by any operation is still there at
    the end, where building the graph rejects it.
    """
    n, buckets, edges, arcs = _evaluate(e, allow_opposite=False)
    graph = MixedGraph(n, frozenset(edges), frozenset(arcs))
    labels = sorted((v, lab) for lab, members in buckets.items() for v in members)
    return LabeledGraph(graph, dict(labels))


def evaluate_arcs(e: MixedExpression) -> tuple[int, frozenset[tuple[int, int]]]:
    """Relaxed evaluation for arc-only expressions; opposite arcs allowed.

    Used to check arc-only conversions, whose output may contain the two
    opposite arcs that encode an edge.
    """
    n, _, _, arcs = _evaluate(e, allow_opposite=True)
    return n, frozenset(arcs)


# ---------------------------------------------------------------------------
# serialization: s-expressions
# ---------------------------------------------------------------------------

# operation -> (node type, integer labels, subexpressions); every node type
# lists its labels before its subexpressions, so cls(*fields) builds it
_OPS = {
    "intro": (Introduce, 1, 0),
    "union": (Union, 0, 2),
    "edge": (AddEdge, 2, 1),
    "arc": (AddArc, 2, 1),
    "relabel": (Relabel, 2, 1),
}


# node type -> (operation, integer labels)
_NAMES = {cls: (op, labels) for op, (cls, labels, _) in _OPS.items()}


def format_expression(e: MixedExpression) -> str:
    out: list[str] = []
    # iterative pre-order with explicit close markers
    stack: list[MixedExpression | None] = [e]
    while stack:
        node = stack.pop()
        if node is None:
            out.append(")")
            continue
        op, labels = _NAMES[type(node)]
        out.append(" ".join(["(" + op, *map(str, node[:labels])]))
        stack.append(None)
        stack.extend(reversed(node[labels:]))
    return " ".join(out).replace(" )", ")")


def parse_expression(text: str) -> MixedExpression:
    """Read one s-expression; malformed text raises ParseError."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    # frames [node type, field count, fields so far]; the bottom one is the text
    frames: list[list] = [[None, 1, []]]
    pos, end = 0, len(tokens)
    while pos < end:
        tok = tokens[pos]
        if tok == "(":
            try:
                cls, labels, children = _OPS[tokens[pos + 1]]
                fields = [int(tokens[pos + 2 + f]) for f in range(labels)]
            except (IndexError, KeyError, ValueError) as exc:
                raise ParseError(f"expected an operation and its integer labels at token {pos + 1}") from exc
            frames.append([cls, labels + children, fields])
            pos += 2 + labels
        elif tok == ")" and len(frames) > 1:
            cls, count, fields = frames.pop()
            if len(fields) != count:
                raise ParseError(f"{cls.__name__} takes {count} fields, got {len(fields)}")
            frames[-1][2].append(cls(*fields))
            pos += 1
        else:
            raise ParseError(f"unexpected token {tok!r}")
    if len(frames) != 1 or len(frames[0][2]) != 1:
        raise ParseError("unbalanced, empty or multiple top-level expressions")
    return frames[0][2][0]


# ---------------------------------------------------------------------------
# constructive expressions
# ---------------------------------------------------------------------------

def ndm_expression(g: MixedGraph) -> MixedExpression:
    """A (ndm+1)-label expression constructing g.

    Labels 1..w hold the classes of the mixed neighborhood partition; the
    auxiliary label w+1 threads each clique class together vertex by vertex.
    Introduce order follows ``ndm_introduce_order``.
    """
    if g.n == 0:
        raise ValueError("cannot express the empty graph")
    part = mixed_neighborhood_partition(g)
    aux = len(part.classes) + 1
    class_exprs: list[MixedExpression] = []
    for label, (cls, kind) in enumerate(zip(part.classes, part.class_kinds), 1):
        if kind == "independent":
            expr = reduce(Union, [Introduce(label) for _ in cls])
        else:
            expr = Relabel(aux, label, AddEdge(label, aux, Introduce(aux)))
            for _ in range(len(cls) - 1):
                expr = Relabel(aux, label, AddEdge(label, aux, Union(expr, Introduce(aux))))
        class_exprs.append(expr)
    expr = reduce(Union, class_exprs)
    for kind, i, j in class_relations(g, part):
        expr = (AddEdge if kind == "edge" else AddArc)(i + 1, j + 1, expr)
    return expr


def ndm_introduce_order(g: MixedGraph) -> list[int]:
    """Original vertex ids in the introduce order used by ndm_expression."""
    part = mixed_neighborhood_partition(g)
    order: list[int] = []
    for cls in part.classes:
        order.extend(sorted(cls))
    return order


def directed_path_expression(length: int) -> MixedExpression:
    """3-label expression for the directed path with ``length`` arcs.

    Repeats the extend-relabel round: shift the two frontier labels down,
    union a fresh label-3 vertex, and draw the arc into it.
    """
    if length < 0:
        raise ValueError("length must be nonnegative")
    if length == 0:
        return Introduce(1)
    expr: MixedExpression = AddArc(1, 2, Union(Introduce(1), Introduce(2)))
    for step in range(length - 1):
        if step > 0:
            expr = Relabel(3, 2, Relabel(2, 1, expr))
        expr = AddArc(2, 3, Union(expr, Introduce(3)))
    return expr


def tournament_expression(n: int) -> MixedExpression:
    """A 2-label expression for the acyclic tournament on n vertices.

    Each new vertex enters with the scratch label, receives arcs from all
    earlier vertices, and is folded into the main label.
    """
    if n < 1:
        raise ValueError("tournament needs at least one vertex")
    expr: MixedExpression = Introduce(1)
    for _ in range(n - 1):
        expr = Relabel(2, 1, AddArc(1, 2, Union(expr, Introduce(2))))
    return expr


def mixed_to_directed(e: MixedExpression) -> MixedExpression:
    """Replace every edge operation by the two opposite arc operations."""
    rebuilt: list[MixedExpression] = []
    for node in _walk_postorder(e):
        kind = type(node)
        if kind is Introduce:
            rebuilt.append(Introduce(node.label))
        elif kind is Union:
            right = rebuilt.pop()
            rebuilt.append(Union(rebuilt.pop(), right))
        elif kind is AddEdge:
            rebuilt.append(AddArc(node.j, node.i, AddArc(node.i, node.j, rebuilt.pop())))
        else:
            rebuilt.append(kind(node[0], node[1], rebuilt.pop()))
    return rebuilt.pop()


# ---------------------------------------------------------------------------
# transitive-closure expansion
# ---------------------------------------------------------------------------

TC_WIDTH_CAP = 3


class _TcBuilder:
    """Rewrites an expression so it constructs the transitive closure.

    Composite labels (base, I, O) track, per vertex, the base labels with a
    directed path to it (I) and reachable from it (O); arc operations then
    eagerly add every transitive arc between occupied label pairs. Label
    occupancy is simulated during the rewrite, so vacuous operations are
    elided and edges destined to be overridden by closure arcs are never
    added. If two vertices share a composite label but disagree on whether a
    relation survives in the closure, no label-uniform expression exists and
    UnsupportedClosureExpression is raised.
    """

    def __init__(self, e: MixedExpression, cap: int):
        self.expr = e
        base_labels = sorted(_labels(e))
        if len(base_labels) > cap:
            raise WidthCapExceeded(f"expression width {len(base_labels)} exceeds cap {cap}")
        self.position = {lab: pos for pos, lab in enumerate(base_labels)}
        self.closure = transitive_closure(evaluate(e).graph)
        # simulation state
        self.vertex_label: dict[int, tuple[int, frozenset[int], frozenset[int]]] = {}
        self.arcs: set[tuple[int, int]] = set()
        self.edges: set[tuple[int, int]] = set()
        self.counter = 0
        self.encoding: dict[tuple[int, frozenset[int], frozenset[int]], int] = {}

    def enc(self, label: tuple[int, frozenset[int], frozenset[int]]) -> int:
        if label not in self.encoding:
            base, iset, oset = label
            position = self.position
            bits = len(position)
            imask = sum(1 << position[x] for x in iset)
            omask = sum(1 << position[x] for x in oset)
            self.encoding[label] = 1 + position[base] * (1 << (2 * bits)) + (imask << bits) + omask
        return self.encoding[label]

    def occupied(self, scope: set[int]) -> dict[tuple[int, frozenset[int], frozenset[int]], list[int]]:
        groups: dict[tuple[int, frozenset[int], frozenset[int]], list[int]] = {}
        for v in sorted(scope):
            groups.setdefault(self.vertex_label[v], []).append(v)
        return groups

    def _relabel_groups(
        self,
        expr: MixedExpression,
        updates: list[tuple[tuple, tuple]],
        scope: set[int],
    ) -> MixedExpression:
        # updates are (source, target) with idempotent targets; identity skipped
        for src, dst in sorted(updates, key=lambda p: self.enc(p[0])):
            if src == dst:
                continue
            expr = Relabel(self.enc(src), self.enc(dst), expr)
            for v in scope:
                if self.vertex_label[v] == src:
                    self.vertex_label[v] = dst
        return expr

    def build(self) -> MixedExpression:
        # operations act on the vertices of their own subtree only, so the
        # rebuilt expressions carry their vertex scopes alongside
        rebuilt: list[MixedExpression] = []
        scopes: list[set[int]] = []
        for node in _walk_postorder(self.expr):
            kind = type(node)
            if kind is Introduce:
                self.counter += 1
                base = node.label
                lab = (base, frozenset((base,)), frozenset((base,)))
                self.vertex_label[self.counter] = lab
                rebuilt.append(Introduce(self.enc(lab)))
                scopes.append({self.counter})
            elif kind is Union:
                right = rebuilt.pop()
                rebuilt.append(Union(rebuilt.pop(), right))
                right_scope = scopes.pop()
                scopes.append(scopes.pop() | right_scope)
            elif kind is Relabel:
                rebuilt.append(self._rewrite_relabel(node, rebuilt.pop(), scopes[-1]))
            elif kind is AddEdge:
                rebuilt.append(self._rewrite_edge(node, rebuilt.pop(), scopes[-1]))
            else:
                rebuilt.append(self._rewrite_arc(node, rebuilt.pop(), scopes[-1]))
        return rebuilt.pop()

    def _rewrite_relabel(
        self, node: Relabel, expr: MixedExpression, scope: set[int]
    ) -> MixedExpression:
        i, j = node.old, node.new
        # pass 1: base component
        updates = [
            (lab, (j, lab[1], lab[2]))
            for lab in self.occupied(scope)
            if lab[0] == i
        ]
        expr = self._relabel_groups(expr, updates, scope)
        # pass 2: reaching sets
        updates = [
            (lab, (lab[0], lab[1] - {i} | {j}, lab[2]))
            for lab in self.occupied(scope)
            if i in lab[1]
        ]
        expr = self._relabel_groups(expr, updates, scope)
        # pass 3: reachable sets
        updates = [
            (lab, (lab[0], lab[1], lab[2] - {i} | {j}))
            for lab in self.occupied(scope)
            if i in lab[2]
        ]
        return self._relabel_groups(expr, updates, scope)

    def _rewrite_edge(
        self, node: AddEdge, expr: MixedExpression, scope: set[int]
    ) -> MixedExpression:
        groups = self.occupied(scope)
        pairs = [
            (a, b)
            for a in groups
            if a[0] == node.i
            for b in groups
            if b[0] == node.j
        ]
        for a, b in sorted(pairs, key=lambda p: (self.enc(p[0]), self.enc(p[1]))):
            keep = drop = fresh = 0
            for u in groups[a]:
                for w in groups[b]:
                    pair = normalize_edge(u, w)
                    if pair in self.closure.edges:
                        keep += 1
                        if pair not in self.edges:
                            fresh += 1
                    else:
                        drop += 1
            if keep and drop:
                raise UnsupportedClosureExpression(
                    f"labels {a} / {b} mix surviving and overridden edges"
                )
            if not fresh:
                continue  # nothing surviving, or all already added
            for u in groups[a]:
                for w in groups[b]:
                    self.edges.add(normalize_edge(u, w))
            expr = AddEdge(self.enc(a), self.enc(b), expr)
        return expr

    def _rewrite_arc(
        self, node: AddArc, expr: MixedExpression, scope: set[int]
    ) -> MixedExpression:
        i, j = node.i, node.j
        groups = self.occupied(scope)
        # arcs between every reaches-i group and every reached-from-j group
        sources = [a for a in groups if i in a[2]]
        targets = [b for b in groups if j in b[1]]
        ops: list[tuple[tuple, tuple]] = []
        for a in sources:
            for b in targets:
                if a == b:
                    raise DirectedCycleError("arc operation closes a directed cycle")
                fresh = [
                    (u, w)
                    for u in groups[a]
                    for w in groups[b]
                    if (u, w) not in self.arcs
                ]
                if not fresh:
                    continue  # redundant piece elided
                for u, w in fresh:
                    if normalize_edge(u, w) in self.edges:
                        raise UnsupportedClosureExpression(
                            f"transitive arc ({u},{w}) collides with an emitted edge"
                        )
                    self.arcs.add((u, w))
                ops.append((a, b))
        for a, b in sorted(ops, key=lambda p: (self.enc(p[0]), self.enc(p[1]))):
            expr = AddArc(self.enc(a), self.enc(b), expr)
        # label updates: reachability grew across the new arcs
        u_o = frozenset().union(*(b[2] for b in targets)) if targets else frozenset()
        u_i = frozenset().union(*(a[1] for a in sources)) if sources else frozenset()
        updates = [(a, (a[0], a[1], a[2] | u_o)) for a in sources]
        expr = self._relabel_groups(expr, updates, scope)
        updates = [
            (b, (b[0], b[1] | u_i, b[2]))
            for b in self.occupied(scope)
            if j in b[1]
        ]
        return self._relabel_groups(expr, updates, scope)


def tc_expression(e: MixedExpression, cap: int = TC_WIDTH_CAP) -> MixedExpression:
    """Expression constructing the transitive closure of evaluate(e).

    Uses composite labels (base, reaching set, reachable set), at most
    4^w * w of them for input width w. The result is verified against
    ``transitive_closure`` before being returned.
    """
    builder = _TcBuilder(e, cap)
    result = builder.build()
    built = evaluate(result).graph
    if built != builder.closure:
        raise AssertionError("closure construction produced a different graph")
    return result
