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

    A composite label (base, I, O) holds the base labels with a directed path
    to a vertex (I) and reachable from it (O); both hold the vertex's own
    base. The tree folds as in ``_evaluate``, into ``composite label ->
    vertices`` groups. A relabel or arc operation is then one idempotent map
    of composite labels, applied by one ``Relabel`` per group that it moves;
    an arc operation first adds every transitive arc between occupied groups.
    Vacuous operations are elided, and edges destined to be overridden by
    closure arcs are never added. If two vertices share a composite label but
    disagree on whether an edge survives in the closure, no label-uniform
    expression exists and UnsupportedClosureExpression is raised.
    """

    def __init__(self, e: MixedExpression):
        self.expr = e
        base_labels = sorted(_labels(e))
        if len(base_labels) > TC_WIDTH_CAP:
            raise WidthCapExceeded(f"expression width {len(base_labels)} exceeds cap {TC_WIDTH_CAP}")
        self.position = {lab: pos for pos, lab in enumerate(base_labels)}
        self.closure = transitive_closure(evaluate(e).graph)
        self.arcs: set[tuple[int, int]] = set()
        self.edges: set[tuple[int, int]] = set()
        self.encoding: dict[tuple, int] = {}

    def enc(self, label: tuple[int, frozenset[int], frozenset[int]]) -> int:
        if label not in self.encoding:
            base, iset, oset = label
            position = self.position
            bits = len(position)
            imask = sum(1 << position[x] for x in iset)
            omask = sum(1 << position[x] for x in oset)
            self.encoding[label] = 1 + position[base] * (1 << (2 * bits)) + (imask << bits) + omask
        return self.encoding[label]

    def build(self) -> MixedExpression:
        # each subexpression folds to (its rebuilt expression, its groups)
        states: list[tuple[MixedExpression, dict[tuple, list[int]]]] = []
        rewrites = {Relabel: self._relabel, AddEdge: self._add_edges, AddArc: self._add_arcs}
        counter = 0
        for node in _walk_postorder(self.expr):
            kind = type(node)
            if kind is Introduce:
                counter += 1
                own = frozenset((node.label,))
                lab = (node.label, own, own)
                states.append((Introduce(self.enc(lab)), {lab: [counter]}))
            elif kind is Union:
                right, right_groups = states.pop()
                left, groups = states.pop()
                for lab, members in right_groups.items():
                    groups.setdefault(lab, []).extend(members)
                states.append((Union(left, right), groups))
            else:
                expr, groups = states.pop()
                states.append((rewrites[kind](node[0], node[1], expr, groups), groups))
        return states.pop()[0]

    def _move(self, expr: MixedExpression, groups: dict[tuple, list[int]], f) -> MixedExpression:
        """Relabel every group to f(its label), in ``enc`` order.

        f is idempotent, so a target label is a fixed point: no group moves
        twice, and groups sent to one label merge there.
        """
        for src in sorted(groups, key=self.enc):
            dst = f(src)
            if dst != src:
                expr = Relabel(self.enc(src), self.enc(dst), expr)
                groups.setdefault(dst, []).extend(groups.pop(src))
        return expr

    def _relabel(self, i: int, j: int, expr: MixedExpression, groups: dict) -> MixedExpression:
        # i becomes j in the base and in both sets, so no i is left anywhere
        def rename(labels: frozenset[int]) -> frozenset[int]:
            return labels - {i} | {j} if i in labels else labels

        return self._move(expr, groups, lambda lab: (j if lab[0] == i else lab[0], rename(lab[1]), rename(lab[2])))

    def _add_edges(self, i: int, j: int, expr: MixedExpression, groups: dict) -> MixedExpression:
        order = sorted(groups, key=self.enc)
        for a in (a for a in order if a[0] == i):
            for b in (b for b in order if b[0] == j):
                joined = {normalize_edge(u, w) for u in groups[a] for w in groups[b]}
                kept = joined & self.closure.edges
                if kept and kept != joined:
                    raise UnsupportedClosureExpression(f"labels {a} / {b} mix surviving and overridden edges")
                if kept - self.edges:  # else nothing survives, or all were added
                    self.edges |= kept
                    expr = AddEdge(self.enc(a), self.enc(b), expr)
        return expr

    def _add_arcs(self, i: int, j: int, expr: MixedExpression, groups: dict) -> MixedExpression:
        # arcs from every group that reaches an i-vertex to every group reached
        # from a j-vertex. No group is both, as the arc would close a cycle,
        # which evaluate rejected; and every added arc is a closure arc, so it
        # meets no emitted edge. tc_expression's final check guards both.
        order = sorted(groups, key=self.enc)
        sources = [a for a in order if i in a[2]]
        targets = [b for b in order if j in b[1]]
        for a in sources:
            for b in targets:
                fresh = {(u, w) for u in groups[a] for w in groups[b]} - self.arcs
                if fresh:  # else the piece is redundant and elided
                    self.arcs |= fresh
                    expr = AddArc(self.enc(a), self.enc(b), expr)
        # reachability grows across the new arcs
        u_i = frozenset().union(*(a[1] for a in sources))
        u_o = frozenset().union(*(b[2] for b in targets))

        def reached(lab: tuple) -> tuple:
            base, iset, oset = lab
            return base, iset | u_i if j in iset else iset, oset | u_o if i in oset else oset

        return self._move(expr, groups, reached)


def tc_expression(e: MixedExpression) -> MixedExpression:
    """Expression constructing the transitive closure of evaluate(e).

    Uses composite labels (base, reaching set, reachable set). Both sets hold
    the base, so an input of width w has at most w * 4^(w-1) of them (48 at
    ``TC_WIDTH_CAP``), encoded as ids up to w * 4^w (192). The result is
    verified against ``transitive_closure`` before being returned.
    """
    builder = _TcBuilder(e)
    result = builder.build()
    built = evaluate(result).graph
    if built != builder.closure:
        raise AssertionError("closure construction produced a different graph")
    return result
