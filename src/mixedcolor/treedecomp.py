"""Tree decompositions: PACE 2017 I/O, validation, min-degree heuristic, and
conversion to nice (leaf/introduce/forget/join) form for the coloring DP.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple, TextIO

from .errors import InvalidDecomposition, ParseError
from .graphs import MixedGraph, _ints, _lines, normalize_edge, set_bits


@dataclass(frozen=True)
class TreeDecomposition:
    """Bags indexed 0..b-1 with tree edges between bag indices."""

    n: int
    bags: tuple[frozenset[int], ...]
    tree_edges: tuple[tuple[int, int], ...]

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1


def _bag_adjacency(td: TreeDecomposition) -> list[list[int]]:
    """The neighbor bags of each bag; raises InvalidDecomposition unless
    there are bags and the tree edges, each within range, make them a tree."""
    b = len(td.bags)
    adj: list[list[int]] = [[] for _ in range(b)]
    for i, j in td.tree_edges:
        if not (0 <= i < b and 0 <= j < b):
            raise InvalidDecomposition(f"tree edge ({i},{j}) out of range")
        adj[i].append(j)
        adj[j].append(i)
    if b == 0:
        raise InvalidDecomposition("decomposition has no bags")
    seen = {0}
    stack = [0]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    if len(seen) != b or len(td.tree_edges) != b - 1:
        raise InvalidDecomposition("bag graph is not a tree")
    return adj


def validate_decomposition(td: TreeDecomposition, g: MixedGraph) -> None:
    """Raise InvalidDecomposition on a wrong vertex count, a bag vertex outside 1..n, or a
    coverage or connectivity violation."""
    if td.n != g.n:
        raise InvalidDecomposition(f"decomposition is for {td.n} vertices, the graph has {g.n}")
    _bag_adjacency(td)
    held: dict[int, int] = {}  # vertex -> mask of the bags holding it
    for i, bag in enumerate(td.bags):
        for v in bag:
            held[v] = held.get(v, 0) | 1 << i
    stray = min(held.keys() - set(g.vertices), default=None)
    if stray is not None:
        raise InvalidDecomposition(f"bag vertex {stray} is not a vertex of the graph")
    if len(held) != g.n:
        raise InvalidDecomposition("bags do not cover the vertex set")
    rel = [normalize_edge(u, v) for u, v in g.edges]
    rel += [normalize_edge(u, v) for u, v in g.arcs]
    for u, v in rel:
        if not held[u] & held[v]:
            raise InvalidDecomposition(f"relation {{{u},{v}}} not contained in any bag")
    # the bags holding v span a subforest of the tree, which is connected
    # exactly when it has one tree edge fewer than bags
    shared = dict.fromkeys(held, 0)
    for i, j in td.tree_edges:
        for v in td.bags[i] & td.bags[j]:
            shared[v] += 1
    for v in g.vertices:
        if shared[v] != held[v].bit_count() - 1:
            raise InvalidDecomposition(f"bags containing vertex {v} are disconnected")


def min_fill_decomposition(g: MixedGraph) -> TreeDecomposition:
    """Heuristic decomposition by min-degree elimination on the underlying graph.

    Each step eliminates the vertex with the least ``(degree, id)``; its
    neighbors then become a clique. Only their degrees change, so only they
    are rescored; a heap with lazy deletion keeps the order. Of the bags the
    elimination leaves, one per vertex, only the maximal ones are kept (a bag
    inside its child is contracted into it), so bag 0 is still the
    first-eliminated vertex's bag. The name is from the min-fill heuristic
    this replaced, and stays because the tracer's ``treedecomp.min_fill``
    span wraps ``solvers.min_fill_decomposition``.
    """
    if g.n == 0:
        return TreeDecomposition(0, (frozenset(),), ())
    # elimination adds fill edges, so it works on a mutable copy
    adj = list(g.adjacent_masks)

    def key(v: int) -> tuple[int, int]:
        return adj[v].bit_count(), v

    current = [None] + [key(v) for v in g.vertices]  # None once eliminated
    heap = current[1:]
    heapq.heapify(heap)
    order: list[int] = []
    bags: list[frozenset[int]] = []  # bags[i] is order[i] with its neighbors then
    while heap:
        entry = heapq.heappop(heap)
        v = entry[1]
        if current[v] != entry:  # stale, or v already eliminated
            continue
        current[v] = None
        nbrs = adj[v]
        members = list(set_bits(nbrs))
        bags.append(frozenset(members).union((v,)))
        gone = ~(1 << v)
        for a in members:  # the neighbors become a clique without v
            adj[a] = (adj[a] | nbrs) & ~(1 << a) & gone
            rescored = key(a)
            if rescored != current[a]:  # else a's live entry is still in the heap
                current[a] = rescored
                heapq.heappush(heap, rescored)
        order.append(v)
    # bag i's parent is the bag of its earliest-eliminated later neighbor (the
    # last bag if none), which holds all of bag i but order[i]; a parent inside
    # its child is contracted into it, and taking the children in elimination
    # order folds a chain of such bags into one
    pos = {v: i for i, v in enumerate(order)}
    parent = [min((pos[w] for w in bags[i] if w != v), default=len(order) - 1) for i, v in enumerate(order[:-1])]
    into = list(range(len(order)))  # the kept bag each bag folds into
    for i, p in enumerate(parent):
        if into[p] == p and bags[p] < bags[i]:
            into[p] = into[i]
    kept = [i for i in range(len(order)) if into[i] == i]
    new = {b: j for j, b in enumerate(kept)}
    edges = [(new[into[i]], new[into[p]]) for i, p in enumerate(parent) if into[i] != into[p]]
    td = TreeDecomposition(g.n, tuple(bags[i] for i in kept), tuple(edges))
    validate_decomposition(td, g)
    return td


def load_td(stream: TextIO) -> TreeDecomposition:
    """Parse the PACE 2017 .td format ('c' comments, 's td', 'b' bag lines)."""
    header = None
    bags: dict[int, frozenset[int]] = {}
    edges: list[tuple[int, int]] = []
    bad_ints = "expected integers in {}"
    for lineno, parts in _lines(stream, pace=True):
        if parts[0] == "s":
            if header is not None:
                raise ParseError(f"line {lineno}: duplicate solution line")
            if len(parts) != 5 or parts[1] != "td":
                raise ParseError(f"line {lineno}: bad 's td' line")
            header, header_line = _ints(lineno, parts[2:], bad_ints), lineno
        elif parts[0] == "b":
            if header is None:
                raise ParseError(f"line {lineno}: bag before header")
            values = _ints(lineno, parts[1:], bad_ints)
            if not values:
                raise ParseError(f"line {lineno}: bag line without a bag id")
            idx = values[0]
            if idx in bags:
                raise ParseError(f"line {lineno}: duplicate bag {idx}")
            bags[idx] = frozenset(values[1:])
        else:
            if header is None:
                raise ParseError(f"line {lineno}: edge before header")
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: bad tree edge")
            edges.append(tuple(_ints(lineno, parts, bad_ints)))
    if header is None:
        raise ParseError("missing 's td' line")
    num_bags, size, n = header
    # the ids are distinct, so these are 1..num_bags; no set of num_bags ids is built
    if len(bags) != max(num_bags, 0) or not all(1 <= i <= num_bags for i in bags):
        raise ParseError("bag ids must be 1..num_bags")
    ordered = tuple(bags[i] for i in range(1, num_bags + 1))
    tree_edges = tuple((i - 1, j - 1) for i, j in edges)
    td = TreeDecomposition(n, ordered, tree_edges)
    if size != td.width + 1:
        raise ParseError(f"line {header_line}: header gives largest bag {size}, the bags give {td.width + 1}")
    return td


def save_td(td: TreeDecomposition, stream: TextIO) -> None:
    stream.write(f"s td {len(td.bags)} {td.width + 1} {td.n}\n")
    for i, bag in enumerate(td.bags, start=1):
        stream.write("b " + " ".join([str(i)] + [str(v) for v in sorted(bag)]) + "\n")
    for i, j in td.tree_edges:
        stream.write(f"{i + 1} {j + 1}\n")


# ---------------------------------------------------------------------------
# nice form
# ---------------------------------------------------------------------------

class NiceNode(NamedTuple):
    """One step of a nice decomposition; a named tuple, cheap to build and to read."""

    kind: str  # "leaf" | "introduce" | "forget" | "join"
    bag: tuple[int, ...]  # sorted
    vertex: int | None = None  # the vertex introduced or forgotten
    pos: int | None = None  # its index in the larger of bag and the operand's bag


def _chain(steps: list[NiceNode], from_bag: frozenset[int], to_bag: frozenset[int]) -> None:
    """Append the steps that forget (from - to), then introduce (to - from)."""
    bag = sorted(from_bag)
    for v in sorted(from_bag - to_bag):
        pos = bisect_left(bag, v)
        del bag[pos]
        steps.append(NiceNode("forget", tuple(bag), v, pos))
    for v in sorted(to_bag - from_bag):
        pos = bisect_left(bag, v)
        bag.insert(pos, v)
        steps.append(NiceNode("introduce", tuple(bag), v, pos))


def make_nice(td: TreeDecomposition) -> list[NiceNode]:
    """Nice decomposition rooted at bag 0, with an empty root bag and empty
    leaf bags, as a post-order list of steps, root last: a step's operands
    are the bags the steps before it leave on a stack, two for a join.

    A bag's children are taken last to first, each followed by the chain to
    the bag and each but the first taken by a join: children c1..cm give
    join(c1, join(c2, ... cm)).
    """
    adj = _bag_adjacency(td)
    steps: list[NiceNode] = []
    # (bag, parent, None): walk the bag; (bag, parent, join): its subtree is
    # done, so the chain to the parent's bag (empty above the root) follows,
    # and a join unless it is the first child taken
    stack: list[tuple[int, int, bool | None]] = [(0, -1, False), (0, -1, None)]
    while stack:
        node, parent, join = stack.pop()
        if join is not None:
            up = td.bags[parent] if parent >= 0 else frozenset()
            _chain(steps, td.bags[node], up)
            if join:
                steps.append(NiceNode("join", tuple(sorted(up))))
        else:
            kids = [c for c in adj[node] if c != parent]
            if not kids:
                steps.append(NiceNode("leaf", ()))
                _chain(steps, frozenset(), td.bags[node])
            for i, child in enumerate(kids):
                stack += [(child, node, i < len(kids) - 1), (child, node, None)]
    return steps
