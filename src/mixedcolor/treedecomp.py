"""Tree decompositions: PACE 2017 I/O, validation, min-fill heuristic, and
conversion to nice (leaf/introduce/forget/join) form for the coloring DP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TextIO

from .errors import InvalidDecomposition, ParseError
from .graphs import MixedGraph, normalize_edge, underlying_undirected


@dataclass(frozen=True)
class TreeDecomposition:
    """Bags indexed 0..b-1 with tree edges between bag indices."""

    n: int
    bags: tuple[frozenset[int], ...]
    tree_edges: tuple[tuple[int, int], ...]

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=1) - 1


def validate_decomposition(td: TreeDecomposition, g: MixedGraph) -> None:
    """Raise InvalidDecomposition on any coverage/connectivity violation."""
    b = len(td.bags)
    for i, j in td.tree_edges:
        if not (0 <= i < b and 0 <= j < b):
            raise InvalidDecomposition(f"tree edge ({i},{j}) out of range")
    # the tree must be a tree
    if b == 0:
        raise InvalidDecomposition("decomposition has no bags")
    adj: dict[int, set[int]] = {i: set() for i in range(b)}
    for i, j in td.tree_edges:
        adj[i].add(j)
        adj[j].add(i)
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    if len(seen) != b or len(td.tree_edges) != b - 1:
        raise InvalidDecomposition("bag graph is not a tree")
    covered = set().union(*td.bags) if td.bags else set()
    if covered != set(g.vertices):
        raise InvalidDecomposition("bags do not cover the vertex set")
    rel = [normalize_edge(u, v) for u, v in g.edges]
    rel += [normalize_edge(u, v) for u, v in g.arcs]
    for u, v in rel:
        if not any(u in bag and v in bag for bag in td.bags):
            raise InvalidDecomposition(f"relation {{{u},{v}}} not contained in any bag")
    for v in g.vertices:
        holding = [i for i, bag in enumerate(td.bags) if v in bag]
        hold = set(holding)
        seen = {holding[0]}
        stack = [holding[0]]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y in hold and y not in seen:
                    seen.add(y)
                    stack.append(y)
        if seen != hold:
            raise InvalidDecomposition(f"bags containing vertex {v} are disconnected")


def min_fill_decomposition(g: MixedGraph) -> TreeDecomposition:
    """Heuristic decomposition by min-fill elimination on the underlying graph."""
    und = underlying_undirected(g)
    if und.n == 0:
        return TreeDecomposition(0, (frozenset(),), ())
    adj: dict[int, set[int]] = {v: set() for v in und.vertices}
    for u, v in und.edges:
        adj[u].add(v)
        adj[v].add(u)

    def fill_cost(v: int) -> int:
        nbrs = sorted(adj[v])
        return sum(
            1
            for i, a in enumerate(nbrs)
            for b in nbrs[i + 1:]
            if b not in adj[a]
        )

    remaining = set(und.vertices)
    order: list[int] = []
    bag_of: dict[int, frozenset[int]] = {}
    while remaining:
        v = min(remaining, key=lambda u: (fill_cost(u), len(adj[u]), u))
        bag_of[v] = frozenset(adj[v] | {v})
        nbrs = sorted(adj[v])
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1:]:
                adj[a].add(b)
                adj[b].add(a)
        for a in nbrs:
            adj[a].discard(v)
        del adj[v]
        remaining.remove(v)
        order.append(v)
    pos = {v: i for i, v in enumerate(order)}
    bags = [bag_of[v] for v in order]
    edges = []
    for i, v in enumerate(order[:-1]):
        later = [w for w in bags[i] if w != v]
        if later:
            parent = min(later, key=lambda w: pos[w])
            edges.append((i, pos[parent]))
        else:
            edges.append((i, len(order) - 1))
    # deduplicate self-loops from isolated tail vertices
    edges = [(i, j) for i, j in edges if i != j]
    td = TreeDecomposition(g.n, tuple(bags), tuple(edges))
    validate_decomposition(td, g)
    return td


def load_td(stream: TextIO) -> TreeDecomposition:
    """Parse the PACE 2017 .td format ('c' comments, 's td', 'b' bag lines)."""
    header = None
    bags: dict[int, frozenset[int]] = {}
    edges: list[tuple[int, int]] = []

    def ints(parts, lineno):
        try:
            return [int(x) for x in parts]
        except ValueError as exc:
            raise ParseError(f"line {lineno}: expected integers in {parts}") from exc

    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "s":
            if header is not None:
                raise ParseError(f"line {lineno}: duplicate solution line")
            if len(parts) != 5 or parts[1] != "td":
                raise ParseError(f"line {lineno}: bad 's td' line")
            header = tuple(ints(parts[2:], lineno))
        elif parts[0] == "b":
            if header is None:
                raise ParseError(f"line {lineno}: bag before header")
            values = ints(parts[1:], lineno)
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
            edges.append(tuple(ints(parts, lineno)))
    if header is None:
        raise ParseError("missing 's td' line")
    num_bags, _, n = header
    if set(bags) != set(range(1, num_bags + 1)):
        raise ParseError("bag ids must be 1..num_bags")
    ordered = tuple(bags[i] for i in range(1, num_bags + 1))
    tree_edges = tuple((i - 1, j - 1) for i, j in edges)
    return TreeDecomposition(n, ordered, tree_edges)


def save_td(td: TreeDecomposition, stream: TextIO) -> None:
    stream.write(f"s td {len(td.bags)} {td.width + 1} {td.n}\n")
    for i, bag in enumerate(td.bags, start=1):
        stream.write("b " + " ".join([str(i)] + [str(v) for v in sorted(bag)]) + "\n")
    for i, j in td.tree_edges:
        stream.write(f"{i + 1} {j + 1}\n")


# ---------------------------------------------------------------------------
# nice form
# ---------------------------------------------------------------------------

@dataclass
class NiceNode:
    kind: str  # "leaf" | "introduce" | "forget" | "join"
    bag: tuple[int, ...]  # sorted
    vertex: int | None = None
    children: list["NiceNode"] = field(default_factory=list)


def _chain(from_bag: frozenset[int], to_bag: frozenset[int], below: NiceNode) -> NiceNode:
    """Forget (from - to), then introduce (to - from), above ``below``."""
    node = below
    current = set(from_bag)
    for v in sorted(from_bag - to_bag):
        current.discard(v)
        node = NiceNode("forget", tuple(sorted(current)), v, [node])
    for v in sorted(to_bag - from_bag):
        current.add(v)
        node = NiceNode("introduce", tuple(sorted(current)), v, [node])
    return node


def make_nice(td: TreeDecomposition) -> NiceNode:
    """Rooted nice decomposition with an empty root bag and empty leaf bags."""
    b = len(td.bags)
    adj: dict[int, list[int]] = {i: [] for i in range(b)}
    for i, j in td.tree_edges:
        adj[i].append(j)
        adj[j].append(i)

    def build(node: int, parent: int) -> NiceNode:
        kids = [c for c in adj[node] if c != parent]
        bag = td.bags[node]
        if not kids:
            return _chain(frozenset(), bag, NiceNode("leaf", ()))
        subtrees = [_chain(td.bags[c], bag, build(c, node)) for c in kids]
        while len(subtrees) > 1:
            right = subtrees.pop()
            left = subtrees.pop()
            subtrees.append(NiceNode("join", tuple(sorted(bag)), None, [left, right]))
        return subtrees[0]

    root = build(0, -1)
    return _chain(td.bags[0], frozenset(), root)
