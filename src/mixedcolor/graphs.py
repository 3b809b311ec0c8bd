"""Mixed-graph data model, file I/O, and order/reachability primitives.

A mixed graph has undirected edges and directed arcs over vertices 1..n.
Every graph handled here is simple (no loops, no parallel or opposite
relations) and its arc set is acyclic; both properties are enforced when a
``MixedGraph`` is constructed. Instances are immutable and safe to share.
"""

from __future__ import annotations

import heapq
import io
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, TextIO

from .errors import (
    DirectedCycleError,
    DuplicateRelation,
    IncompleteColoring,
    LoopError,
    MixedColorError,
    ParseError,
)

Edge = tuple[int, int]  # normalized: u < v
Arc = tuple[int, int]  # ordered: (tail, head)

# The largest vertex count a graph file may announce. A graph costs about 120
# bytes per vertex before any relation is read, so a header alone could
# otherwise ask for any amount of memory.
MAX_VERTICES = 100_000


def normalize_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class _Adjacency:
    """An adjacency part of the graph index: its first read on a graph builds all
    four parts in one pass into the instance dict, where later reads find them."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, g: MixedGraph | None, owner: type | None = None):
        if g is None:
            return self
        pred_masks, succ_masks, nbr_masks = [0] * (g.n + 1), [0] * (g.n + 1), [0] * (g.n + 1)
        for u, v in g.edges:
            nbr_masks[u] |= 1 << v
            nbr_masks[v] |= 1 << u
        for u, v in g.arcs:
            succ_masks[u] |= 1 << v
            pred_masks[v] |= 1 << u
        g.__dict__.update(
            pred_masks=tuple(pred_masks),
            succ_masks=tuple(succ_masks),
            nbr_masks=tuple(nbr_masks),
            adjacent_masks=tuple([p | s | e for p, s, e in zip(pred_masks, succ_masks, nbr_masks)]),
        )
        return g.__dict__[self.name]


@dataclass(frozen=True)
class MixedGraph:
    """An immutable simple mixed graph on vertices 1..n without directed cycles."""

    n: int
    edges: frozenset[Edge]
    arcs: frozenset[Arc]

    def __post_init__(self) -> None:
        n, edges = self.n, self.edges
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        for u, v in edges:
            if not 1 <= u < v <= n:
                if u == v:
                    raise LoopError(f"edge ({u},{v}) is a loop")
                raise ValueError(f"edge ({u},{v}) not normalized or out of range")
        for u, v in self.arcs:
            if not (1 <= u <= n and 1 <= v <= n and u != v):
                if u == v:
                    raise LoopError(f"arc ({u},{v}) is a loop")
                raise ValueError(f"arc ({u},{v}) out of range")
            if (u, v) in edges or (v, u) in edges:
                raise DuplicateRelation(f"pair {{{u},{v}}} carries an edge and an arc")
        # opposite arcs are a directed 2-cycle and reported as such
        if len(self.order) < n:
            raise DirectedCycleError("arc set induces a directed cycle")

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    # The graph index. Each part is built on first use and then shared by
    # every caller; the first use of any adjacency part builds all four in one
    # pass. Per-vertex tuples are indexed by vertex id (entry 0 is empty); bit
    # v of a mask stands for vertex v, and ``set_bits`` walks a mask's vertices.

    @cached_property
    def order(self) -> tuple[int, ...]:
        """Arc-respecting vertex order, ties broken by smallest id first."""
        return tuple(arc_order(self.n, self.arcs))

    pred_masks = _Adjacency()  # per vertex: in-neighbors
    succ_masks = _Adjacency()  # out-neighbors
    nbr_masks = _Adjacency()  # undirected (edge) neighbors
    adjacent_masks = _Adjacency()  # neighbors along edges and arcs

    @cached_property
    def desc_masks(self) -> tuple[int, ...]:
        """Vertices reachable from each vertex along arcs, self excluded."""
        return _reach_masks(self.n, reversed(self.order), self.succ_masks)

    @cached_property
    def anc_masks(self) -> tuple[int, ...]:
        """Vertices that reach each vertex along arcs, self excluded."""
        return _reach_masks(self.n, self.order, self.pred_masks)

    @cached_property
    def floor(self) -> tuple[int, ...]:
        """Lower bound on the colors each vertex's ancestors need: every
        proper coloring gives v a color above ``floor[v]``."""
        return _needs(self.n, self.order, self.pred_masks, self.adjacent_masks)

    @cached_property
    def ceiling(self) -> tuple[int, ...]:
        """Lower bound on the colors each vertex's descendants need: every
        proper coloring with colors 1..k gives v at most ``k - ceiling[v]``."""
        return _needs(self.n, reversed(self.order), self.succ_masks, self.adjacent_masks)

    @cached_property
    def layering(self) -> Layering:
        """Partition by inrank (longest-path DP over ``order``)."""
        rank, preds = [0] * (self.n + 1), self.pred_masks
        for v in self.order:
            rest = preds[v]
            top = 0
            while rest:
                low = rest & -rest
                r = rank[low.bit_length() - 1]
                if r >= top:
                    top = r + 1
                rest ^= low
            rank[v] = top
        layers: list[list[int]] = [[] for _ in range(max(rank) + 1 if self.n else 0)]
        for v in self.vertices:
            layers[rank[v]].append(v)
        inrank = dict(zip(self.vertices, rank[1:]))  # in id order
        return Layering(tuple(map(frozenset, layers)), MappingProxyType(inrank))


def mixed_graph(n: int, edges: Iterable[tuple[int, int]] = (), arcs: Iterable[tuple[int, int]] = ()) -> MixedGraph:
    """Build a validated MixedGraph, normalizing edge orientation."""
    return MixedGraph(n, frozenset(normalize_edge(u, v) for u, v in edges), frozenset(tuple(a) for a in arcs))


def set_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, lowest first (the vertices of a vertex mask)."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _reach_masks(n: int, order: Iterable[int], step: tuple[int, ...]) -> tuple[int, ...]:
    masks = [0] * (n + 1)
    for v in order:  # every vertex of step[v] comes before v
        rest = mask = step[v]
        while rest:
            low = rest & -rest
            mask |= masks[low.bit_length() - 1]
            rest ^= low
        masks[v] = mask
    return tuple(masks)


def _needs(n: int, order: Iterable[int], step: tuple[int, ...], adjacent: tuple[int, ...]) -> tuple[int, ...]:
    """Per vertex, how many colors must lie on the ``step`` side of its own.

    The colors of ``step[v]`` all lie on one side of v's: below it for
    in-neighbors, above it for out-neighbors. A greedy clique grows among
    them on ``adjacent``, taken by need descending, then id. When u joins as
    the j-th member, the j members have distinct colors, each with at least
    ``need[u]`` colors beyond it on that side, so at least ``need[u] + j``
    colors lie there beyond v's. ``need[v]`` is the largest such value, and
    0 without ``step`` neighbors.
    """
    need = [0] * (n + 1)
    for v in order:  # every vertex of step[v] comes before v
        rest = step[v]
        if not rest & (rest - 1):  # at most one step neighbor: it alone is the clique
            if rest:
                need[v] = need[rest.bit_length() - 1] + 1
            continue
        members = []
        while rest:
            low = rest & -rest
            members.append(low.bit_length() - 1)
            rest ^= low
        # by need descending, then id: reverse=True keeps the id order of ties
        members.sort(key=need.__getitem__, reverse=True)
        clique = size = best = 0
        for u in members:
            if clique & ~adjacent[u] == 0:
                clique |= 1 << u
                size += 1
                if need[u] + size > best:
                    best = need[u] + size
        need[v] = best
    return tuple(need)


def arc_order(n: int, arcs: Iterable[Arc]) -> list[int]:
    """Kahn's algorithm: vertices 1..n in an arc-respecting order, taking the
    smallest ready id first.

    The order leaves out every vertex on or behind a directed cycle, so it is
    shorter than n exactly when the arcs are cyclic. Vertices without arcs
    do not change the relative order of the others.
    """
    out: list[list[int]] = [[] for _ in range(n + 1)]
    indeg = [0] * (n + 1)
    for u, v in arcs:
        out[u].append(v)
        indeg[v] += 1
    heap = [v for v in range(1, n + 1) if indeg[v] == 0]  # sorted, so a heap
    order: list[int] = []
    while heap:
        v = heapq.heappop(heap)
        order.append(v)
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(heap, w)
    return order


@dataclass(frozen=True)
class Coloring:
    """A total assignment of positive colors to the vertices of some graph."""

    colors: dict[int, int]

    def __post_init__(self) -> None:
        for v, c in self.colors.items():
            if c < 1:
                raise ValueError(f"vertex {v} has non-positive color {c}")

    def num_colors(self) -> int:
        return len(set(self.colors.values()))

    def max_color(self) -> int:
        return max(self.colors.values(), default=0)


@dataclass(frozen=True)
class Layering:
    """Partition of the vertices by inrank; arcs always point to higher layers.

    The empty graph has no layers.
    """

    layers: tuple[frozenset[int], ...]
    inrank: Mapping[int, int]  # read-only: the graph index shares it


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def load_graph(stream: TextIO) -> MixedGraph:
    """Parse the extended-DIMACS mixed graph format.

    Header ``p mixed <n> <edges> <arcs>``, relation lines ``e u v`` (u < v)
    and ``a u v``; ``#`` starts a comment. A text in the layout ``save_graph``
    writes loads in one pass over its tokens; every other text, and every
    text whose graph is rejected, goes through the line reader, so its errors
    and their line numbers come from one place.
    """
    text = stream.read()
    g = _load_saved(text)
    # io.StringIO, not str.splitlines: only "\n" may end a line
    return g if g is not None else _load_lines(io.StringIO(text))


def _load_saved(text: str) -> MixedGraph | None:
    """The graph of a text in exactly ``save_graph``'s layout, else None.

    Whole-text counts prove the layout: with a final newline, each of the
    other E + A newlines starts a line with an ``e`` or ``a`` token. Those
    kind tokens can only be tokens 5, 8, 11, ..., because the five header
    tokens are not kinds and every other token must be an integer; so the
    header line has exactly five tokens and each relation line three.
    """
    tokens = text.split()
    if tokens[:2] != ["p", "mixed"] or not text.endswith("\n"):
        return None
    try:  # from int() or MixedGraph: the line reader words the error
        n, e, a = map(int, tokens[2:5])
        if (
            min(n, e, a) < 0
            or n > MAX_VERTICES
            or len(tokens) != 5 + 3 * (e + a)
            or text.count("\n") != 1 + e + a
            or text.count("\ne ") != e
            or text.count("\na ") != a
            or tokens[5::3] != ["e"] * e + ["a"] * a
        ):
            return None
        tails = list(map(int, tokens[6::3]))
        heads = list(map(int, tokens[7::3]))
        del tokens  # one string per token: drop them before the sets are built
        edges = frozenset(zip(tails[:e], heads[:e]))
        arcs = frozenset(zip(tails[e:], heads[e:]))
        if len(edges) != e or len(arcs) != a:  # a repeated relation
            return None
        return MixedGraph(n, edges, arcs)
    except (MixedColorError, ValueError):
        return None


def _lines(stream: TextIO, pace: bool = False) -> Iterator[tuple[int, list[str]]]:
    """Each line's number and tokens, skipping empty lines and comments: the
    text from ``#`` on, or under the PACE rule every line whose first token
    starts with ``c``."""
    for lineno, raw in enumerate(stream, start=1):
        parts = raw.split() if pace else raw.split("#", 1)[0].split()
        if parts and not (pace and parts[0].startswith("c")):
            yield lineno, parts


def _ints(lineno: int, tokens: list[str], what: str) -> list[int]:
    """``tokens`` as integers, else ParseError "line N: " + ``what`` with ``{}`` as the tokens."""
    try:
        return list(map(int, tokens))
    except ValueError as exc:
        raise ParseError(f"line {lineno}: " + what.format(tokens)) from exc


def _load_lines(stream: TextIO) -> MixedGraph:
    """The line reader: checks each line as it reads it and words every error."""
    n = -1
    expected_edges = expected_arcs = 0
    edges: set[Edge] = set()
    arcs: set[Arc] = set()
    for lineno, parts in _lines(stream):
        if parts[0] == "p":
            if n >= 0:
                raise ParseError(f"line {lineno}: duplicate header")
            if len(parts) != 5 or parts[1] != "mixed":
                raise ParseError(f"line {lineno}: bad header {' '.join(parts)!r}")
            n, expected_edges, expected_arcs = _ints(lineno, parts[2:], "bad header numbers")
            if n < 0 or expected_edges < 0 or expected_arcs < 0:
                raise ParseError(f"line {lineno}: negative counts")
            if n > MAX_VERTICES:
                raise ParseError(f"line {lineno}: {n} vertices, more than the {MAX_VERTICES} allowed")
        elif parts[0] in ("e", "a"):
            if n < 0:
                raise ParseError(f"line {lineno}: relation before header")
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: bad relation line {' '.join(parts)!r}")
            u, v = _ints(lineno, parts[1:], "bad vertex id")
            if u == v:
                raise LoopError(f"line {lineno}: loop at vertex {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"line {lineno}: vertex out of range 1..{n}")
            pair = normalize_edge(u, v)
            if parts[0] == "e":
                if u >= v:
                    raise ParseError(f"line {lineno}: edge must satisfy u < v")
                if pair in edges or (u, v) in arcs or (v, u) in arcs:
                    raise DuplicateRelation(f"line {lineno}: pair {{{u},{v}}} already related")
                edges.add(pair)
            else:
                if pair in edges or (u, v) in arcs:
                    raise DuplicateRelation(f"line {lineno}: pair {{{u},{v}}} already related")
                # an opposite arc is a directed 2-cycle; graph validation reports it
                arcs.add((u, v))
        else:
            raise ParseError(f"line {lineno}: unknown line kind {parts[0]!r}")
    if n < 0:
        raise ParseError("missing header line")
    if len(edges) != expected_edges or len(arcs) != expected_arcs:
        raise ParseError(
            f"header announced {expected_edges} edges / {expected_arcs} arcs, "
            f"found {len(edges)} / {len(arcs)}"
        )
    return MixedGraph(n, frozenset(edges), frozenset(arcs))


def save_graph(g: MixedGraph, stream: TextIO) -> None:
    stream.write(f"p mixed {g.n} {len(g.edges)} {len(g.arcs)}\n")
    for u, v in sorted(g.edges):
        stream.write(f"e {u} {v}\n")
    for u, v in sorted(g.arcs):
        stream.write(f"a {u} {v}\n")


def load_coloring(stream: TextIO) -> Coloring:
    """Parse a coloring certificate: one ``<vertex> <color>`` line per vertex."""
    colors: dict[int, int] = {}
    for lineno, parts in _lines(stream):
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected '<vertex> <color>'")
        v, c = _ints(lineno, parts, "bad integer")
        if v in colors:
            raise ParseError(f"line {lineno}: vertex {v} colored twice")
        if c < 1:
            raise ParseError(f"line {lineno}: color must be positive")
        colors[v] = c
    return Coloring(colors)


def save_coloring(c: Coloring, stream: TextIO) -> None:
    for v in sorted(c.colors):
        stream.write(f"{v} {c.colors[v]}\n")


def coloring_total_on(c: Coloring, g: MixedGraph) -> None:
    """Raise IncompleteColoring unless c colors exactly the vertices of g."""
    if set(c.colors) != set(g.vertices):
        missing = sorted(set(g.vertices) - set(c.colors))
        extra = sorted(set(c.colors) - set(g.vertices))
        raise IncompleteColoring(f"missing={missing} extra={extra}")


# ---------------------------------------------------------------------------
# structural primitives
# ---------------------------------------------------------------------------

def topological_order(g: MixedGraph) -> list[int]:
    """Arc-respecting vertex order, ties broken by smallest id first."""
    return list(g.order)


def transitive_closure(g: MixedGraph) -> MixedGraph:
    """Add every transitive arc and drop edges now parallel to an arc."""
    arcs = frozenset((u, v) for u in g.vertices for v in set_bits(g.desc_masks[u]))
    edges = frozenset((u, v) for u, v in g.edges if not (g.desc_masks[u] >> v | g.desc_masks[v] >> u) & 1)
    return MixedGraph(g.n, edges, arcs)


def layering(g: MixedGraph) -> Layering:
    """Partition by inrank; the graph index part ``g.layering``."""
    return g.layering


def maxrank(g: MixedGraph) -> int:
    """Length of the longest directed path (0 for arc-free graphs)."""
    return max(layering(g).inrank.values(), default=0)


def underlying_undirected(g: MixedGraph) -> MixedGraph:
    """Replace every arc with an edge."""
    edges = set(g.edges)
    edges.update(normalize_edge(u, v) for (u, v) in g.arcs)
    return MixedGraph(g.n, frozenset(edges), frozenset())


def corresponding_digraph(g: MixedGraph) -> frozenset[Arc]:
    """Arc set of the digraph with each edge replaced by two opposite arcs."""
    arcs = set(g.arcs)
    for u, v in g.edges:
        arcs.add((u, v))
        arcs.add((v, u))
    return frozenset(arcs)
