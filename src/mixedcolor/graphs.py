"""Mixed-graph data model, file I/O, and order/reachability primitives.

A mixed graph has undirected edges and directed arcs over vertices 1..n.
Every graph handled here is simple (no loops, no parallel or opposite
relations) and its arc set is acyclic: ``mixed_graph`` and the loaders check
the relations, and constructing a ``MixedGraph`` checks the arcs for a
directed cycle. Instances are immutable and safe to share.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from operator import lt
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

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

# The largest vertex count a graph file may announce: a header alone costs about
# 100 bytes per vertex (the mask tuples and ``order``). Relations cost more, as a
# mask takes about (largest neighbor id) / 8 bytes: a long sparse graph costs
# memory quadratic in n, and the directed path on 100,000 vertices about 1.3 GiB.
MAX_VERTICES = 100_000


def normalize_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class _derived(cached_property):
    """A graph part derived on its first read: ``cached_property`` without the lock that
    Python 3.11 takes on every fill (two threads may both derive it, to equal values)."""

    def __get__(self, g, owner=None):
        value = g.__dict__[self.attrname] = self.func(g)
        return value


@dataclass(frozen=True, init=False)
class MixedGraph:
    """An immutable simple mixed graph on vertices 1..n without directed cycles.

    The fields are adjacency masks, one per vertex id (entry 0 is empty):
    bit v of ``pred_masks[u]`` stands for the arc (v, u), of ``succ_masks[u]``
    for the arc (u, v) and of ``nbr_masks[u]`` for the edge {u, v}. Build a
    graph with ``mixed_graph`` or a loader, which check the relations and fill
    consistent masks; construction runs the Kahn pass that rejects a directed
    cycle and gives ``order``.
    """

    n: int
    pred_masks: tuple[int, ...]  # per vertex: in-neighbors
    succ_masks: tuple[int, ...]  # out-neighbors
    nbr_masks: tuple[int, ...]  # undirected (edge) neighbors

    def __init__(self, n: int, pred_masks: tuple[int, ...], succ_masks: tuple[int, ...], nbr_masks: tuple[int, ...]):
        indeg = [mask.bit_count() for mask in pred_masks]
        heap = [v for v in range(1, n + 1) if not indeg[v]]  # ascending, so a heap
        order = []
        while heap:
            v = heappop(heap)
            order.append(v)
            rest = succ_masks[v]
            while rest:
                low = rest & -rest
                w = low.bit_length() - 1
                indeg[w] -= 1
                if not indeg[w]:
                    heappush(heap, w)
                rest ^= low
        # a vertex on or behind a directed cycle (opposite arcs are a 2-cycle) is never ready
        if len(order) < n:
            raise DirectedCycleError("arc set induces a directed cycle")
        # frozen: the fields and ``order`` (arc-respecting, smallest ready id first) go into the dict
        self.__dict__.update(n=n, pred_masks=pred_masks, succ_masks=succ_masks, nbr_masks=nbr_masks, order=tuple(order))

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    @_derived
    def edges(self) -> frozenset[Edge]:
        return frozenset(_pairs(self.nbr_masks, upper=True))

    @_derived
    def arcs(self) -> frozenset[Arc]:
        return frozenset(_pairs(self.succ_masks))

    # The graph index, each part derived once and then shared; ``set_bits`` walks a mask.

    @_derived
    def adjacent_masks(self) -> tuple[int, ...]:
        """Neighbors along edges and arcs."""
        return tuple([p | s | e for p, s, e in zip(self.pred_masks, self.succ_masks, self.nbr_masks)])

    @_derived
    def desc_masks(self) -> tuple[int, ...]:
        """Vertices reachable from each vertex along arcs, self excluded."""
        return _reach_masks(self.n, reversed(self.order), self.succ_masks)

    @_derived
    def anc_masks(self) -> tuple[int, ...]:
        """Vertices that reach each vertex along arcs, self excluded."""
        return _reach_masks(self.n, self.order, self.pred_masks)

    @_derived
    def floor(self) -> tuple[int, ...]:
        """Lower bound on the colors each vertex's ancestors need: every
        proper coloring gives v a color above ``floor[v]``."""
        return _needs(self.n, self.order, self.pred_masks, self.adjacent_masks)

    @_derived
    def ceiling(self) -> tuple[int, ...]:
        """Lower bound on the colors each vertex's descendants need: every
        proper coloring with colors 1..k gives v at most ``k - ceiling[v]``."""
        return _needs(self.n, reversed(self.order), self.succ_masks, self.adjacent_masks)

    @_derived
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
    """Build a validated MixedGraph: an edge may come in either orientation,
    and a repeated pair is kept once."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    pred, succ, nbr = [0] * (n + 1), [0] * (n + 1), [0] * (n + 1)
    for u, v in edges:
        if u > v:
            u, v = v, u
        if not 1 <= u < v <= n:
            if u == v:
                raise LoopError(f"edge ({u},{v}) is a loop")
            raise ValueError(f"edge ({u},{v}) not normalized or out of range")
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    for u, v in arcs:
        if not (1 <= u <= n and 1 <= v <= n and u != v):
            if u == v:
                raise LoopError(f"arc ({u},{v}) is a loop")
            raise ValueError(f"arc ({u},{v}) out of range")
        if nbr[u] >> v & 1:
            raise DuplicateRelation(f"pair {{{u},{v}}} carries an edge and an arc")
        succ[u] |= 1 << v
        pred[v] |= 1 << u
    return MixedGraph(n, tuple(pred), tuple(succ), tuple(nbr))


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


def _pairs(masks: Sequence[int], upper: bool = False) -> list[tuple[int, int]]:
    """Each (u, v) with bit v set in ``masks[u]``, by u, then v; with ``upper``
    only those with u < v, which list a symmetric relation once."""
    pairs = []
    for u, mask in enumerate(masks):
        if upper:
            mask = mask >> u << u  # bit u itself is clear: no loops
        while mask:
            low = mask & -mask
            pairs.append((u, low.bit_length() - 1))
            mask ^= low
    return pairs


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
    try:
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
        del tokens  # one string per token: drop them before the masks are built
        if not all(map(lt, tails[:e], heads[:e])):  # mixed_graph would turn an edge line "e v u" round
            return None
        g = mixed_graph(n, zip(tails[:e], heads[:e]), zip(tails[e:], heads[e:]))
        # mixed_graph keeps a repeated relation once, so the masks hold fewer bits
        if sum(map(int.bit_count, g.nbr_masks)) == 2 * e and sum(map(int.bit_count, g.succ_masks)) == a:
            return g
    except (ValueError, MixedColorError):  # from int() or mixed_graph
        pass
    return None  # the line reader words the error


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
    expected_edges = expected_arcs = edges = arcs = 0
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
            pred, succ, nbr = [0] * (n + 1), [0] * (n + 1), [0] * (n + 1)
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
            if parts[0] == "e":
                if u >= v:
                    raise ParseError(f"line {lineno}: edge must satisfy u < v")
                if (nbr[u] | succ[u] | pred[u]) >> v & 1:
                    raise DuplicateRelation(f"line {lineno}: pair {{{u},{v}}} already related")
                nbr[u] |= 1 << v
                nbr[v] |= 1 << u
                edges += 1
            else:
                if (nbr[u] | succ[u]) >> v & 1:
                    raise DuplicateRelation(f"line {lineno}: pair {{{u},{v}}} already related")
                # an opposite arc is a directed 2-cycle; graph construction reports it
                succ[u] |= 1 << v
                pred[v] |= 1 << u
                arcs += 1
        else:
            raise ParseError(f"line {lineno}: unknown line kind {parts[0]!r}")
    if n < 0:
        raise ParseError("missing header line")
    if edges != expected_edges or arcs != expected_arcs:
        raise ParseError(
            f"header announced {expected_edges} edges / {expected_arcs} arcs, "
            f"found {edges} / {arcs}"
        )
    return MixedGraph(n, tuple(pred), tuple(succ), tuple(nbr))


def save_graph(g: MixedGraph, stream: TextIO) -> None:
    edges, arcs = _pairs(g.nbr_masks, upper=True), _pairs(g.succ_masks)
    stream.write(f"p mixed {g.n} {len(edges)} {len(arcs)}\n")
    stream.write("".join([f"e {u} {v}\n" for u, v in edges] + [f"a {u} {v}\n" for u, v in arcs]))


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
    desc, anc = g.desc_masks, g.anc_masks
    return MixedGraph(g.n, anc, desc, tuple([e & ~(d | a) for e, d, a in zip(g.nbr_masks, desc, anc)]))


def layering(g: MixedGraph) -> Layering:
    """Partition by inrank; the graph index part ``g.layering``."""
    return g.layering


def maxrank(g: MixedGraph) -> int:
    """Length of the longest directed path (0 for arc-free graphs)."""
    return max(layering(g).inrank.values(), default=0)


def underlying_undirected(g: MixedGraph) -> MixedGraph:
    """Replace every arc with an edge."""
    empty = (0,) * (g.n + 1)
    return MixedGraph(g.n, empty, empty, g.adjacent_masks)


def corresponding_digraph(g: MixedGraph) -> frozenset[Arc]:
    """Arc set of the digraph with each edge replaced by two opposite arcs."""
    return frozenset(_pairs([s | e for s, e in zip(g.succ_masks, g.nbr_masks)]))
