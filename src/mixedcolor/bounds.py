"""Chromatic-number bounds: properness checking, lower bounds, and the three
constructive upper-bound colorings (critical-path schedule coloring,
per-layer coloring and the vertex-cover coloring with odd/even color slots).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

from .errors import DEFAULT_NODE_BUDGET, BudgetExceeded, InvalidCover
from .graphs import (
    Coloring,
    MixedGraph,
    arc_order,
    coloring_total_on,
    layering,
    maxrank,
    set_bits,
)
from .partitions import clique_number, max_clique

Violation = tuple[str, int, int]  # ("edge"|"arc", u, v)

EXACT_LAYER_CAP = 20


def check_proper(g: MixedGraph, c: Coloring) -> tuple[bool, Optional[Violation]]:
    """True iff c respects every edge (distinct) and arc (increasing).

    On failure, returns the lexicographically smallest violating relation.
    """
    coloring_total_on(c, g)
    violations: list[Violation] = []
    for u, v in g.edges:
        if c.colors[u] == c.colors[v]:
            violations.append(("edge", u, v))
    for u, v in g.arcs:
        if not c.colors[u] < c.colors[v]:
            violations.append(("arc", u, v))
    if not violations:
        return True, None
    return False, min(violations, key=lambda t: (t[1], t[2], t[0]))


def chi_u_exact(g: MixedGraph, budget: int = DEFAULT_NODE_BUDGET) -> tuple[int, dict[int, int]]:
    """Exact chromatic number of the underlying undirected graph, with witness.

    ``_dsatur`` searches up from the clique number; both searches get ``budget``.
    """
    if not (g.edges or g.arcs):
        return min(g.n, 1), dict.fromkeys(g.vertices, 1)
    return _dsatur(g.adjacent_masks, (1 << (g.n + 1)) - 2, clique_number(g, budget=budget), budget)


def _dsatur(adj: tuple[int, ...], vertices: int, k: int, budget: int) -> tuple[int, dict[int, int]]:
    """Smallest k' >= k, with a coloring, for every component of the graph
    that the adjacency masks ``adj`` induce on the vertex mask ``vertices``.

    Components go largest first, each decided from the running k'. The
    search is DSATUR backtracking over an explicit stack: the next vertex
    has the most distinct neighbor colors, then the highest degree within
    ``vertices``, then the smallest id, and tries its free colors ascending,
    at most one above those in use; neighbor color counts are undone on
    backtrack. Every node entered counts against ``budget``. At k =
    |vertices| the first descent never backtracks: it is the greedy DSATUR
    coloring.
    """
    members = list(set_bits(vertices))  # searched by position: positions ascend with ids
    position = {v: i for i, v in enumerate(members)}
    nbrs = [[position[w] for w in set_bits(adj[v] & vertices)] for v in members]
    colors = [0] * len(members)  # 0 while uncolored
    sat = [0] * len(members)  # distinct colors among the neighbors
    by_degree = sorted(range(len(members)), key=lambda i: len(nbrs[i]), reverse=True)  # stable
    # colors stay within max degree + 1: from that k on, the first descent succeeds
    width = max(map(len, nbrs), default=0) + 2
    counts = [[0] * width for _ in members]
    nodes = 0
    for ranked in _components(nbrs, by_degree):
        frames: list[tuple[int, int]] = []  # (vertex, colors in use before it)
        used = 0
        while True:
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(f"chi_u search exceeded {budget} nodes")
            if len(frames) == len(ranked):
                break
            v, top = 0, -1
            for u in ranked:
                if not colors[u] and sat[u] > top:
                    v, top = u, sat[u]
            frames.append((v, used))
            while frames:
                v, before = frames[-1]
                color = colors[v]
                if color:
                    for w in nbrs[v]:
                        row = counts[w]
                        row[color] -= 1
                        if not row[color]:
                            sat[w] -= 1
                row = counts[v]
                last = before + 1 if before < k else k
                color += 1
                while color <= last and row[color]:
                    color += 1
                if color <= last:
                    colors[v] = color
                    for w in nbrs[v]:
                        row = counts[w]
                        if not row[color]:
                            sat[w] += 1
                        row[color] += 1
                    used = color if color > before else before
                    break
                colors[v] = 0
                frames.pop()
            else:
                k += 1  # every count is back to zero: retry with one more color
                used = 0
    return k, dict(zip(members, colors))


def _components(nbrs: list[list[int]], ranked: list[int]) -> list[list[int]]:
    """Connected components, largest first, each listed in ``ranked`` order."""
    label = [0] * len(nbrs)
    count = 0
    for s in ranked:
        if not label[s]:
            label[s] = count = count + 1
            reached = [s]
            for v in reached:
                for w in nbrs[v]:
                    if not label[w]:
                        label[w] = count
                        reached.append(w)
    comps: list[list[int]] = [[] for _ in range(count)]
    for v in ranked:
        comps[label[v] - 1].append(v)
    return sorted(comps, key=len, reverse=True)


@dataclass(frozen=True)
class LowerBounds:
    chi_u: int
    maxrank: int
    combined: int
    chi_u_exact: bool  # False when the budget forced a clique-number fallback


def lower_bounds(g: MixedGraph, budget: int = DEFAULT_NODE_BUDGET) -> LowerBounds:
    """Chromatic lower bounds: underlying chromatic number and maxrank.

    The combined bound is max(chi_u, maxrank + 1) for nonempty graphs: the
    final vertex of a longest directed path needs a color above all its
    predecessors on the path.
    """
    rank = maxrank(g)
    if g.n == 0:
        return LowerBounds(0, 0, 0, True)
    try:
        chi_u, _ = chi_u_exact(g, budget=budget)
        exact = True
    except BudgetExceeded:
        chi_u = clique_number(g, budget)
        exact = False
    return LowerBounds(chi_u, rank, max(chi_u, rank + 1), exact)


def window_clique_bound(g: MixedGraph, stop: int) -> int:
    """Chromatic lower bound from the colour windows of underlying cliques; needs no budget.

    Every proper colouring gives v a colour in ``1 + floor[v] .. k - ceiling[v]``.
    The members of a clique Q get distinct colours, and those with
    ``floor >= a`` and ``ceiling >= b`` all lie in ``1 + a .. k - b``, so k is at
    least a + b + their number: Hall's condition for unit jobs with release
    times and deadlines (Jackson, 1955; Horn, 1974), exact for Q's windows.
    From each vertex, in id order, Q grows greedily among its neighbours on
    ``g.adjacent_masks``, taken by ``floor + ceiling`` descending, then id.
    Starts at the windows alone (the largest ``floor[v] + ceiling[v] + 1``) and
    returns as soon as the bound reaches ``stop``.
    """
    floor, ceiling, adjacent = g.floor, g.ceiling, g.adjacent_masks
    key = [f + c for f, c in zip(floor, ceiling)]
    best = 1 + max(key[1:], default=-1)  # the windows alone; entry 0 is no vertex
    seen = set()  # cliques grown from several vertices are scored once
    for v in g.vertices:
        if best >= stop:
            break
        clique, members = 1 << v, [v]
        # by floor + ceiling descending, then id: reverse=True keeps the id order of ties
        for u in sorted(set_bits(adjacent[v]), key=key.__getitem__, reverse=True):
            if clique & ~adjacent[u] == 0:
                clique |= 1 << u
                members.append(u)
        if clique in seen:
            continue
        seen.add(clique)
        # by ceiling descending: the c-th member u with floor >= a makes c of
        # them with colours in 1 + a .. k - ceiling[u]
        members.sort(key=ceiling.__getitem__, reverse=True)
        for a in {floor[u] for u in members}:
            c = 0
            for u in members:
                if floor[u] >= a:
                    c += 1
                    if a + ceiling[u] + c > best:
                        best = a + ceiling[u] + c
    return best


def layering_coloring(g: MixedGraph) -> Coloring:
    """Proper coloring from the layering: each layer gets a fresh color block.

    Arcs always leave a layer, so each layer is colored on ``g.adjacent_masks``
    restricted to its vertex mask. Layers of at most ``EXACT_LAYER_CAP``
    vertices are colored optimally, larger ones greedily by the first descent
    of the same DSATUR search; either way the result is proper.
    """
    assignment: dict[int, int] = {}
    offset = 0
    for layer in layering(g).layers:
        mask = sum(1 << v for v in layer)
        start = max_clique(g.adjacent_masks, mask) if len(layer) <= EXACT_LAYER_CAP else len(layer)
        _, local = _dsatur(g.adjacent_masks, mask, start, DEFAULT_NODE_BUDGET)
        for v, color in local.items():
            assignment[v] = offset + color
        offset += max(local.values(), default=0)
    return Coloring(assignment)


def schedule_coloring(g: MixedGraph) -> Coloring:
    """Proper coloring by critical-path list scheduling (Hu, 1961); needs no budget.

    Of the vertices whose in-neighbors are all colored it takes the largest
    ``g.ceiling``, then the most edge neighbors, then the smallest id, and gives
    it the lowest color its mask leaves free: coloring v with c sets bit c in its
    edge neighbors' masks and bits 0..c in its out-neighbors'. A color skipped is
    an edge neighbor's or at most an in-neighbor's, so the colors used are 1..max."""
    waiting = [len(preds) for preds in g.preds]
    taken = [1] * (g.n + 1)  # bit c: color c is ruled out; color 0 always is
    ready = sorted((-g.ceiling[v], -len(g.nbrs[v]), v) for v in g.vertices if not waiting[v])  # sorted, so a heap
    colors: dict[int, int] = {}
    while ready:
        v = heapq.heappop(ready)[2]
        colors[v] = color = (taken[v] ^ (taken[v] + 1)).bit_length() - 1  # lowest zero bit
        for u in g.nbrs[v]:
            taken[u] |= 1 << color
        for w in g.succs[v]:
            taken[w] |= (2 << color) - 1
            waiting[w] -= 1
            if not waiting[w]:
                heapq.heappush(ready, (-g.ceiling[w], -len(g.nbrs[w]), w))
    return Coloring(colors)


def vc_coloring(g: MixedGraph, cover: frozenset[int] | set[int]) -> Coloring:
    """Proper coloring with at most 2|cover| + 1 colors from a vertex cover.

    Cover vertices take even colors 2, 4, ... in topological order of the
    transitive closure restricted to the cover; every other vertex v takes
    one more than the largest color among its in-neighbors (odd, and wedged
    strictly between its in- and out-neighbors).
    """
    uncovered = min(((u, v) for u, v in (*g.edges, *g.arcs) if u not in cover and v not in cover), default=None)
    if uncovered:
        raise InvalidCover(f"pair {{{uncovered[0]},{uncovered[1]}}} has no endpoint in the cover")
    cover = frozenset(cover)
    cover_sorted = sorted(cover)
    closure_arcs = [
        (u, v)
        for u in cover_sorted
        for v in cover_sorted
        if u != v and (g.desc_masks[u] >> v) & 1
    ]
    colors: dict[int, int] = {}
    cover_order = [v for v in arc_order(g.n, closure_arcs) if v in cover]
    for idx, v in enumerate(cover_order, start=1):
        colors[v] = 2 * idx
    for v in g.vertices:
        if v in cover:
            continue
        preds = [colors[u] for u in g.preds[v]]
        colors[v] = (max(preds) if preds else 0) + 1
    return Coloring(colors)


def bracket(g: MixedGraph, budget: int | None = DEFAULT_NODE_BUDGET) -> tuple[int, Coloring, int]:
    """Lower bound on chi, the schedule coloring as the upper witness, and the chi_u bound.

    The lower bound is ``window_clique_bound`` stopped at the schedule's color count; on a
    gap it rises to the combined bound of ``lower_bounds``, whose search ``budget`` bounds.
    ``budget=None`` keeps the color windows alone. The chi_u bound is 0 unless its search ran.
    """
    upper = schedule_coloring(g)
    count = upper.num_colors()
    lower, chi_u = window_clique_bound(g, 0 if budget is None else count), 0
    if lower < count and budget is not None:
        lb = lower_bounds(g, budget)
        lower, chi_u = max(lower, lb.combined), lb.chi_u
    return lower, upper, chi_u


@dataclass(frozen=True)
class ChromaticBounds:
    lower: int
    upper: int
    lower_witness: str  # "maxrank", else "undirected_clique" (chi_u), else "window_clique"
    upper_witness: Coloring  # the schedule coloring


def chromatic_bounds(g: MixedGraph) -> ChromaticBounds:
    """``bracket`` with the default budget, and the bound that set its lower end."""
    lower, upper, chi_u = bracket(g)
    source = "maxrank" if lower == maxrank(g) + 1 else "undirected_clique" if lower == chi_u else "window_clique"
    return ChromaticBounds(lower, upper.num_colors(), source, upper)
