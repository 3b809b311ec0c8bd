"""Chromatic-number bounds: properness checking, lower bounds, and the three
constructive upper-bound colorings (critical-path schedule coloring,
per-layer coloring and the vertex-cover coloring with odd/even color slots).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import DEFAULT_NODE_BUDGET, BudgetExceeded, InvalidCover
from .graphs import (
    Coloring,
    MixedGraph,
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


def chi_u_exact(g: MixedGraph, budget: int = DEFAULT_NODE_BUDGET, start: int = 0) -> tuple[int, dict[int, int]]:
    """max(start, chromatic number of the underlying undirected graph), with witness.

    ``_dsatur`` searches up from the clique number or ``start``, whichever is
    larger; both searches get ``budget``.
    """
    if not any(g.adjacent_masks):
        return max(start, min(g.n, 1)), dict.fromkeys(g.vertices, 1)
    return _dsatur(g.adjacent_masks, (1 << (g.n + 1)) - 2, max(start, clique_number(g, budget=budget)), budget)


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
    members = []  # searched by position: positions ascend with ids
    rest = vertices
    while rest:
        low = rest & -rest
        members.append(low.bit_length() - 1)
        rest ^= low
    position = {v: i for i, v in enumerate(members)}
    nbrs = []
    for v in members:
        row, rest = [], adj[v] & vertices
        while rest:
            low = rest & -rest
            row.append(position[low.bit_length() - 1])
            rest ^= low
        nbrs.append(row)
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
    chi_u, exact = _chi_u_or_clique(g, budget)
    return LowerBounds(chi_u, rank, max(chi_u, rank + 1), exact)


def _chi_u_or_clique(g: MixedGraph, budget: int, start: int = 0) -> tuple[int, bool]:
    """``chi_u_exact``'s bound and True, or past ``budget`` the clique number and False."""
    try:
        return chi_u_exact(g, budget, start)[0], True
    except BudgetExceeded:
        return clique_number(g, budget), False


def _grow(clique: int, members: list[int], rest: int, masks: Sequence[int], key: list[int]) -> int:
    """Add to the clique mask and ``members`` the vertices of ``rest`` that ``masks`` joins to
    every member so far, taken by ``key`` descending, then id; return the grown mask."""
    candidates = []
    while rest:
        low = rest & -rest
        candidates.append(low.bit_length() - 1)
        rest ^= low
    candidates.sort(key=key.__getitem__, reverse=True)
    for u in candidates:
        if clique & ~masks[u] == 0:
            clique |= 1 << u
            members.append(u)
    return clique


def window_clique_bound(g: MixedGraph, stop: int) -> int:
    """Chromatic lower bound from the colour windows of greedy cliques; needs no budget.

    Every proper colouring gives v a colour in ``1 + floor[v] .. k - ceiling[v]``. The
    members of a clique Q get distinct colours, and those with ``floor >= a`` and
    ``ceiling >= b`` all lie in ``1 + a .. k - b``, so k is at least a + b + their number:
    Hall's condition for unit jobs with release times and deadlines (Jackson, 1955; Horn,
    1974), exact for the windows of a given Q. The cliques are greedy and may miss the best
    Q: from each vertex, Q grows among its neighbours on ``g.adjacent_masks``, taken by
    ``floor + ceiling`` descending, then id, so on ``e 3 4, a 1 3, a 2 4`` each head takes
    its tail first and the bound is 2, where {3, 4} would give 3. Vertices joined by an arc
    path need distinct colours too, since adding the transitive arcs keeps the proper
    colourings; so each such clique grows again by the same rule among the vertices
    adjacent, ancestral or descendant to all of its members before it is scored. Starts at
    the windows alone (the largest ``floor[v] + ceiling[v] + 1``) and returns as soon as the
    bound reaches ``stop``. The cliques do not depend on the order the start vertices are
    taken in, so with ``stop`` at least the full bound the result is the full bound; taking
    them by ``floor + ceiling`` descending, then id, reaches a smaller ``stop`` sooner.
    """
    floor, ceiling, adjacent = g.floor, g.ceiling, g.adjacent_masks
    key = [f + c for f, c in zip(floor, ceiling)]
    best = 1 + max(key[1:], default=-1)  # the windows alone; entry 0 is no vertex
    if best >= stop:
        return best
    near = [a | b | d for a, b, d in zip(adjacent, g.anc_masks, g.desc_masks)]  # the closure's underlying adjacency
    seen: set[int] = set()  # underlying cliques grown from several vertices are scored once
    # by floor + ceiling descending, then id: reverse=True keeps the id order of ties
    for v in sorted(g.vertices, key=key.__getitem__, reverse=True):
        if best >= stop:
            break
        members = [v]
        clique = _grow(1 << v, members, adjacent[v], adjacent, key)
        if clique in seen:
            continue
        seen.add(clique)
        common = ~clique
        for u in members:
            common &= near[u]
        # Hall's count only rises as members join, so the grown clique alone scores the
        # larger of the underlying clique's score and its own
        _grow(clique, members, common, near, key)
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


def windows_refute(g: MixedGraph, k: int) -> bool:
    """True when forward checking on the colour windows proves that g has no k-colouring;
    polynomial, and needs no budget.

    Each vertex's domain is a bit mask of the colours in its window
    ``1 + floor[v] .. k - ceiling[v]``. A queue of changed vertices drives the
    propagation (Haralick & Elliott, 1980): a vertex's out-neighbours lose every colour
    up to its smallest, its in-neighbours every colour from its largest up, and a vertex
    left with one colour removes it from its edge neighbours. An empty domain refutes k.
    The rules only remove colours, so the fixpoint does not depend on the queue order,
    and a larger k only widens the domains.
    """
    floor, ceiling = g.floor, g.ceiling
    domain = [0] * (g.n + 1)
    queue = []
    for v in g.vertices:
        low, high = 1 + floor[v], k - ceiling[v]
        if low > high:
            return True
        domain[v] = (2 << high) - (1 << low)
        if low == high:
            queue.append(v)
    # floor rises and ceiling falls along every arc, so the windows already keep the arc
    # rules: only a vertex with one colour starts the propagation
    preds, succs, nbrs = g.pred_masks, g.succ_masks, g.nbr_masks
    queued = sum(1 << v for v in queue)
    for v in queue:  # the list grows as vertices change
        queued ^= 1 << v
        d = domain[v]
        # (neighbours, the colours they keep): out-neighbours above v's smallest,
        # in-neighbours below v's largest, edge neighbours all but v's one colour
        rules = (
            (succs[v], -(d & -d) << 1),
            (preds[v], (1 << d.bit_length() - 1) - 1),
            (0 if d & (d - 1) else nbrs[v], ~d),
        )
        for rest, keep in rules:
            while rest:
                low = rest & -rest
                w = low.bit_length() - 1
                rest ^= low
                old = domain[w]
                if old & ~keep:
                    if not old & keep:
                        return True
                    domain[w] = old & keep
                    if not queued & low:
                        queued |= low
                        queue.append(w)
    return False


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


def schedule_coloring(g: MixedGraph, reverse: bool = False) -> Coloring:
    """Proper coloring by critical-path list scheduling (Hu, 1961); needs no budget.

    Of the vertices whose in-neighbors are all colored it takes the largest
    ``g.ceiling``, then the most edge neighbors, then the smallest id, and gives
    it the lowest color above its in-neighbors' that no edge neighbor has: each
    colored vertex raises its out-neighbors' lowest color, and the masks of the
    color classes show the edge neighbors' colors. A color skipped is an edge
    neighbor's or at most an in-neighbor's, so the colors used are 1..max.

    ``reverse`` schedules the graph with every arc turned round (from the sinks,
    by the largest ``g.floor``) and then turns the colors round, c -> max + 1 - c,
    which makes every arc ascend again."""
    preds, succs, ceiling = (g.succ_masks, g.pred_masks, g.floor) if reverse else (g.pred_masks, g.succ_masks, g.ceiling)
    nbrs = g.nbr_masks
    ready = [(-ceiling[v], -nbrs[v].bit_count(), v) for v in g.vertices if not preds[v]]
    heapq.heapify(ready)
    uncolored = (1 << g.n + 1) - 2
    classes = [0] * (g.n + 2)  # bit v of classes[c]: v has color c; the colors stay within 1..n
    lowest = [1] * (g.n + 1)
    colors: dict[int, int] = {}
    while ready:
        v = heapq.heappop(ready)[2]
        uncolored ^= 1 << v
        color, edge = lowest[v], nbrs[v]
        while classes[color] & edge:
            color += 1
        classes[color] |= 1 << v
        colors[v] = color
        rest = succs[v]
        while rest:  # an out-neighbor is ready once its last in-neighbor is colored
            w = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if lowest[w] <= color:
                lowest[w] = color + 1
            if not preds[w] & uncolored:
                heapq.heappush(ready, (-ceiling[w], -nbrs[w].bit_count(), w))
    if reverse:
        top = max(colors.values(), default=0) + 1
        colors = {v: top - c for v, c in colors.items()}
    return Coloring(colors)


def vc_coloring(g: MixedGraph, cover: frozenset[int] | set[int]) -> Coloring:
    """Proper coloring with at most 2|cover| + 1 colors from a vertex cover.

    Cover vertices take even colors 2, 4, ... in ``g.order``, a topological
    order of the closure restricted to the cover; every other vertex v takes
    one more than the largest color among its in-neighbors: odd, and below
    each out-neighbor's, which every in-neighbor of v reaches.
    """
    uncovered = min(((u, v) for u, v in (*g.edges, *g.arcs) if u not in cover and v not in cover), default=None)
    if uncovered:
        raise InvalidCover(f"pair {{{uncovered[0]},{uncovered[1]}}} has no endpoint in the cover")
    colors: dict[int, int] = {}
    even = 0
    for v in g.order:  # in-neighbors first
        if v in cover:
            even = colors[v] = even + 2
        else:
            colors[v] = max((colors[u] for u in set_bits(g.pred_masks[v])), default=0) + 1
    return Coloring(colors)


def bracket(g: MixedGraph, budget: int | None = DEFAULT_NODE_BUDGET) -> tuple[int, Coloring, str]:
    """Lower bound on chi, a schedule coloring as the upper witness, and the bound that set
    the lower end: ``window_propagation``, ``window_clique`` or ``undirected_clique``.

    The bounds run cheapest first, each only while the lower end is below the upper witness's
    color count, and each names the lower end only if it raises it: the color windows alone
    and ``windows_refute`` past every k it refutes, both named ``window_propagation`` (an
    empty window is an empty domain, so the propagation refutes every k below the windows
    alone); the reversed schedule as the upper witness if it uses fewer colors; then, with a
    ``budget`` only, ``window_clique_bound`` and the chi_u search from the lower end, which
    ``budget`` bounds (past the budget, the clique number).
    """
    upper = schedule_coloring(g)
    count = upper.num_colors()
    lower, source = window_clique_bound(g, 0), "window_propagation"  # stop 0: the windows alone
    while lower < count and windows_refute(g, lower):  # a refuted k refutes every smaller one
        lower += 1
    if lower < count:
        upper = min(upper, schedule_coloring(g, reverse=True), key=Coloring.num_colors)  # a tie keeps the forward one
        count = upper.num_colors()
    if lower < count and budget is not None:
        found = window_clique_bound(g, count)
        if found > lower:
            lower, source = found, "window_clique"
        found = _chi_u_or_clique(g, budget, lower)[0] if lower < count else lower
        if found > lower:
            lower, source = found, "undirected_clique"
    return lower, upper, source


@dataclass(frozen=True)
class ChromaticBounds:
    lower: int
    upper: int
    # "maxrank", else the bracket's: "undirected_clique", "window_clique", or "window_propagation"
    # for the windows alone and their propagation
    lower_witness: str
    upper_witness: Coloring  # the bracket's schedule coloring


def chromatic_bounds(g: MixedGraph) -> ChromaticBounds:
    """``bracket`` with the default budget, and the bound that set its lower end."""
    lower, upper, source = bracket(g)
    return ChromaticBounds(lower, upper.num_colors(), "maxrank" if lower == maxrank(g) + 1 else source, upper)
