"""Chromatic-number bounds: properness checking, lower bounds (among them the
propagation of the color windows), the constructive upper-bound colorings
(critical-path schedule coloring, per-layer coloring and the vertex-cover coloring
with odd/even color slots), the forward-checking search on the propagated windows,
which refutes k or colors with k, and the bracket that the ascent and the ``bounds``
command share. That search is the bounds' one color search. Run one weakly connected
component at a time, ascending from a lower bound under one budget, it is
``chi_u_exact`` on the underlying graph, ``layering_coloring`` on each layer, and the
end of the bracket on the graph itself; where a component has no arc its colors are
interchangeable and the search breaks their symmetry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import DEFAULT_NODE_BUDGET, BudgetExceeded, InvalidCover
from .graphs import (
    Coloring,
    MixedGraph,
    coloring_total_on,
    layering,
    maxrank,
    mixed_graph,
    set_bits,
    underlying_undirected,
)
from .partitions import clique_number, max_clique

Violation = tuple[str, int, int]  # ("edge"|"arc", u, v)

EXACT_LAYER_CAP = 20

# the bracket runs the window cliques before its n-node search round only on a gap of at
# least this many colours, where the search alone may spend its n nodes refuting one k
# after another; a narrower gap the search closes for less than the cliques cost, and
# the cliques wait until the round gives up
CLIQUE_GAP = 3


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

    ``_component_search`` searches the underlying graph up from the clique number or
    ``start``, whichever is larger; both searches get ``budget``, and past it the search
    raises ``BudgetExceeded``.
    """
    start = max(start, clique_number(g, budget=budget))
    k, colors, _ = _component_search(underlying_undirected(g), (1 << (g.n + 1)) - 2, start, budget)
    if colors is None:
        raise BudgetExceeded(f"chi_u search exceeded {budget} nodes")
    return k, colors


def _component_search(g: MixedGraph, vertices: int, k: int, budget: int) -> tuple[int, dict[int, int] | None, int]:
    """Smallest k' >= k, a coloring with colors 1..k' of what g induces on the vertex mask
    ``vertices``, and the nodes left of ``budget``; ``k`` is a lower bound on that graph's
    chromatic number.

    Its weakly connected components on ``g.adjacent_masks`` go largest first (of equal size,
    the one reached first from the highest degree, then the smallest id), each decided from
    the running k' by ``window_search`` on the component alone, with its edges and arcs,
    renumbered 1..m in id order so that the search breaks its ties as it would on g; one
    component at a time, a refutation in one never retries another. A lone vertex keeps color
    1 without a search. Every fix counts against ``budget``; past it the k' reached, still a
    lower bound, with no coloring and -1 left. At k' = |vertices| on a graph with no arc the
    first descent never backtracks: it is the greedy DSATUR coloring.
    """
    inner = [a & vertices for a in g.adjacent_masks]
    comps, rest = [], vertices
    for s in sorted(set_bits(vertices), key=lambda v: inner[v].bit_count(), reverse=True):  # stable: ties by id
        if rest >> s & 1 and inner[s]:
            comp = frontier = 1 << s
            while frontier:
                for v in set_bits(frontier):  # the walk reads the frontier it started from
                    frontier |= inner[v]
                frontier &= ~comp
                comp |= frontier
            rest ^= comp
            comps.append(comp)
    colors, left = dict.fromkeys(set_bits(vertices), 1), budget
    for comp in sorted(comps, key=int.bit_count, reverse=True):  # stable
        members = list(set_bits(comp))
        index = {v: i for i, v in enumerate(members, 1)}
        edges = [(index[v], index[w]) for v in members for w in set_bits(g.nbr_masks[v] & comp) if v < w]
        arcs = [(index[v], index[w]) for v in members for w in set_bits(g.succ_masks[v] & comp)]
        part = mixed_graph(len(members), edges, arcs)
        while True:
            found, left = window_search(part, k, left)
            if found is not None:
                break
            if left < 0:
                return k, None, left
            k += 1
        colors.update((v, found.colors[i]) for v, i in index.items())
    return k, colors, left


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
    omega = clique_number(g, budget)  # first, so a clique search past budget raises without a rerun
    try:
        chi_u, exact = chi_u_exact(g, budget)[0], True
    except BudgetExceeded:
        chi_u, exact = omega, False
    return LowerBounds(chi_u, rank, max(chi_u, rank + 1), exact)


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


def _propagate(g: MixedGraph, domain: list[int], queue: list[int], trail: list | None = None) -> bool:
    """Forward checking from the changed vertices in ``queue`` (Haralick & Elliott, 1980):
    True when a domain empties. Edits ``domain`` in place, extends ``queue``, and appends
    each changed vertex with its old domain to ``trail``, if given.

    A vertex's out-neighbours lose every colour up to its smallest, its in-neighbours every
    colour from its largest up, and a vertex left with one colour removes it from its edge
    neighbours. The rules only remove colours, so the fixpoint does not depend on the queue
    order.
    """
    preds, succs, nbrs = g.pred_masks, g.succ_masks, g.nbr_masks
    queued = 0
    for v in queue:
        queued |= 1 << v
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
                    if trail is not None:
                        trail.append((w, old))
                    domain[w] = old & keep
                    if not queued & low:
                        queued |= low
                        queue.append(w)
    return False


def _propagated(g: MixedGraph, k: int) -> list[int] | None:
    """Each vertex's domain, a bit mask of the colours in its window ``1 + floor[v] .. k -
    ceiling[v]``, propagated to its fixpoint; None when a domain empties.

    floor rises and ceiling falls along every arc, so the windows already keep the arc
    rules of ``_propagate``: only a vertex with one colour needs to start it.
    """
    floor, ceiling = g.floor, g.ceiling
    domain = [0] * (g.n + 1)
    fixed = []
    for v in g.vertices:
        low, high = 1 + floor[v], k - ceiling[v]
        if low > high:
            return None
        domain[v] = (2 << high) - (1 << low)
        if low == high:
            fixed.append(v)
    return None if _propagate(g, domain, fixed) else domain


def windows_refute(g: MixedGraph, k: int) -> bool:
    """True when forward checking on the colour windows proves that g has no k-colouring;
    polynomial, and needs no budget.

    An empty domain in ``_propagated`` refutes k. A larger k only widens the domains.
    """
    return _propagated(g, k) is None


def window_search(g: MixedGraph, k: int, nodes: int, domain: list[int] | None = None) -> tuple[Coloring | None, int]:
    """A proper colouring with colours 1..k, or None, and the nodes left of ``nodes``.

    DSATUR (Brélaz, 1979) with forward checking on the propagated windows: the open vertex
    with the fewest colours left (then the most ``adjacent_masks`` neighbours, then the
    lowest id) tries its colours ascending, each fixed colour propagated again. Each fix is a
    node; the first descent makes at most n of them and never backtracks while no domain
    empties. None with nodes left refutes k: every branch emptied a domain; None with -1 left
    means the search gave up past ``nodes``. One domain list is kept, and a backtrack undoes a
    trail of (vertex, old domain) pairs, so memory stays linear in n plus the removals on the
    path. At the fixpoint every arc ascends and no edge joins two equal colours, so the fixed
    colours are proper. ``domain``, if given, is ``_propagated(g, k)``, which the search
    then edits in place instead of propagating k again.

    Where g has no arc, every window is 1..k and the colours are interchangeable, and a fix
    tries only colours up to one above the largest that a fix before it on the path took.
    That loses no colouring: propagation then removes only colours that are already fixed, so
    while k is at least two above that largest colour, every vertex still open keeps the
    colours above it, none is fixed by propagation alone, and swapping two of those colours
    maps the colourings below one fix to those below the other; at k one above it the cap
    allows every colour anyway. With arcs the windows and the arcs order the colours, and the
    rule is off.
    """
    if domain is None:
        domain = _propagated(g, k)
    if domain is None:
        return None, nodes
    degree = [mask.bit_count() for mask in g.adjacent_masks]
    # by degree descending, then id (reverse=True keeps the id order of ties), so the
    # first vertex with the fewest colours is the one to fix
    ranked = sorted([v for v in g.vertices if domain[v] & (domain[v] - 1)], key=degree.__getitem__, reverse=True)
    # the colours a fix may take: bit c + 1 joins when a fix takes c, or every colour
    cap = -1 if any(g.succ_masks) else 2
    trail: list[tuple[int, int]] = []
    frames: list[list[int]] = []  # [vertex, colours not yet tried, trail length before it, cap before it]
    while True:
        v, fewest = 0, k + 1
        for u in ranked:
            size = domain[u].bit_count()
            if 1 < size < fewest:
                v, fewest = u, size
                if size == 2:
                    break  # no open vertex has fewer
        if not v:
            break  # every vertex is fixed
        frames.append([v, domain[v] & cap, len(trail), cap])
        while frames:
            frame = frames[-1]
            v, left, mark, cap = frame
            while len(trail) > mark:
                w, old = trail.pop()
                domain[w] = old
            if not left:
                frames.pop()
                continue
            nodes -= 1
            if nodes < 0:
                return None, nodes
            colour = left & -left  # the lowest colour is tried now
            frame[1] = left ^ colour
            trail.append((v, domain[v]))
            domain[v] = colour
            if not _propagate(g, domain, [v], trail):
                cap |= colour << 1
                break
        else:
            return None, nodes
    return Coloring({v: domain[v].bit_length() - 1 for v in g.vertices}), nodes


def layering_coloring(g: MixedGraph) -> Coloring:
    """Proper coloring from the layering: each layer gets a fresh color block.

    Arcs always leave a layer, so each layer is colored on ``g.adjacent_masks``
    restricted to its vertex mask. Layers of at most ``EXACT_LAYER_CAP``
    vertices are colored optimally, larger ones greedily by the first descent
    of the same search, ``_component_search``; either way the result is proper.
    A search past ``DEFAULT_NODE_BUDGET`` raises ``BudgetExceeded``.
    """
    assignment: dict[int, int] = {}
    offset = 0
    for layer in layering(g).layers:
        mask = sum(1 << v for v in layer)
        start = max_clique(g.adjacent_masks, mask) if len(layer) <= EXACT_LAYER_CAP else len(layer)
        _, local, _ = _component_search(g, mask, start, DEFAULT_NODE_BUDGET)
        if local is None:
            raise BudgetExceeded(f"layer search exceeded {DEFAULT_NODE_BUDGET} nodes")
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

    ``g.ceiling`` falls along every arc, so every in-neighbor comes first in that
    order over all vertices and one sort gives the list schedule.

    ``reverse`` schedules the graph with every arc turned round (from the sinks,
    by the largest ``g.floor``, which rises along every arc) and then turns the
    colors round, c -> max + 1 - c, which makes every arc ascend again."""
    succs, ceiling = (g.pred_masks, g.floor) if reverse else (g.succ_masks, g.ceiling)
    n, nbrs = g.n, g.nbr_masks
    key = [c * (n + 1) + e.bit_count() for c, e in zip(ceiling, nbrs)]
    classes = [0] * (n + 2)  # bit v of classes[c]: v has color c; the colors stay within 1..n
    lowest = [1] * (n + 1)
    colors: dict[int, int] = {}
    for v in sorted(g.vertices, key=key.__getitem__, reverse=True):  # stable: ties by id
        color, edge = lowest[v], nbrs[v]
        while classes[color] & edge:
            color += 1
        classes[color] |= 1 << v
        colors[v] = color
        rest = succs[v]
        while rest:
            w = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if lowest[w] <= color:
                lowest[w] = color + 1
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


def bracket(g: MixedGraph, budget: int = DEFAULT_NODE_BUDGET, stats: dict | None = None) -> tuple[int, Coloring, str]:
    """Lower bound on chi, a proper coloring as the upper witness, and the bound that set the
    lower end: ``window_propagation``, ``window_clique`` or ``window_search``.

    The steps run cheapest first, each only while the lower end is below the upper witness's
    color count, and each names the lower end only if it raises it: the schedule coloring; the
    color windows alone and ``windows_refute`` past every k it refutes, both named
    ``window_propagation`` (an empty window is an empty domain, so the propagation refutes every
    k below the windows alone); the reversed schedule as the upper witness if it uses fewer
    colors; then one round of ``window_search`` from the lower end, n nodes, its first k not
    propagated again: a coloring closes the bracket and a refutation raises the lower end by
    one. ``window_clique_bound`` runs once, before the round on a gap of at least ``CLIQUE_GAP``
    colors, else after it where it gives up. Only if the gap is still open, ``_component_search``
    ascends from the lower end under ``budget``, one weakly connected component of g at a time:
    its coloring becomes the upper witness, and a refutation raises the lower end, named
    ``window_search``; past the budget the k it reached stays the lower end and the ascent goes
    on from there. ``stats``, if given, gets as ``search_nodes`` every node the bracket spent:
    the round's, at most n, and the component search's, at most ``budget``.
    """
    upper = schedule_coloring(g)
    count = upper.num_colors()
    lower, source = window_clique_bound(g, 0), "window_propagation"  # stop 0: the windows alone
    domain = None  # _propagated(g, lower) where the loop stops below count, for the search
    while lower < count and (domain := _propagated(g, lower)) is None:
        lower += 1  # a refuted k refutes every smaller one
    if lower < count:
        upper = min(upper, schedule_coloring(g, reverse=True), key=Coloring.num_colors)  # a tie keeps the forward one
        count = upper.num_colors()
    nodes, wide = g.n, count - lower >= CLIQUE_GAP  # n: the first descent's own bound
    if wide and (found := window_clique_bound(g, count)) > lower:
        lower, source, domain = found, "window_clique", None
    while lower < count and nodes >= 0:
        searched, nodes = window_search(g, lower, nodes, domain)
        domain = None
        if searched is not None:
            upper, count = searched, lower
        elif nodes >= 0:
            lower, source = lower + 1, "window_search"
    spent = g.n - max(nodes, 0)
    if lower < count and not wide and (found := window_clique_bound(g, count)) > lower:
        lower, source = found, "window_clique"
    if lower < count:
        found, colors, left = _component_search(g, (1 << (g.n + 1)) - 2, lower, budget)
        spent += budget - max(left, 0)
        if colors is not None:
            upper = Coloring(colors)
        if found > lower:
            lower, source = found, "window_search"
    if stats is not None:
        stats["search_nodes"] = spent
    return lower, upper, source


@dataclass(frozen=True)
class ChromaticBounds:
    lower: int
    upper: int
    # "maxrank", else the bracket's: "window_search", "window_clique", or
    # "window_propagation" for the windows alone and their propagation
    lower_witness: str
    upper_witness: Coloring  # the bracket's: a schedule coloring or the window search's


def chromatic_bounds(g: MixedGraph) -> ChromaticBounds:
    """``bracket`` with the default budget, and the bound that set its lower end."""
    lower, upper, source = bracket(g)
    return ChromaticBounds(lower, upper.num_colors(), "maxrank" if lower == maxrank(g) + 1 else source, upper)
