"""Chromatic-number bounds: properness checking, lower bounds (among them the
propagation of the color windows and bounds shaving on it), the constructive
upper-bound colorings (critical-path schedule coloring, per-layer coloring and the
vertex-cover coloring with odd/even color slots), the forward-checking search on
the propagated windows, which refutes k or colors with k, and the bracket that the
ascent and the ``bounds`` command share.
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
    set_bits,
)
from .partitions import clique_number, max_clique

Violation = tuple[str, int, int]  # ("edge"|"arc", u, v)

EXACT_LAYER_CAP = 20

# the bracket runs the window cliques before its first search round only on a gap of at
# least this many colours, where the search alone may spend its n nodes refuting one k
# after another; a narrower gap the search closes for less than the cliques cost, and
# the cliques wait until the first round gives up
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

    Depth-first forward checking on the propagated windows: the open vertex with the fewest
    colours left (then the most ``adjacent_masks`` neighbours, then the lowest id) tries its
    colours ascending, each fixed colour propagated again. Each fix is a node; the first
    descent makes at most n of them and never backtracks while no domain empties. None with
    nodes left refutes k: every branch emptied a domain; None with -1 left means the search
    gave up past ``nodes``. One domain list is kept, and a backtrack undoes a trail of
    (vertex, old domain) pairs, so memory stays linear in n plus the removals on the path.
    At the fixpoint every arc ascends and no edge joins two equal colours, so the fixed
    colours are proper. ``domain``, if given, is ``_propagated(g, k)``, which the search
    then edits in place instead of propagating k again.
    """
    if domain is None:
        domain = _propagated(g, k)
    if domain is None:
        return None, nodes
    degree = [mask.bit_count() for mask in g.adjacent_masks]
    # by degree descending, then id (reverse=True keeps the id order of ties), so the
    # first vertex with the fewest colours is the one to fix
    ranked = sorted([v for v in g.vertices if domain[v] & (domain[v] - 1)], key=degree.__getitem__, reverse=True)
    open_ = ranked
    trail: list[tuple[int, int]] = []
    frames: list[list[int]] = []  # [vertex, colours not yet tried, trail length before it]
    while open_:
        v = min(open_, key=lambda u: domain[u].bit_count())
        frames.append([v, domain[v], len(trail)])
        while frames:
            frame = frames[-1]
            v, left, mark = frame
            while len(trail) > mark:
                w, old = trail.pop()
                domain[w] = old
            if not left:
                frames.pop()
                open_ = ranked  # a backtrack reopens vertices
                continue
            nodes -= 1
            if nodes < 0:
                return None, nodes
            frame[1] = left & (left - 1)  # the lowest colour is tried now
            trail.append((v, domain[v]))
            domain[v] = left & -left
            if not _propagate(g, domain, [v], trail):
                break
        else:
            return None, nodes
        open_ = [u for u in open_ if domain[u] & (domain[u] - 1)]
    return Coloring({v: domain[v].bit_length() - 1 for v in g.vertices}), nodes


def windows_shave(g: MixedGraph, k: int, budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """True when bounds shaving on the propagated windows proves that g has no k-colouring.

    Shaving (Martin & Shmoys, 1996) trial-fixes each vertex's smallest and largest colour on
    a copy of the domains and propagates; a trial that empties a domain removes that colour
    for good, and the removal is propagated. The passes repeat until no trial removes a
    colour; the rules only remove colours, so that fixpoint does not depend on the order.
    Each trial spends one unit of ``budget``; past it the shaving stops, and k counts as not
    refuted.
    """
    domain = _propagated(g, k)
    if domain is None:
        return True
    changed = True
    while changed:
        changed = False
        for v in g.vertices:
            for largest in (False, True):
                d = domain[v]
                if not d & (d - 1):
                    break  # one colour left: nothing to shave
                budget -= 1
                if budget < 0:
                    return False
                colour = 1 << d.bit_length() - 1 if largest else d & -d
                trial = domain.copy()
                trial[v] = colour
                if _propagate(g, trial, [v]):
                    domain[v] = d ^ colour
                    if _propagate(g, domain, [v]):
                        return True
                    changed = True
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
    lower end: ``window_propagation``, ``window_clique``, ``window_search``, ``window_shaving``
    or ``undirected_clique``.

    The steps run cheapest first, each only while the lower end is below the upper witness's
    color count, and each names the lower end only if it raises it: the schedule coloring; the
    color windows alone and ``windows_refute`` past every k it refutes, both named
    ``window_propagation`` (an empty window is an empty domain, so the propagation refutes every
    k below the windows alone); the reversed schedule as the upper witness if it uses fewer
    colors; then at most two rounds of ``window_search`` from the lower end, n nodes each, the
    first k of the first not propagated again: a coloring closes the bracket and a refutation
    raises the lower end by one. ``window_clique_bound`` runs once, before the first round on a
    gap of at least ``CLIQUE_GAP`` colors, else before the second, which runs only where the
    first gives up and something raised the lower end since the first began: from the same k it
    would make the same steps. Only if both rounds give up, ``windows_shave`` past every k it
    refutes and the chi_u search from the lower end follow. ``budget`` bounds each shaving and
    the chi_u search; past it a shaving refutes nothing more and the chi_u search gives the
    clique number. ``stats``, if given, gets the nodes of both rounds as ``search_nodes``.
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
    wide, spent = count - lower >= CLIQUE_GAP, 0
    for first in (True, False):
        if lower < count and first == wide:
            found = window_clique_bound(g, count)
            if found > lower:
                lower, source, domain = found, "window_clique", None
        if not first and lower == start:
            break  # the second round would repeat the first one's steps
        start, nodes = lower, g.n  # n: the first descent's own bound
        while lower < count and nodes >= 0:
            searched, nodes = window_search(g, lower, nodes, domain)
            domain = None
            if searched is not None:
                upper, count = searched, lower
            elif nodes >= 0:
                lower, source = lower + 1, "window_search"
        spent += g.n - max(nodes, 0)
        if nodes >= 0:
            break
    if stats is not None:
        stats["search_nodes"] = spent
    while lower < count and windows_shave(g, lower, budget):
        lower, source = lower + 1, "window_shaving"
    found = _chi_u_or_clique(g, budget, lower)[0] if lower < count else lower
    if found > lower:
        lower, source = found, "undirected_clique"
    return lower, upper, source


@dataclass(frozen=True)
class ChromaticBounds:
    lower: int
    upper: int
    # "maxrank", else the bracket's: "undirected_clique", "window_shaving", "window_search",
    # "window_clique", or "window_propagation" for the windows alone and their propagation
    lower_witness: str
    upper_witness: Coloring  # the bracket's: a schedule coloring or the search's coloring


def chromatic_bounds(g: MixedGraph) -> ChromaticBounds:
    """``bracket`` with the default budget, and the bound that set its lower end."""
    lower, upper, source = bracket(g)
    return ChromaticBounds(lower, upper.num_colors(), "maxrank" if lower == maxrank(g) + 1 else source, upper)
