"""Structural parameters: neighborhood partitions, vertex cover, clique number.

The mixed type relation groups vertices with identical in-, out-, and
undirected neighborhoods (up to each other); the undirected variant works on
the underlying undirected graph. Vertex cover and clique number are exact,
budgeted branch-and-bound computations on the underlying graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DEFAULT_NODE_BUDGET, BudgetExceeded
from .graphs import MixedGraph, set_bits


@dataclass(frozen=True)
class NeighborhoodPartition:
    """Equivalence classes of the (mixed or undirected) type relation."""

    classes: tuple[frozenset[int], ...]
    class_kinds: tuple[str, ...]  # per class: "clique" | "independent"

    def __len__(self) -> int:
        return len(self.classes)


def _partition_by_signature(g: MixedGraph, signatures: list) -> NeighborhoodPartition:
    """Classes of the type relation, found by hashing neighborhood signatures.

    ``signatures[v]`` ends with the mask of v's neighbors whose relation two
    vertices of one type share only up to each other. Non-adjacent vertices
    of a type have equal signatures; adjacent ones agree once each adds its
    own bit to that mask. A vertex with a non-adjacent partner has no adjacent
    one, so only the vertices left alone by the first grouping are grouped a
    second time, on these closed signatures.
    """
    groups: dict[tuple, list[int]] = {}
    for v in g.vertices:
        groups.setdefault(signatures[v], []).append(v)
    classes = [members for members in groups.values() if len(members) > 1]
    closed: dict[tuple, list[int]] = {}
    for members in groups.values():
        if len(members) == 1:
            v = members[0]
            *fixed, mask = signatures[v]
            closed.setdefault((*fixed, mask | 1 << v), []).append(v)
    classes += closed.values()
    classes.sort(key=lambda members: members[0])
    kinds = tuple(
        "clique" if len(m) >= 2 and g.adjacent_masks[m[0]] >> m[1] & 1 else "independent" for m in classes
    )
    return NeighborhoodPartition(tuple(map(frozenset, classes)), kinds)


def mixed_neighborhood_partition(g: MixedGraph) -> NeighborhoodPartition:
    """Coarsest partition under equal in-, out-, and undirected neighborhoods.

    Built once per graph and kept on it.
    """
    memo = vars(g)
    if "mixed_partition" not in memo:
        signatures = list(zip(g.pred_masks, g.succ_masks, g.nbr_masks))
        memo["mixed_partition"] = _partition_by_signature(g, signatures)
    return memo["mixed_partition"]


def closure_neighborhood_partition(g: MixedGraph) -> NeighborhoodPartition:
    """``mixed_neighborhood_partition(transitive_closure(g))``, without building the closure.

    In the closure, v's in- and out-neighbors are its ancestors and
    descendants, and its edge neighbors are those of g that no arc path joins
    to it.
    """
    signatures = [(a, d, e & ~(a | d)) for a, d, e in zip(g.anc_masks, g.desc_masks, g.nbr_masks)]
    return _partition_by_signature(g, signatures)


def undirected_neighborhood_partition(g: MixedGraph) -> NeighborhoodPartition:
    """Type partition of the underlying undirected graph."""
    return _partition_by_signature(g, [(mask,) for mask in g.adjacent_masks])


def class_relations(g: MixedGraph, part: NeighborhoodPartition) -> list[tuple[str, int, int]]:
    """Relations between the classes of a mixed partition, by class index.

    Types see each other uniformly, so the neighbors of one representative
    per class give every relation. Entries are ``("edge", i, j)`` or
    ``("arc", tail, head)``, ordered by their smaller and then their larger
    class index.
    """
    class_of = [0] * (g.n + 1)
    members = []  # per class: its vertex mask
    for i, cls in enumerate(part.classes):
        mask = 0
        for v in cls:
            class_of[v] = i
            mask |= 1 << v
        members.append(mask)
    adjacent, nbrs, succs = g.adjacent_masks, g.nbr_masks, g.succ_masks
    later = (1 << g.n + 1) - 2  # the vertices of classes after i, once class i is out
    relations = []
    for i, cls in enumerate(part.classes):
        later ^= members[i]
        u = min(cls)
        rest = adjacent[u] & later
        # one neighbor per related class: u sees all of it, so the lowest is its
        # smallest member, and classes are ordered by their smallest members
        while rest:
            low = rest & -rest
            j = class_of[low.bit_length() - 1]
            rest &= ~members[j]
            relations.append(("edge", i, j) if nbrs[u] & low else ("arc", i, j) if succs[u] & low else ("arc", j, i))
    return relations


def ndm(g: MixedGraph) -> int:
    return len(mixed_neighborhood_partition(g))


def ndu(g: MixedGraph) -> int:
    return len(undirected_neighborhood_partition(g))


def vertex_cover_number(g: MixedGraph, budget: int = DEFAULT_NODE_BUDGET) -> tuple[int, frozenset[int]]:
    """Exact minimum vertex cover of the underlying graph, with a witness.

    Branch on a maximum-degree vertex, smallest id first (take it, or take
    its whole neighborhood), after folding in the forced neighbor of every
    degree-one vertex, smallest id first; an ascending greedy matching
    lower-bounds the remainder. A search state is (remaining vertices, chosen
    vertices, cover size) as bitmasks over ``g.adjacent_masks``, searched
    depth first from an explicit stack, one node per state. Raises
    BudgetExceeded past the node budget.
    """
    adj = g.adjacent_masks
    best_size: int | None = None
    best = 0
    nodes = 0
    stack = [((1 << (g.n + 1)) - 2, 0, 0)]
    while stack:
        rem, chosen, size = stack.pop()
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(f"vertex cover search exceeded {budget} nodes")
        if best_size is not None and size >= best_size:  # folds only add to size
            continue
        # degree within rem per remaining vertex, ids ascending
        degree = {}
        leaves = 0
        rest = rem
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            degree[u] = d = (adj[u] & rem).bit_count()
            if d == 1:
                leaves |= low
            rest ^= low
        # degree-one reduction: the neighbor is always at least as good. A fold
        # changes only the degrees of the forced vertex's neighbors.
        while leaves:
            leaf = leaves & -leaves
            forced = adj[leaf.bit_length() - 1] & rem
            chosen |= forced
            size += 1
            rem &= ~(leaf | forced)
            leaves &= rem
            del degree[leaf.bit_length() - 1], degree[forced.bit_length() - 1]
            rest = adj[forced.bit_length() - 1] & rem
            while rest:
                low = rest & -rest
                u = low.bit_length() - 1
                degree[u] -= 1
                if degree[u] == 1:
                    leaves |= low
                else:
                    leaves &= ~low
                rest ^= low
        if best_size is not None and size >= best_size:
            continue
        v, top = 0, 0
        for u, d in degree.items():  # the largest degree, smallest id first
            if d > top:
                v, top = u, d
        if not top:
            best_size, best = size, chosen
            continue
        if best_size is not None and size + _matching_bound(adj, rem) >= best_size:
            continue
        nbrs = adj[v] & rem
        stack.append((rem & ~(nbrs | 1 << v), chosen | nbrs, size + top))
        stack.append((rem & ~(1 << v), chosen | 1 << v, size + 1))
    return best_size, frozenset(set_bits(best))


def _matching_bound(adj: tuple[int, ...], rem: int) -> int:
    """Size of the greedy matching on rem: each vertex, ascending, takes its smallest free neighbor."""
    free = rem
    size = 0
    while rem:
        low = rem & -rem
        rem ^= low
        if free & low:
            nbrs = adj[low.bit_length() - 1] & free
            if nbrs:
                free &= ~(low | nbrs & -nbrs)
                size += 1
    return size


def clique_number(g: MixedGraph, budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Exact maximum clique size of the underlying graph (0 for the empty graph).

    The first search that finishes is kept on g with the nodes it used, so
    no search runs twice: a later call with at least that budget answers
    from it, and one with less raises as a fresh search would. A search that
    runs out of budget keeps nothing.
    """
    memo = vars(g)
    if "clique" not in memo:
        stats: dict = {}
        omega = max_clique(g.adjacent_masks, (1 << (g.n + 1)) - 2, budget, stats)
        memo["clique"] = omega, stats["nodes"]
    omega, nodes = memo["clique"]
    if nodes > budget:
        raise BudgetExceeded(f"clique search exceeded {budget} nodes")
    return omega


def max_clique(
    bits: tuple[int, ...], vertices: int, budget: int = DEFAULT_NODE_BUDGET, stats: dict | None = None
) -> int:
    """Exact maximum clique size of the graph ``bits`` induces on the vertex mask ``vertices``.

    Branch and bound with a greedy colouring bound (Tomita's MCQ), coloured
    on bitsets (San Segundo's BBMC): each colour class takes the lowest
    uncoloured candidate, drops its neighbours from the class mask, and
    repeats until that mask is empty. Candidates are expanded from the last
    coloured back, and a frame is dropped once its clique size plus the
    colour of its next candidate cannot beat the best. Each frame keeps the
    mask of its candidates not yet expanded, so a child's candidates are
    that mask within the expanded vertex's neighbours. Every nonempty
    candidate mask counts one node against ``budget``; ``stats["nodes"]``
    gets the count of a search that finishes.
    """
    best, nodes = (1 if vertices else 0), 0
    # depth first from a stack of frames [colour order, colours, unexpanded
    # candidates, clique size]; a nonempty cand is the next child to expand
    stack: list[list] = []
    cand, size = vertices, 0
    while cand or stack:
        if cand:
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(f"clique search exceeded {budget} nodes")
            # candidates coloured at most best - size can never be expanded
            order: list[int] = []
            colors: list[int] = []
            uncolored, color, floor = cand, 0, best - size
            while uncolored:
                color += 1
                free = uncolored
                while free:
                    low = free & -free
                    v = low.bit_length() - 1
                    uncolored ^= low
                    free &= ~(bits[v] | low)
                    if color > floor:
                        order.append(v)
                        colors.append(color)
            stack.append([order, colors, cand, size])
        frame = stack[-1]
        order, colors, rest, size = frame
        if not order or size + colors[-1] <= best:
            stack.pop()
            cand = 0
            continue
        v = order.pop()
        colors.pop()
        rest ^= 1 << v
        frame[2] = rest
        size += 1
        if size > best:
            best = size
        cand = rest & bits[v]
    if stats is not None:
        stats["nodes"] = nodes
    return best
