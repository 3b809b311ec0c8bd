"""Exact k-colorability deciders and chromatic-number computation.

Four routes, cross-validated against each other in the test suite:

* ``brute_force_chi`` — backtracking oracle over topological vertex order.
* ``tw_dp_decide`` — dynamic programming over a nice tree decomposition.
* ``ndm_fpt_decide`` — enumeration of proper type-endpoint preorders over the
  mixed neighborhood partition, one bounded-integer feasibility program each.
* ``branching_decide`` — recursion over maximal independent sets among the
  vertices without incoming arcs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .bounds import layering_coloring, lower_bounds
from .errors import BudgetExceeded, CapExceeded
from .feasibility import (
    EQ,
    LE,
    Constraint,
    FeasibilityProgram,
    solve_feasibility,
)
from .graphs import Coloring, MixedGraph, normalize_edge, topological_order
from .partitions import mixed_neighborhood_partition
from .treedecomp import (
    NiceNode,
    TreeDecomposition,
    make_nice,
    min_fill_decomposition,
    validate_decomposition,
)

DEFAULT_NODE_BUDGET = 50_000_000
DEFAULT_PREORDER_BUDGET = 5_000_000
DEFAULT_BRUTE_CAP = 10


@dataclass
class SolveResult:
    decision: bool
    witness: Optional[Coloring]
    stats: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# brute force oracle
# ---------------------------------------------------------------------------

def brute_force_decide(g: MixedGraph, k: int) -> Optional[Coloring]:
    """Backtracking k-colorability check; returns a witness or None.

    Vertices are processed in topological order and each vertex tries its
    feasible colors in increasing order, so the first witness found is
    canonical.
    """
    if g.n == 0:
        return Coloring({})
    if k < 1:
        return None
    order = topological_order(g)
    edge_nbrs: dict[int, list[int]] = {v: [] for v in g.vertices}
    for u, v in g.edges:
        edge_nbrs[u].append(v)
        edge_nbrs[v].append(u)
    in_nbrs: dict[int, list[int]] = {v: [] for v in g.vertices}
    for u, v in g.arcs:
        in_nbrs[v].append(u)
    colors: dict[int, int] = {}

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        start = 1
        for u in in_nbrs[v]:
            start = max(start, colors[u] + 1)  # in-neighbors precede v
        forbidden = {colors[u] for u in edge_nbrs[v] if u in colors}
        for color in range(start, k + 1):
            if color in forbidden:
                continue
            colors[v] = color
            if extend(i + 1):
                return True
            del colors[v]
        return False

    if extend(0):
        return Coloring(dict(colors))
    return None


def brute_force_chi(g: MixedGraph, cap: int = DEFAULT_BRUTE_CAP) -> tuple[int, Coloring]:
    """Exact chromatic number by upward search from the combined lower bound."""
    if g.n > cap:
        raise CapExceeded(f"brute force limited to {cap} vertices, got {g.n}")
    if g.n == 0:
        return 0, Coloring({})
    k = lower_bounds(g).combined
    while True:
        witness = brute_force_decide(g, k)
        if witness is not None:
            return k, witness
        k += 1


# ---------------------------------------------------------------------------
# treewidth dynamic programming
# ---------------------------------------------------------------------------

def tw_dp_decide(
    g: MixedGraph, td: TreeDecomposition, k: int, validate: bool = True
) -> SolveResult:
    """Decide k-colorability with the nice-decomposition table DP.

    Introduce steps check each new vertex against its bag co-members for both
    edge inequality and arc order; join steps intersect tables on equal bags.
    """
    started = time.perf_counter()
    if validate:
        validate_decomposition(td, g)
    if g.n == 0:
        return SolveResult(True, Coloring({}), {"nodes": 0, "max_table": 1})
    if k < 1:
        return SolveResult(False, None, {"nodes": 0, "max_table": 0})
    root = make_nice(td)

    # post-order linearization
    post: list[NiceNode] = []
    stack: list[tuple[NiceNode, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            post.append(node)
        else:
            stack.append((node, True))
            for child in node.children:
                stack.append((child, False))

    edge_set = g.edges
    arc_set = g.arcs
    tables: dict[int, object] = {}
    entries = 0
    max_table = 0

    results: list[tuple[NiceNode, object]] = []
    for node in post:
        if node.kind == "leaf":
            table: object = {(): None}
        elif node.kind == "introduce":
            child, child_table = results.pop()
            v = node.vertex
            vi = node.bag.index(v)
            checks = []  # (kind, index into the child key)
            for i, u in enumerate(child.bag):
                if normalize_edge(u, v) in edge_set:
                    checks.append(("ne", i))
                if (v, u) in arc_set:
                    checks.append(("lt", i))
                if (u, v) in arc_set:
                    checks.append(("gt", i))
            table = {}
            for key in child_table:
                for color in range(1, k + 1):
                    ok = True
                    for kind, i in checks:
                        other = key[i]
                        if kind == "ne" and color == other:
                            ok = False
                        elif kind == "lt" and not color < other:
                            ok = False
                        elif kind == "gt" and not other < color:
                            ok = False
                        if not ok:
                            break
                    if ok:
                        table[key[:vi] + (color,) + key[vi:]] = None
        elif node.kind == "forget":
            child, child_table = results.pop()
            v = node.vertex
            vi = child.bag.index(v)
            table = {}
            for key in child_table:
                reduced = key[:vi] + key[vi + 1:]
                if reduced not in table:
                    table[reduced] = key  # remember one witness extension
        else:  # join
            right, right_table = results.pop()
            left, left_table = results.pop()
            table = {key: None for key in left_table if key in right_table}
        entries += len(table)
        max_table = max(max_table, len(table))
        results.append((node, table))
        tables[id(node)] = table

    _, root_table = results.pop()
    stats = {
        "nodes": entries,
        "max_table": max_table,
        "wall_time": time.perf_counter() - started,
    }
    if not root_table:
        return SolveResult(False, None, stats)

    # witness reconstruction: walk down from the root entry
    colors: dict[int, int] = {}

    def walk(node: NiceNode, key: tuple[int, ...]) -> None:
        while True:
            if node.kind == "leaf":
                return
            if node.kind == "introduce":
                v = node.vertex
                vi = node.bag.index(v)
                colors[v] = key[vi]
                key = key[:vi] + key[vi + 1:]
                node = node.children[0]
            elif node.kind == "forget":
                key = tables[id(node)][key]
                node = node.children[0]
            else:  # join
                walk(node.children[0], key)
                node = node.children[1]

    walk(root, next(iter(root_table)))
    witness = Coloring(colors)
    return SolveResult(True, witness, stats)


# ---------------------------------------------------------------------------
# mixed-neighborhood-diversity FPT route
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TypeEndpointPreorder:
    """Interval endpoints per type over positions 1..ell (weak order)."""

    ell: int
    p_minus: tuple[int, ...]
    p_plus: tuple[int, ...]

    def is_proper(self, class_arcs: frozenset[tuple[int, int]]) -> bool:
        if any(a >= b for a, b in zip(self.p_minus, self.p_plus)):
            return False
        return all(self.p_plus[i] <= self.p_minus[j] for i, j in class_arcs)


@dataclass(frozen=True)
class ClassStructure:
    """Class-level view of a graph after merging independent-set types.

    Every class is a clique; relations between classes are uniform, so a
    single edge/arc per class pair describes them all. ``sizes`` are the
    post-merge sizes (1 for a merged independent class).
    """

    sizes: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]
    independent: tuple[bool, ...]
    class_edges: frozenset[frozenset[int]]
    class_arcs: frozenset[tuple[int, int]]


def class_structure(g: MixedGraph) -> ClassStructure:
    part = mixed_neighborhood_partition(g)
    members = tuple(tuple(sorted(cls)) for cls in part.classes)
    independent = tuple(kind == "independent" for kind in part.class_kinds)
    sizes = tuple(1 if independent[i] else len(members[i]) for i in range(len(members)))
    class_edges = set()
    class_arcs = set()
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            u, v = members[i][0], members[j][0]
            if normalize_edge(u, v) in g.edges:
                class_edges.add(frozenset((i, j)))
            elif (u, v) in g.arcs:
                class_arcs.add((i, j))
            elif (v, u) in g.arcs:
                class_arcs.add((j, i))
    return ClassStructure(sizes, members, independent, frozenset(class_edges), frozenset(class_arcs))


def maximal_proper_preorders(
    m: int, class_arcs: frozenset[tuple[int, int]]
) -> Iterator[TypeEndpointPreorder]:
    """Enumerate the dominance-maximal proper type-endpoint preorders.

    Every proper preorder can be widened, without breaking properness or the
    correspondence of any coloring, until each lower endpoint sits at the
    latest ending in-neighbor (or position 1) and each upper endpoint at the
    earliest starting out-neighbor (or the final position). Enumerating only
    these widened preorders therefore preserves the decision.
    """
    if m == 0:
        return
    in_nbrs: list[set[int]] = [set() for _ in range(m)]
    out_nbrs: list[set[int]] = [set() for _ in range(m)]
    for i, j in class_arcs:
        in_nbrs[j].add(i)
        out_nbrs[i].add(j)
    p_minus = [0] * m
    p_plus = [0] * m
    sources = [c for c in range(m) if not in_nbrs[c]]
    for c in sources:
        p_minus[c] = 1

    def rec(t: int, closed: set[int], open_: set[int], unstarted: set[int]):
        if not unstarted:
            for c in open_:
                p_plus[c] = t
            yield TypeEndpointPreorder(t, tuple(p_minus), tuple(p_plus))
            return
        ordered = sorted(open_)
        for mask in range(1, 1 << len(ordered)):
            ends = {ordered[b] for b in range(len(ordered)) if mask >> b & 1}
            avail = closed | ends
            starts = {c for c in unstarted if in_nbrs[c] <= avail}
            if not starts:
                continue
            if any(not (out_nbrs[c] & starts) for c in ends):
                continue
            for c in ends:
                p_plus[c] = t
            for c in starts:
                p_minus[c] = t
            yield from rec(t + 1, closed | ends, (open_ - ends) | starts, unstarted - starts)

    yield from rec(2, set(), set(sources), set(range(m)) - set(sources))


def _independent_submasks(active_mask: int, conflict: list[int]) -> list[int]:
    """Nonempty submasks of active_mask inducing no class edge."""
    out = []
    sub = active_mask
    while sub:
        ok = True
        bits = sub
        while bits:
            low = bits & -bits
            b = low.bit_length() - 1
            if conflict[b] & sub:
                ok = False
                break
            bits ^= low
        if ok:
            out.append(sub)
        sub = (sub - 1) & active_mask
    return sorted(out)


def preorder_program(
    pre: TypeEndpointPreorder,
    sizes: tuple[int, ...],
    class_edges: frozenset[frozenset[int]],
    k: int,
    reduced: bool = True,
) -> FeasibilityProgram:
    """The interval/color-count feasibility program for one proper preorder.

    Variables ``('c', i)`` are the ascending interval endpoints (the top one
    may exceed k by one, since intervals are half-open) and ``('x', i, mask)``
    counts colors in interval i used exactly by the class subset ``mask``.
    With ``reduced`` the structurally-zero count variables (subset not active
    in the interval, or containing an edge-connected pair) are omitted; the
    feasible sets are identical up to those zeros.
    """
    m = len(sizes)
    ell = pre.ell
    conflict = [0] * m
    for pair in class_edges:
        i, j = sorted(pair)
        conflict[i] |= 1 << j
        conflict[j] |= 1 << i
    variables: list[tuple[object, int, int]] = []
    for i in range(1, ell + 1):
        variables.append((("c", i), 1, k + 1))
    masks_by_interval: dict[int, list[int]] = {}
    full_mask = (1 << m) - 1
    for i in range(1, ell):
        if reduced:
            active = 0
            for c in range(m):
                if pre.p_minus[c] <= i < pre.p_plus[c]:
                    active |= 1 << c
            masks = _independent_submasks(active, conflict)
        else:
            masks = list(range(1, full_mask + 1))
        masks_by_interval[i] = masks
        for mask in masks:
            variables.append((("x", i, mask), 0, k))
    constraints: list[Constraint] = []
    for i in range(1, ell):
        constraints.append(
            Constraint(((("c", i), 1), (("c", i + 1), -1)), LE, -1)
        )
        coeffs = [(("x", i, mask), 1) for mask in masks_by_interval[i]]
        coeffs += [(("c", i + 1), -1), (("c", i), 1)]
        constraints.append(Constraint(tuple(coeffs), LE, 0))
    for c in range(m):
        inside = [
            (("x", i, mask), 1)
            for i in range(pre.p_minus[c], pre.p_plus[c])
            for mask in masks_by_interval.get(i, [])
            if mask >> c & 1
        ]
        constraints.append(Constraint(tuple(inside), EQ, sizes[c]))
        if not reduced:
            before = [
                (("x", i, mask), 1)
                for i in range(1, pre.p_minus[c])
                for mask in masks_by_interval.get(i, [])
                if mask >> c & 1
            ]
            if before:
                constraints.append(Constraint(tuple(before), EQ, 0))
            after = [
                (("x", i, mask), 1)
                for i in range(pre.p_plus[c], ell)
                for mask in masks_by_interval.get(i, [])
                if mask >> c & 1
            ]
            if after:
                constraints.append(Constraint(tuple(after), EQ, 0))
    if not reduced:
        for i in range(1, ell):
            for mask in masks_by_interval[i]:
                bits = [b for b in range(m) if mask >> b & 1]
                if any(
                    frozenset((a, b)) in class_edges
                    for ai, a in enumerate(bits)
                    for b in bits[ai + 1:]
                ):
                    constraints.append(Constraint(((("x", i, mask), 1),), EQ, 0))
    return FeasibilityProgram(tuple(variables), tuple(constraints))


def coloring_from_preorder_solution(
    assignment: dict, pre: TypeEndpointPreorder, struct: ClassStructure
) -> Coloring:
    """Rebuild a vertex coloring from a feasible interval/count assignment.

    Colors inside each interval are handed out subset by subset in ascending
    bitmask order; merged independent classes broadcast their single color to
    every original member.
    """
    m = len(struct.sizes)
    class_colors: list[list[int]] = [[] for _ in range(m)]
    by_interval: dict[int, list[int]] = {}
    for key in assignment:
        if isinstance(key, tuple) and key[0] == "x":
            by_interval.setdefault(key[1], []).append(key[2])
    for i in range(1, pre.ell):
        d = assignment[("c", i)]
        for mask in sorted(by_interval.get(i, [])):
            cnt = assignment[("x", i, mask)]
            if cnt <= 0:
                continue
            for c in range(m):
                if mask >> c & 1:
                    class_colors[c].extend(range(d, d + cnt))
            d += cnt
    colors: dict[int, int] = {}
    for c in range(m):
        if struct.independent[c]:
            col = class_colors[c][0]
            for v in struct.members[c]:
                colors[v] = col
        else:
            for v, col in zip(struct.members[c], sorted(class_colors[c])):
                colors[v] = col
    return Coloring(colors)


def _chain_weight_bound(struct: ClassStructure) -> int:
    """Longest class-DAG chain weighted by class sizes: a chromatic lower bound."""
    m = len(struct.sizes)
    out: list[list[int]] = [[] for _ in range(m)]
    indeg = [0] * m
    for i, j in struct.class_arcs:
        out[i].append(j)
        indeg[j] += 1
    order = [c for c in range(m) if indeg[c] == 0]
    best = list(struct.sizes)
    queue = list(order)
    indeg2 = list(indeg)
    while queue:
        c = queue.pop()
        for j in out[c]:
            best[j] = max(best[j], best[c] + struct.sizes[j])
            indeg2[j] -= 1
            if indeg2[j] == 0:
                queue.append(j)
    return max(best, default=0)


def ndm_fpt_decide(
    g: MixedGraph,
    k: int,
    preorder_budget: int = DEFAULT_PREORDER_BUDGET,
    feasibility_budget: int | None = None,
) -> SolveResult:
    """Decide k-colorability by proper-preorder enumeration plus feasibility.

    Independent-set types are merged into single representatives first; each
    enumerated preorder is turned into a feasibility program whose solution,
    if any, is rebuilt into a witness coloring.
    """
    started = time.perf_counter()
    if g.n == 0:
        return SolveResult(True, Coloring({}), {"preorders": 0})
    if k < 1:
        return SolveResult(False, None, {"preorders": 0})
    struct = class_structure(g)
    m = len(struct.sizes)
    count = 0
    if _chain_weight_bound(struct) <= k:
        for pre in maximal_proper_preorders(m, struct.class_arcs):
            count += 1
            if count > preorder_budget:
                raise BudgetExceeded(f"preorder enumeration exceeded {preorder_budget}")
            program = preorder_program(pre, struct.sizes, struct.class_edges, k)
            if feasibility_budget is None:
                assignment = solve_feasibility(program)
            else:
                assignment = solve_feasibility(program, budget=feasibility_budget)
            if assignment is not None:
                witness = coloring_from_preorder_solution(assignment, pre, struct)
                stats = {
                    "preorders": count,
                    "wall_time": time.perf_counter() - started,
                }
                return SolveResult(True, witness, stats)
    stats = {"preorders": count, "wall_time": time.perf_counter() - started}
    return SolveResult(False, None, stats)


# ---------------------------------------------------------------------------
# inrank-0 branching
# ---------------------------------------------------------------------------

def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mis_masks(cand: int, keep: list[int]) -> list[int]:
    """Maximal independent subsets of the nonempty vertex mask ``cand``.

    ``keep[i]`` is the complement of bit i and its edge neighborhood, so
    ``p & keep[i]`` is what stays compatible after choosing i. Bron–Kerbosch
    on the complement graph with Tomita pivoting, over an explicit stack.
    """
    out: list[int] = []
    stack = [(0, cand, 0)]
    while stack:
        r, p, x = stack.pop()
        if not p:
            if not x:
                out.append(r)
            continue
        pivot, best = 0, -1
        rest = p | x
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            size = (p & keep[u]).bit_count()
            if size > best:
                pivot, best = u, size
        branch = p & ~keep[pivot]
        while branch:
            low = branch & -branch
            branch ^= low
            v = low.bit_length() - 1
            stack.append((r | low, p & keep[v], x & keep[v]))
            p ^= low
            x |= low
    return out


def maximal_independent_sets(vertices: list[int], edge_adj: dict[int, set[int]]) -> list[frozenset[int]]:
    """All maximal independent sets of the graph induced on ``vertices``, sorted."""
    vs = sorted(vertices)
    if not vs:
        return []
    index = {v: i for i, v in enumerate(vs)}
    keep = []
    for i, v in enumerate(vs):
        nbrs = 1 << i
        for u in edge_adj[v]:
            if u in index:
                nbrs |= 1 << index[u]
        keep.append(~nbrs)
    sets = [frozenset(vs[i] for i in _bits(m)) for m in _mis_masks((1 << len(vs)) - 1, keep)]
    return sorted(sets, key=sorted)


class _BranchingSearch:
    """Decide k-colorability by the inrank-0 recursion over vertex bitmasks.

    Vertex v is bit v - 1. A state is the mask of vertices not yet colored;
    each child colors one maximal independent set of the state's sources
    (vertices without an incoming arc from the state) with the next color.
    A state only ever loses sources, so it is closed under arc successors and
    its longest arc chain starts at its tallest vertex: it needs more than j
    colors as soon as it meets ``tall[j]``. ``refuted`` maps an expanded
    state to the largest color count shown insufficient for it; it stays
    valid across ``decide`` calls with different k, and it holds at most one
    entry per counted node.
    """

    def __init__(self, g: MixedGraph, budget: int, fanout_log: list | None):
        n = g.n
        self.n = n
        self.budget = budget
        self.fanout_log = fanout_log
        self.nodes = 0
        self.refuted: dict[int, int] = {}
        adj = [0] * n
        for u, v in g.edges:
            adj[u - 1] |= 1 << (v - 1)
            adj[v - 1] |= 1 << (u - 1)
        self.keep = [~(adj[i] | 1 << i) for i in range(n)]
        self.arc_in = [0] * n
        self.arc_out: list[list[int]] = [[] for _ in range(n)]
        for u, v in g.arcs:
            self.arc_in[v - 1] |= 1 << (u - 1)
            self.arc_out[u - 1].append(v - 1)
        # arc height: arcs on the longest directed path leaving the vertex
        height = [0] * n
        for v in reversed(topological_order(g)):
            height[v - 1] = max((height[w] + 1 for w in self.arc_out[v - 1]), default=0)
        # tall[j]: vertices of arc height at least j; j ranges over 0..n
        self.tall = [0] * (n + 2)
        for i, h in enumerate(height):
            self.tall[h] |= 1 << i
        for j in range(n, -1, -1):
            self.tall[j] |= self.tall[j + 1]
        self.lower_bound = max(height, default=-1) + 1

    def _expand(self, state: int, sources: int, j: int) -> list:
        """Count a node and build its frame: state, sources, colors, children, next child.

        The state fits under the chain cut for j colors, so a vertex of arc
        height j - 1 in it has no arc predecessor left and is a source. A
        child that leaves one uncolored is cut, so the children are only the
        maximal independent sets of the sources that contain all of them.
        """
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExceeded(f"branching exceeded {self.budget} nodes")
        must = sources & self.tall[j - 1]
        free = sources
        children = [must]
        for i in _bits(must):
            if must & ~self.keep[i] != 1 << i:
                children = []  # two of them share an edge
            free &= self.keep[i]
        if children and free:
            children = [must | indep for indep in _mis_masks(free, self.keep)]
            children.sort(key=int.bit_count, reverse=True)
        if self.fanout_log is not None:
            self.fanout_log.append((frozenset(i + 1 for i in _bits(state)), len(children)))
        return [state, sources, j, children, 0]

    def decide(self, k: int) -> list[int] | None:
        """Color classes of a coloring with at most k colors, in color order, or None."""
        k = min(k, self.n)
        state = (1 << self.n) - 1
        if state & self.tall[k] or self.refuted.get(state, -1) >= k:
            return None
        sources = sum(1 << i for i in range(self.n) if not self.arc_in[i])
        stack = [self._expand(state, sources, k)]
        while stack:
            frame = stack[-1]
            state, sources, j, children, idx = frame
            if idx == len(children):
                self.refuted[state] = j
                stack.pop()
                continue
            frame[4] = idx + 1
            indep = children[idx]
            child = state & ~indep
            if not child:
                return [f[3][f[4] - 1] for f in stack]
            if self.refuted.get(child, -1) >= j - 1:
                continue
            child_sources = sources & ~indep
            for v in _bits(indep):
                for w in self.arc_out[v]:
                    if not self.arc_in[w] & child:
                        child_sources |= 1 << w
            stack.append(self._expand(child, child_sources, j - 1))
        return None


def _classes_coloring(classes: list[int]) -> Coloring:
    return Coloring({i + 1: color for color, mask in enumerate(classes, 1) for i in _bits(mask)})


def branching_decide(
    g: MixedGraph,
    k: int,
    budget: int = DEFAULT_NODE_BUDGET,
    fanout_log: list | None = None,
) -> SolveResult:
    """Decide k-colorability via chi(G) = 1 + min over inrank-0 maximal
    independent sets I of chi(G - I), as a depth-first search that cuts at k."""
    started = time.perf_counter()
    if g.n == 0:
        return SolveResult(True, Coloring({}), {"nodes": 0})
    if k < 1:
        return SolveResult(False, None, {"nodes": 0})
    search = _BranchingSearch(g, budget, fanout_log)
    classes = search.decide(k)
    stats = {"nodes": search.nodes, "wall_time": time.perf_counter() - started}
    if classes is None:
        return SolveResult(False, None, stats)
    return SolveResult(True, _classes_coloring(classes), stats)


def branching_chi(
    g: MixedGraph, budget: int = DEFAULT_NODE_BUDGET, fanout_log: list | None = None
) -> tuple[int, Coloring]:
    """Exact chromatic number by ascending k from the longest arc chain.

    All k share one search, so states refuted for a smaller k are not
    searched again.
    """
    if g.n == 0:
        return 0, Coloring({})
    search = _BranchingSearch(g, budget, fanout_log)
    for k in range(search.lower_bound, g.n + 1):
        classes = search.decide(k)
        if classes is not None:
            return k, _classes_coloring(classes)
    raise AssertionError("no coloring with n colors was found; the search is unsound")


# ---------------------------------------------------------------------------
# chromatic number wrapper
# ---------------------------------------------------------------------------

METHODS = ("brute", "twdp", "ndm", "branch")


def chi_exact(
    g: MixedGraph,
    method: str = "branch",
    td: TreeDecomposition | None = None,
    brute_cap: int = DEFAULT_BRUTE_CAP,
    budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[int, Coloring]:
    """Minimum k with a proper k-coloring, via the chosen decider.

    Deciders are monotone in k, so the search ascends linearly from the
    combined lower bound; the layering coloring caps it from above.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if g.n == 0:
        return 0, Coloring({})
    if method == "brute":
        return brute_force_chi(g, cap=brute_cap)
    if method == "branch":
        return branching_chi(g, budget=budget)
    lb = lower_bounds(g).combined
    upper_witness = layering_coloring(g)
    ub = upper_witness.num_colors()
    if method == "twdp" and td is None:
        td = min_fill_decomposition(g)
    if method == "twdp":
        validate_decomposition(td, g)
    for k in range(lb, ub + 1):
        if method == "twdp":
            result = tw_dp_decide(g, td, k, validate=False)
        else:
            result = ndm_fpt_decide(g, k)
        if result.decision:
            return k, result.witness
    raise AssertionError("layering upper bound was not reached; decider is unsound")
