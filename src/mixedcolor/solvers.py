"""Exact k-colorability deciders and chromatic-number computation.

Four routes, cross-validated against each other in the test suite:

* ``brute_force_chi`` — backtracking oracle over topological vertex order.
* ``tw_dp_decide`` — dynamic programming over a nice tree decomposition.
* ``ndm_fpt_decide`` — enumeration of proper type-endpoint preorders over the
  mixed neighborhood partition, one bounded-integer feasibility program each.
* ``branching_decide`` — recursion over maximal independent sets among the
  vertices without incoming arcs, from ``maximal_independent_sets``, the one
  bitmask kernel, which also gives the ndm route its class sets.

``ROUTES`` maps each method to a per-graph set-up returning ``decide(k) -> SolveResult``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush
from itertools import count
from operator import itemgetter
from typing import Callable, Iterator, Optional

# lower_bounds and layering_coloring stay only because perfbench/tracing.py TARGETS name them here
from .bounds import bracket, layering_coloring, lower_bounds  # noqa: F401
from .errors import DEFAULT_NODE_BUDGET, BudgetExceeded, CapExceeded
from .feasibility import Rows, search, solve_feasibility  # noqa: F401
from .graphs import Coloring, MixedGraph, mixed_graph, set_bits
# perfbench's tracer wraps solve_feasibility and mixed_neighborhood_partition in this module
from .partitions import closure_neighborhood_partition, mixed_neighborhood_partition  # noqa: F401
from .treedecomp import (
    NiceNode,
    TreeDecomposition,
    make_nice,
    min_fill_decomposition,
    validate_decomposition,
)

DEFAULT_BRUTE_CAP = 10


@dataclass
class SolveResult:
    decision: bool
    witness: Optional[Coloring]
    stats: dict = field(default_factory=dict)


Decide = Callable[[int], SolveResult]


def _ascend(g: MixedGraph, decide: Decide, budget: int, stats: dict | None = None) -> tuple[int, Coloring]:
    """The first k from ``bracket``'s lower bound up that monotone ``decide`` accepts, with its
    witness, else the bracket's upper coloring and its count. ``stats`` gets ``first_k``, ``upper``,
    ``decides``, the bracket's label as ``lower_witness`` and its search's ``search_nodes``."""
    stats = {} if stats is None else stats
    first_k, upper, source = bracket(g, budget, stats)
    count = upper.num_colors()
    stats.update(first_k=first_k, upper=count, decides=0, lower_witness=source)
    for k in range(first_k, count):
        stats["decides"] += 1
        result = decide(k)
        if result.decision:
            return k, result.witness
    return count, upper


# ---------------------------------------------------------------------------
# brute force oracle
# ---------------------------------------------------------------------------

def brute_force_decide(
    g: MixedGraph, k: int, budget: int = DEFAULT_NODE_BUDGET, stats: dict | None = None
) -> Optional[Coloring]:
    """Backtracking k-colorability check; returns a witness or None.

    Vertices are processed in topological order and each vertex tries its
    feasible colors in increasing order, so the first witness found is
    canonical. Each step of the backtracking loop counts against ``budget``.
    If ``stats`` is given, its ``steps`` key is set to the number of steps.
    """
    steps = 0
    try:
        if g.n == 0:
            return Coloring({})
        if k < 1:
            return None
        order = g.order
        colors: dict[int, int] = {}
        i = 0  # colors holds order[:i]; order[i] is next to color
        while i < len(order):
            steps += 1
            if steps > budget:
                raise BudgetExceeded(f"brute force exceeded {budget} steps")
            v = order[i]
            if v in colors:  # back from a failed extension: try the next color
                color = colors.pop(v) + 1
            else:  # in-neighbors precede v
                color = max((colors[u] + 1 for u in set_bits(g.pred_masks[v])), default=1)
            forbidden = {colors[u] for u in set_bits(g.nbr_masks[v]) if u in colors}
            while color in forbidden:
                color += 1
            if color <= k:
                colors[v] = color
                i += 1
            elif i == 0:
                return None
            else:
                i -= 1
        return Coloring(colors)
    finally:
        if stats is not None:
            stats["steps"] = steps


def brute_force_chi(
    g: MixedGraph, cap: int = DEFAULT_BRUTE_CAP, budget: int = DEFAULT_NODE_BUDGET, stats: dict | None = None
) -> tuple[int, Coloring]:
    """Exact chromatic number by upward search (``_ascend``)."""
    if g.n > cap:
        raise CapExceeded(f"brute force limited to {cap} vertices, got {g.n}")
    return _ascend(g, ROUTES["brute"](g, None, budget), budget, stats)


# ---------------------------------------------------------------------------
# treewidth dynamic programming
# ---------------------------------------------------------------------------

def tw_dp_decide(g: MixedGraph, nice: list[NiceNode], k: int, budget: int = DEFAULT_NODE_BUDGET) -> SolveResult:
    """Decide k-colorability with the nice-decomposition table DP.

    ``nice`` is ``make_nice`` of a decomposition validated against g; the twdp
    route builds it once per graph. A table holds the proper colorings of a
    step's bag, as tuples in bag order, that extend to the steps below it.
    Every vertex v has the color window ``1 + g.floor[v]`` .. ``k - g.ceiling[v]``,
    which holds in every proper coloring: an empty window answers no before any
    table is built. An introduce step gives the new vertex every color of its
    window that its bagged in- and out-neighbors leave open and no bagged edge
    neighbor uses; a join intersects tables on equal bags. The first empty
    table answers no, as every table above it would be empty too. Only forget
    tables outlive the step that reads them: each maps a reduced key to the
    forgotten vertex's color in one witness extension, which the steps run
    backwards rebuild.

    ``stats["nodes"]`` counts the table entries built (0 when a window is
    empty) and ``stats["max_table"]`` the largest table; the entries count
    against ``budget``, checked after each operand entry of an introduce step
    and after every other step. k is clamped to n: the arc order colors any
    graph here with n colors.
    """
    if g.n == 0:
        return SolveResult(True, Coloring({}), {"nodes": 0, "max_table": 1})
    k = min(k, g.n)
    floor, ceiling = g.floor, g.ceiling
    if any(floor[v] + ceiling[v] >= k for v in g.vertices):  # also every k < 1
        return SolveResult(False, None, {"nodes": 0, "max_table": 0})
    forgets: dict[int, dict] = {}  # forget step index -> its table
    entries = 0
    max_table = 0
    pending: list[dict] = []  # tables no step has read yet
    for step, node in enumerate(nice):
        if node.kind == "leaf":
            table: dict = {(): None}
        elif node.kind == "introduce":
            child_table = pending.pop()
            v, vi = node.vertex, node.pos
            child_bag = node.bag[:vi] + node.bag[vi + 1:]
            # child-key positions of v's bagged in-, out- and edge neighbors;
            # each getter repeats its first position so it returns a tuple
            ins = [i for i, u in enumerate(child_bag) if g.pred_masks[v] >> u & 1]
            outs = [i for i, u in enumerate(child_bag) if g.succ_masks[v] >> u & 1]
            nes = [i for i, u in enumerate(child_bag) if g.nbr_masks[v] >> u & 1]
            in_colors = itemgetter(*ins, ins[0]) if ins else None
            out_colors = itemgetter(*outs, outs[0]) if outs else None
            ne_colors = itemgetter(*nes, nes[0]) if nes else None
            first, last = 1 + floor[v], k - ceiling[v]
            table = {}
            for key in child_table:
                lo = max(in_colors(key)) + 1 if ins else first
                hi = min(out_colors(key)) - 1 if outs else last
                if lo < first:
                    lo = first
                if hi > last:
                    hi = last
                if lo > hi:
                    continue
                used = ne_colors(key) if nes else ()
                head, tail = key[:vi], key[vi:]
                for color in range(lo, hi + 1):
                    if color not in used:
                        table[head + (color,) + tail] = None
                if entries + len(table) > budget:
                    break  # raised below
        elif node.kind == "forget":
            child_table = pending.pop()
            vi = node.pos
            table = {}
            for key in child_table:
                reduced = key[:vi] + key[vi + 1:]
                if reduced not in table:
                    table[reduced] = key[vi]  # the color of one witness extension
            forgets[step] = table
        else:  # join
            right_table = pending.pop()
            left_table = pending.pop()
            table = {key: None for key in left_table if key in right_table}
        entries += len(table)
        if entries > budget:
            raise BudgetExceeded(f"tree decomposition DP exceeded {budget} table entries")
        max_table = max(max_table, len(table))
        if not table:
            return SolveResult(False, None, {"nodes": entries, "max_table": max_table})
        pending.append(table)

    # witness reconstruction: the steps backwards, from the root's one key;
    # a join hands its key to both operands, and each leaf ends a branch
    colors: dict[int, int] = {}
    keys = [next(iter(pending.pop()))]
    for step in reversed(range(len(nice))):
        node = nice[step]
        if node.kind == "leaf":
            keys.pop()
            continue
        key, vi = keys.pop(), node.pos
        if node.kind == "introduce":
            colors[node.vertex] = key[vi]
            keys.append(key[:vi] + key[vi + 1:])
        elif node.kind == "forget":
            keys.append(key[:vi] + (forgets[step][key],) + key[vi:])
        else:  # join
            keys += (key, key)
    return SolveResult(True, Coloring(colors), {"nodes": entries, "max_table": max_table})


# ---------------------------------------------------------------------------
# maximal independent sets over bitmasks
# ---------------------------------------------------------------------------

def maximal_independent_sets(
    cand: int, keep: list[int], required: int = 0, budget: int = DEFAULT_NODE_BUDGET
) -> list[int]:
    """Maximal independent subsets of the vertex mask ``cand`` that contain ``required``.

    ``keep[i]`` is the complement of bit i and its edge neighborhood, so
    ``p & keep[i]`` is what stays compatible after choosing i. Bron–Kerbosch
    on the complement graph with Tomita pivoting, over an explicit stack,
    from ``required`` (independent) and the candidates it keeps; a candidate
    with no edge neighbor among them lies in every maximal set, so it joins
    ``required`` first. The empty mask has one maximal independent subset,
    itself: ``[0]``. Raises BudgetExceeded rather than build more than
    ``budget`` sets.
    """
    rest = required
    while rest:
        low = rest & -rest
        rest ^= low
        cand &= keep[low.bit_length() - 1]
    rest = cand
    while rest:
        low = rest & -rest
        rest ^= low
        if cand & ~keep[low.bit_length() - 1] == low:  # no edge neighbor among the candidates
            required |= low
            cand ^= low
    out: list[int] = []
    stack = [(required, cand, 0)]
    while stack:
        r, p, x = stack.pop()
        if not p:
            if not x:
                if len(out) >= budget:
                    raise BudgetExceeded(f"maximal independent sets exceeded the {budget} left of the budget")
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


# bound at import, so the ndm route's class sets stay outside the tracer's branch span
_class_sets = maximal_independent_sets


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
    """Class-level view of the transitive closure after merging independent-set types.

    Adding every transitive arc keeps the proper colorings and can only merge
    types. Every class is a clique; relations between classes are uniform, so
    a single edge per class pair describes them all. ``class_arcs`` holds the
    graph's own arcs between classes, which generate the closure's class arcs:
    properness and the maximal preorders are the same for both sets, because
    the earliest-starting out-neighbor of a class is always a direct one.
    ``sizes`` are the post-merge sizes (1 for a merged independent class).
    """

    sizes: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]
    independent: tuple[bool, ...]
    class_edges: frozenset[frozenset[int]]
    class_arcs: frozenset[tuple[int, int]]

    @cached_property
    def subsets(self) -> _Subsets:
        """The count-variable class sets of every preorder program, for every k."""
        return _Subsets(len(self.sizes), self.class_edges)

    @cached_property
    def cliques(self) -> list[tuple[int, int]]:
        """Each maximal clique of the class edges as a class mask, ascending, with
        its summed class size; ``clique_screen`` tests every preorder against them."""
        out = []
        # a class's edge neighborhood is what stays compatible in a clique
        for mask in sorted(_class_sets((1 << len(self.sizes)) - 1, self.subsets.conflict)):
            size, rest = 0, mask
            while rest:
                low = rest & -rest
                size += self.sizes[low.bit_length() - 1]
                rest ^= low
            out.append((mask, size))
        return out

    @cached_property
    def chain_weight(self) -> int:
        """Longest class-DAG chain weighted by class sizes: a chromatic lower bound."""
        dag = mixed_graph(len(self.sizes), arcs=[(i + 1, j + 1) for i, j in self.class_arcs])  # classes from 1
        best = [0, *self.sizes]  # heaviest chain ending at each class
        for c in dag.order:
            for d in set_bits(dag.succ_masks[c]):
                best[d] = max(best[d], best[c] + self.sizes[d - 1])
        return max(best)


def class_structure(g: MixedGraph) -> ClassStructure:
    """The class structure of ``transitive_closure(g)``, without building the
    closure; built once per graph and kept on it, with its ``subsets`` memo."""
    memo = vars(g)
    if "class_structure" not in memo:
        part = closure_neighborhood_partition(g)
        members = tuple(tuple(sorted(cls)) for cls in part.classes)
        independent = tuple(kind == "independent" for kind in part.class_kinds)
        sizes = tuple(1 if independent[i] else len(members[i]) for i in range(len(members)))
        class_of = {v: i for i, cls in enumerate(members) for v in cls}
        class_edges = frozenset(
            frozenset((class_of[u], class_of[v]))
            for u, v in g.edges
            if class_of[u] != class_of[v] and not (g.anc_masks[u] | g.desc_masks[u]) >> v & 1
        )
        class_arcs = frozenset((class_of[u], class_of[v]) for u, v in g.arcs)
        memo["class_structure"] = ClassStructure(sizes, members, independent, class_edges, class_arcs)
    return memo["class_structure"]


def maximal_proper_preorders(
    m: int, class_arcs: frozenset[tuple[int, int]], max_ell: int | None = None, budget: int = DEFAULT_NODE_BUDGET
) -> Iterator[TypeEndpointPreorder]:
    """Enumerate the dominance-maximal proper type-endpoint preorders with ell <= ``max_ell``.

    Every proper preorder can be widened, without breaking properness or the
    correspondence of any coloring, until each lower endpoint sits at the
    latest ending in-neighbor (or position 1) and each upper endpoint at the
    earliest starting out-neighbor (or the final position). Enumerating only
    these widened preorders therefore preserves the decision. A class is
    ready once none of its in-neighbors is unstarted, which only a start of
    its last unstarted in-neighbor can bring about, so the ready set is kept
    up to date from the starts. A ready class starts where its last open
    in-neighbor ends, so the end sets at a position are the
    distinct unions of the open in-neighbor sets of some ready classes,
    visited in ascending class-mask order, each built when a smaller one it
    extends is visited. A class unstarted at position t ends at t + 1 or
    later, so with ell <= ``max_ell`` (default 2m, which no preorder
    exceeds) every unstarted class must start at t = max_ell - 1: there only
    the union of every ready set is built, and only if every unstarted class
    is ready. Each end set built and each preorder yielded counts against
    ``budget``.
    """
    max_ell = 2 * m if max_ell is None else max_ell
    ins = [0] * m  # bit i of ins[j]: class arc i -> j
    outs = [0] * m  # bit j of outs[i]: the same arc, read only to find the classes a start makes ready
    for i, j in class_arcs:
        ins[j] |= 1 << i
        outs[i] |= 1 << j
    sources = sum([1 << c for c in range(m) if not ins[c]])
    p_minus = [sources >> c & 1 for c in range(m)]
    p_plus = [0] * m
    steps = count(1)  # end sets built plus preorders yielded

    def spend() -> None:
        if next(steps) > budget:
            raise BudgetExceeded(f"preorder enumeration exceeded {budget} preorders and end masks")

    def children(t: int, open_: int, unstarted: int, ready: int):
        waiting = []
        walk = ready
        while walk:
            low = walk & -walk
            c = low.bit_length() - 1
            waiting.append((c, ins[c] & open_))
            walk ^= low
        needs = sorted({need for _, need in waiting})
        if t + 1 == max_ell:  # only the union of every ready set can start them all
            full = 0
            for need in needs:
                full |= need
            needs = [full] if ready == unstarted else []
        heap, built = needs[:], set(needs)
        while heap:
            ends = heappop(heap)
            spend()
            starts = woken = 0
            for c, need in waiting:
                if not need & ~ends:
                    starts |= 1 << c
                    woken |= outs[c]
                    p_minus[c] = t
            walk = ends
            while walk:
                low = walk & -walk
                p_plus[low.bit_length() - 1] = t
                walk ^= low
            rest, now_ready = unstarted & ~starts, ready & ~starts
            while woken:  # only an out-neighbor of a start can become ready
                low = woken & -woken
                if not ins[low.bit_length() - 1] & rest:
                    now_ready |= low
                woken ^= low
            yield t + 1, open_ & ~ends | starts, rest, now_ready
            for union in {ends | need for need in needs} - built:
                built.add(union)
                heappush(heap, union)

    # depth first over an explicit stack of child generators; the sources
    # start at position 1 and the first end set ends at position 2
    unstarted = (1 << m) - 1 & ~sources
    ready = sum([1 << c for c in set_bits(unstarted) if not ins[c] & unstarted])
    stack = [iter([(2, sources, unstarted, ready)])] if m and 2 + bool(unstarted) <= max_ell else []
    while stack:
        state = next(stack[-1], None)
        if state is None:
            stack.pop()
            continue
        t, open_, unstarted, _ = state
        if unstarted:
            stack.append(children(*state))
            continue
        spend()
        while open_:
            low = open_ & -open_
            p_plus[low.bit_length() - 1] = t
            open_ ^= low
        yield TypeEndpointPreorder(t, tuple(p_minus), tuple(p_plus))


class _Subsets(dict):
    """Count-variable class sets, memoized per active class mask.

    ``self[active]`` lists, ascending, each maximal independent set of the
    classes in ``active`` under the class edges, as a mask with its classes;
    the empty ``active`` has none. These are the only sets a preorder program
    counts colors of, and a class structure's one instance serves every
    preorder for every k, so it holds one entry per maximal independent set
    per distinct active mask.
    """

    def __init__(self, m: int, class_edges: frozenset[frozenset[int]]) -> None:
        super().__init__()
        self.conflict = conflict = [0] * m  # bit j of conflict[i]: classes i and j share an edge
        for i, j in map(tuple, class_edges):
            conflict[i] |= 1 << j
            conflict[j] |= 1 << i
        self.keep = [~(conflict[i] | 1 << i) for i in range(m)]

    def __missing__(self, active: int) -> list[tuple[int, list[int]]]:
        entries = []
        for mask in sorted(_class_sets(active, self.keep)):
            classes, rest = [], mask
            while rest:
                low = rest & -rest
                classes.append(low.bit_length() - 1)
                rest ^= low
            if classes:
                entries.append((mask, classes))
        self[active] = entries
        return entries


def preorder_program(pre: TypeEndpointPreorder, sizes: tuple[int, ...], subsets: _Subsets, k: int) -> Rows:
    """The interval/color-cover feasibility program for one proper preorder.

    Variables ``('c', i)`` are the ascending interval endpoints, in
    ``1..k + 1`` since intervals are half-open, and ``('x', i, mask)`` counts
    the colors in interval i given to the classes of ``mask``, one variable
    per set ``subsets`` gives for the classes active in interval i, bounded
    by k and by the largest class size in the set. Rows come per interval,
    its ordering and capacity rows, then per class its covering row
    ``-sum(x) <= -size`` over its span. A class may get more colors than its
    size: it keeps any ``size`` of them, so the decision is that of exact
    counts over every independent set.
    """
    m, ell, p_minus, p_plus = len(sizes), pre.ell, pre.p_minus, pre.p_plus
    names: list = [("c", i) for i in range(1, ell + 1)]
    lo, hi = [1] * ell, [k + 1] * ell
    rows: list = []
    rhs: list[int] = []
    inside: list[list[int]] = [[] for _ in range(m)]
    for i in range(1, ell):
        active = sum([1 << c for c in range(m) if p_minus[c] <= i < p_plus[c]])
        first = len(names)
        for x, (mask, classes) in enumerate(subsets[active], first):
            names.append(("x", i, mask))
            hi.append(min(k, max([sizes[c] for c in classes])))
            for c in classes:
                inside[c].append(x)
        lo += [0] * (len(names) - first)
        rows.append(((i - 1, 1), (i, -1)))
        rows.append(tuple([(x, 1) for x in range(first, len(names))]) + ((i, -1), (i - 1, 1)))
        rhs += [-1, 0]
    for c in range(m):
        rows.append(tuple([(x, -1) for x in inside[c]]))
        rhs.append(-sizes[c])
    return Rows(names, lo, hi, rows, rhs)


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
    start = {i: assignment[("c", i)] for i in range(1, pre.ell)}  # next color per interval
    for key in sorted(key for key in assignment if key[0] == "x"):  # by interval, then mask
        _, i, mask = key
        given = range(start[i], start[i] + assignment[key])
        while mask:
            low = mask & -mask
            class_colors[low.bit_length() - 1].extend(given)
            mask ^= low
        start[i] += assignment[key]
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


def clique_screen(pre: TypeEndpointPreorder, cliques: list[tuple[int, int]], k: int) -> tuple[int, int, int] | None:
    """The first of ``cliques`` that refutes ``pre`` for k colors, as its class
    mask, its summed class size s and the number u of intervals its classes'
    spans cover; None if none does.

    A count variable's classes are independent, so they hold at most one
    class of a clique: all s of its colors lie in those u intervals. Each of
    the other ell - 1 - u intervals holds a color too, and there are at most
    k colors, so ``s + ell - 1 - u > k`` leaves the preorder's program without
    a solution.
    """
    spans = [(1 << b) - (1 << a) for a, b in zip(pre.p_minus, pre.p_plus)]  # bit i: interval i
    slack = k + 1 - pre.ell  # the colors beyond one per interval
    for mask, size in cliques:
        covered, rest = 0, mask
        while rest:
            low = rest & -rest
            covered |= spans[low.bit_length() - 1]
            rest ^= low
        u = covered.bit_count()
        if size - u > slack:
            return mask, size, u
    return None


def ndm_programs(
    struct: ClassStructure, k: int, budget: int = DEFAULT_NODE_BUDGET
) -> Iterator[tuple[TypeEndpointPreorder, Rows | None]]:
    """The programs the ndm route searches for k colors, in its order.

    Nothing if the class-DAG chain weight already exceeds k; otherwise one per
    maximal proper preorder of the classes with at most k + 1 positions (each
    of its intervals holds a color), enumerated within ``budget``, with None
    in place of the program of a preorder that ``clique_screen`` refutes.
    """
    if struct.chain_weight > k:
        return
    for pre in maximal_proper_preorders(len(struct.sizes), struct.class_arcs, k + 1, budget):
        if clique_screen(pre, struct.cliques, k):
            yield pre, None
        else:
            yield pre, preorder_program(pre, struct.sizes, struct.subsets, k)


def ndm_fpt_decide(g: MixedGraph, k: int, budget: int = DEFAULT_NODE_BUDGET) -> SolveResult:
    """Decide k-colorability by proper-preorder enumeration plus feasibility.

    Solves on the classes of the transitive closure, whose colorings are those
    of g; independent-set types are merged into single representatives. The
    rows of each program from ``ndm_programs`` are searched until one has a
    solution, which is rebuilt into a witness coloring; a screened preorder
    counts in ``preorders`` but is neither built nor searched. The preorders
    with the end sets built to reach them, and each feasibility search's
    nodes, count against ``budget``.
    """
    stats = {"classes": 0, "preorders": 0, "feasibility_nodes": 0}
    if g.n == 0:
        return SolveResult(True, Coloring({}), stats)
    if k < 1:
        return SolveResult(False, None, stats)
    struct = class_structure(g)
    stats["classes"] = len(struct.sizes)
    searched: dict = {}
    witness = None
    for pre, prog in ndm_programs(struct, k, budget):
        stats["preorders"] += 1
        if prog is None:
            continue
        values = search(prog, budget=budget, stats=searched)
        stats["feasibility_nodes"] += searched["nodes"]
        if values is not None:
            witness = coloring_from_preorder_solution(dict(zip(prog.names, values)), pre, struct)
            break
    return SolveResult(witness is not None, witness, stats)


# ---------------------------------------------------------------------------
# inrank-0 branching
# ---------------------------------------------------------------------------

class _BranchingSearch:
    """Decide k-colorability by the inrank-0 recursion over vertex bitmasks.

    A state is the mask of vertices not yet colored, with bit v for vertex v
    as in the graph index; each child colors one maximal independent set of
    the state's sources (vertices without an incoming arc from the state) with
    the next color.
    A state only ever loses sources, so it is closed under arc successors and
    holds every descendant of its vertices: it needs more than j colors as soon
    as it meets ``tall[j]``, the vertices whose descendants need j colors above
    their own (``g.ceiling``). ``nodes`` counts the states visited: expanded,
    or refuted in their parent without children. ``refuted`` maps a visited
    state to the largest color count shown insufficient for it; it stays
    valid across ``decide`` calls with different k, and it holds at most one
    entry per counted node.
    """

    def __init__(self, g: MixedGraph, budget: int, fanout_log: list | None = None):
        self.n = n = g.n
        self.budget = budget
        self.fanout_log = fanout_log
        self.nodes = 0
        self.refuted: dict[int, int] = {}
        self.nbrs = g.nbr_masks
        self.keep = [~(nbrs | 1 << v) for v, nbrs in enumerate(g.nbr_masks)]
        self.arc_in, self.arc_out = g.pred_masks, g.succ_masks
        # tall[j]: vertices of ceiling at least j; j ranges over 0..n
        self.tall = [0] * (n + 2)
        for v in g.vertices:
            self.tall[g.ceiling[v]] |= 1 << v
        for j in range(n, -1, -1):
            self.tall[j] |= self.tall[j + 1]

    def _count(self) -> None:
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExceeded(f"branching exceeded {self.budget} nodes")

    def _dead(self, state: int, j: int) -> bool:
        """Whether two vertices of ``state`` that must take the next color share an edge.

        The state fits under the cut for j colors, and an arc (u, v) gives
        ``ceiling[u] > ceiling[v]``, so a vertex of ceiling j - 1 in it has no
        arc predecessor left: it is a source, and a child that leaves it
        uncolored is cut. A dead state is counted as a node without children
        and refuted for j, as expanding it would have done, from its mask alone.
        """
        must = rest = state & self.tall[j - 1]
        while rest:
            low = rest & -rest
            rest ^= low
            if must & self.nbrs[low.bit_length() - 1]:
                self._count()
                if self.fanout_log is not None:
                    self.fanout_log.append((frozenset(set_bits(state)), 0))
                self.refuted[state] = j
                return True
        return False

    def _expand(self, state: int, sources: int, j: int) -> list:
        """Count a live node and build its frame: state, sources, colors, children, next child.

        The children are the maximal independent sets of the sources that
        contain every vertex of ceiling j - 1 (see ``_dead``), at most one per
        node left in the budget.
        """
        self._count()
        sets = maximal_independent_sets(sources, self.keep, sources & self.tall[j - 1], self.budget - self.nodes)
        children = sorted(sets, key=int.bit_count, reverse=True)
        if self.fanout_log is not None:
            self.fanout_log.append((frozenset(set_bits(state)), len(children)))
        return [state, sources, j, children, 0]

    def decide(self, k: int) -> list[int] | None:
        """Color classes of a coloring with at most k colors, in color order, or None."""
        state = (1 << self.n + 1) - 2  # bits 1..n
        if not state:
            return []
        k = min(k, self.n)
        if k < 1 or state & self.tall[k] or self.refuted.get(state, -1) >= k or self._dead(state, k):
            return None
        arc_in, arc_out = self.arc_in, self.arc_out
        sources = sum(1 << v for v in set_bits(state) if not arc_in[v])
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
            if self.refuted.get(child, -1) >= j - 1 or self._dead(child, j - 1):
                continue
            woke, rest = 0, indep  # the arc successors of indep, which may now be sources
            while rest:
                low = rest & -rest
                rest ^= low
                woke |= arc_out[low.bit_length() - 1]
            child_sources = sources & ~indep
            while woke:
                low = woke & -woke
                woke ^= low
                if not arc_in[low.bit_length() - 1] & child:
                    child_sources |= low
            stack.append(self._expand(child, child_sources, j - 1))
        return None

    def solve(self, k: int) -> SolveResult:
        """``decide`` with its witness coloring and the nodes counted so far."""
        classes = self.decide(k)
        if classes is None:
            return SolveResult(False, None, {"nodes": self.nodes})
        colors = {v: color for color, mask in enumerate(classes, 1) for v in set_bits(mask)}
        return SolveResult(True, Coloring(colors), {"nodes": self.nodes})


def branching_decide(
    g: MixedGraph,
    k: int,
    budget: int = DEFAULT_NODE_BUDGET,
    fanout_log: list | None = None,
) -> SolveResult:
    """Decide k-colorability via chi(G) = 1 + min over inrank-0 maximal
    independent sets I of chi(G - I), as a depth-first search that cuts at k."""
    return _BranchingSearch(g, budget, fanout_log).solve(k)


def branching_chi(
    g: MixedGraph, budget: int = DEFAULT_NODE_BUDGET, fanout_log: list | None = None, stats: dict | None = None
) -> tuple[int, Coloring]:
    """Exact chromatic number by ascending k from ``bounds.bracket``, as every route does.

    All k share one search, so states refuted for a smaller k are not searched again.
    """
    return _ascend(g, _branch_route(g, None, budget, fanout_log), budget, stats)


# ---------------------------------------------------------------------------
# route table and chromatic number wrapper
# ---------------------------------------------------------------------------

def _brute_route(g: MixedGraph, td: TreeDecomposition | None, budget: int) -> Decide:
    def decide(k: int) -> SolveResult:
        stats: dict = {}
        witness = brute_force_decide(g, k, budget, stats)
        return SolveResult(witness is not None, witness, stats)

    return decide


def _twdp_route(g: MixedGraph, td: TreeDecomposition | None, budget: int) -> Decide:
    if td is not None:
        validate_decomposition(td, g)
    nice: list[NiceNode] | None = None

    def decide(k: int) -> SolveResult:
        nonlocal nice
        if nice is None:  # built on the first decide; min-degree validates its own
            nice = make_nice(td if td is not None else min_fill_decomposition(g))
        return tw_dp_decide(g, nice, k, budget)

    return decide


def _ndm_route(g: MixedGraph, td: TreeDecomposition | None, budget: int) -> Decide:
    return lambda k: ndm_fpt_decide(g, k, budget)


def _branch_route(
    g: MixedGraph, td: TreeDecomposition | None, budget: int, fanout_log: list | None = None
) -> Decide:
    search: _BranchingSearch | None = None

    def decide(k: int) -> SolveResult:
        nonlocal search
        if search is None:  # built on the first decide; one search serves every k
            search = _BranchingSearch(g, budget, fanout_log)
        return search.solve(k)

    return decide


# method -> set-up(g, td, budget), run once per graph, returning decide(k); a route's
# search state is built on its first decide, so a bracket that closes builds none;
# td is read by twdp only, and every route counts its work against the budget
ROUTES = {"brute": _brute_route, "twdp": _twdp_route, "ndm": _ndm_route, "branch": _branch_route}
METHODS = tuple(ROUTES)


def chi_exact(
    g: MixedGraph,
    method: str = "branch",
    td: TreeDecomposition | None = None,
    budget: int = DEFAULT_NODE_BUDGET,
    stats: dict | None = None,
) -> tuple[int, Coloring]:
    """Minimum k with a proper k-coloring, via the chosen route.

    Every route ascends k as ``_ascend`` brackets it; ``budget`` bounds every
    decide call and the lower-bound search. brute goes through
    ``brute_force_chi``, capped at ``DEFAULT_BRUTE_CAP`` vertices, and branch
    through ``branching_chi``.
    """
    if method not in ROUTES:
        raise ValueError(f"unknown method {method!r}")
    if method == "brute":
        return brute_force_chi(g, budget=budget, stats=stats)
    if method == "branch":
        return branching_chi(g, budget=budget, stats=stats)
    return _ascend(g, ROUTES[method](g, td, budget), budget, stats)  # set up first: twdp validates a given td
