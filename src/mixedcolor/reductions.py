"""Instance generators: hardness reductions and counterexample families.

Each reduction is paired with a brute-force oracle for its source problem so
reduction correctness is testable end to end. Vertex numbering inside every
generated graph is deterministic and documented per generator.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from .errors import DirectedCycleError
from .graphs import Coloring, MixedGraph, mixed_graph, normalize_edge, set_bits

if TYPE_CHECKING:
    from .expressions import MixedExpression


# ---------------------------------------------------------------------------
# shortest common supersequence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuperstringInstance:
    """Binary strings and a target length k for a common supersequence."""

    strings: tuple[str, ...]
    k: int

    def __post_init__(self) -> None:
        if not self.strings:
            raise ValueError("need at least one string")
        for s in self.strings:
            if not s or set(s) - {"0", "1"}:
                raise ValueError(f"strings must be nonempty over 0/1, got {s!r}")
        if self.k < 1:
            raise ValueError("target length must be positive")


def is_supersequence(sup: str, s: str) -> bool:
    """True iff s can be obtained from sup by deleting characters."""
    it = iter(sup)
    return all(ch in it for ch in s)


def superstring_exists(strings: tuple[str, ...], k: int) -> bool:
    """Brute force over all binary strings of length exactly k."""
    if max(len(s) for s in strings) > k:
        return False
    for bits in itertools.product("01", repeat=k):
        sup = "".join(bits)
        if all(is_supersequence(sup, s) for s in strings):
            return True
    return False


def reduce_superstring(inst: SuperstringInstance, split: bool = False) -> tuple[MixedGraph, int]:
    """Mixed graph whose proper k-colorings encode length-k supersequences.

    Unsplit: one directed path of character vertices per string (numbered
    string by string, character by character), plus edges between vertices of
    different paths carrying different characters. Split: every character
    vertex becomes an in/out sibling pair tied together through a private
    (k-1)-clique, leaving maxrank 1; numbering per character is in-sibling,
    out-sibling, then the clique vertices.
    """
    k = inst.k
    edges: list[tuple[int, int]] = []
    arcs: list[tuple[int, int]] = []
    chars: list[list[tuple[int, ...]]] = []  # per string, per character: its vertices
    nxt = 1
    for s in inst.strings:
        verts: list[tuple[int, ...]] = []
        for _ in s:
            if split:
                clique = list(range(nxt + 2, nxt + 1 + k))
                edges += [(a, b) for x, a in enumerate(clique) for b in clique[x + 1:]]
                edges += [(sib, c) for sib in (nxt, nxt + 1) for c in clique]
                verts.append((nxt, nxt + 1))
                nxt += 1 + k
            else:
                verts.append((nxt,))
                nxt += 1
        arcs += [(prev[-1], cur[0]) for prev, cur in zip(verts, verts[1:])]
        chars.append(verts)
    for a, b in itertools.combinations(range(len(inst.strings)), 2):
        for ca, us in zip(inst.strings[a], chars[a]):
            for cb, vs in zip(inst.strings[b], chars[b]):
                if ca != cb:
                    edges += [(u, v) for u in us for v in vs]
    return mixed_graph(nxt - 1, edges, arcs), k


def superstring_coloring(inst: SuperstringInstance, sup: str) -> Coloring:
    """Coloring of the unsplit reduction induced by a supersequence.

    Character vertices take the positions of the leftmost embedding of their
    string into ``sup``.
    """
    colors: dict[int, int] = {}
    nxt = 1
    for s in inst.strings:
        pos = 0
        for ch in s:
            while sup[pos] != ch:
                pos += 1
            colors[nxt] = pos + 1
            nxt += 1
            pos += 1
    return Coloring(colors)


def split_superstring_expression(inst: SuperstringInstance) -> tuple[MixedExpression, list[int]]:
    """Six-label expression evaluating to the split reduction graph.

    Returns the expression and its introduce order as vertex ids of
    ``reduce_superstring(inst, split=True)``. Labels: 1/2 finished character
    vertices for characters 0/1, 3 finished cliques, 4 the clique under
    construction, 5 the incoming sibling, 6 the outgoing sibling; a finished
    path is shifted to labels 4..6 while cross-path edges are added.
    """
    # here, not at module level: generating a graph needs no expressions
    from .expressions import AddArc, AddEdge, Introduce, Relabel, Union

    k = inst.k
    char_label = {"0": 1, "1": 2}
    order: list[int] = []

    def clique_expr(vertices: list[int]) -> MixedExpression | None:
        # clique on the active label 4, scratch label 5 (disjoint subtree)
        expr: MixedExpression | None = None
        for v in vertices:
            order.append(v)
            piece: MixedExpression = Introduce(5)
            grown = piece if expr is None else Union(expr, piece)
            expr = Relabel(5, 4, AddEdge(4, 5, grown))
        return expr

    def path_expr(s: str, base: int) -> MixedExpression:
        expr: MixedExpression | None = None
        prev_char = None
        for idx, ch in enumerate(s):
            in_sib = base + idx * (k + 1)
            out_sib = in_sib + 1
            clique = list(range(in_sib + 2, in_sib + 2 + (k - 1)))
            order.append(in_sib)
            if expr is None:
                expr = Introduce(5)
            else:
                expr = Union(expr, Introduce(5))
                expr = AddArc(6, 5, expr)  # arc from the previous outgoing sibling
                expr = Relabel(6, prev_char, expr)  # previous pair is done
            built = clique_expr(clique)
            if built is not None:
                expr = Union(expr, built)
                expr = AddEdge(5, 4, expr)
            expr = Relabel(5, char_label[ch], expr)
            order.append(out_sib)
            expr = Union(expr, Introduce(6))
            if built is not None:
                expr = AddEdge(6, 4, expr)
                expr = Relabel(4, 3, expr)  # clique complete
            if idx == len(s) - 1:
                expr = Relabel(6, char_label[ch], expr)
            prev_char = char_label[ch]
        return expr

    exprs: list[MixedExpression] = []
    base = 1
    for s in inst.strings:
        exprs.append(path_expr(s, base))
        base += len(s) * (k + 1)
    combined = exprs[0]
    for nxt_expr in exprs[1:]:
        # shift the new path's labels clear of the existing graph, union,
        # connect differing characters, then fold the labels back
        shifted = Relabel(1, 4, nxt_expr)
        shifted = Relabel(2, 5, shifted)
        shifted = Relabel(3, 6, shifted)
        combined = Union(combined, shifted)
        combined = AddEdge(1, 5, combined)  # old char 0 vs new char 1
        combined = AddEdge(2, 4, combined)  # old char 1 vs new char 0
        combined = Relabel(4, 1, combined)
        combined = Relabel(5, 2, combined)
        combined = Relabel(6, 3, combined)
    return combined, order


# ---------------------------------------------------------------------------
# precedence constrained scheduling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchedulingInstance:
    """Unit tasks on two dedicated machines with precedence and a deadline."""

    tasks_m1: tuple[str, ...]
    tasks_m2: tuple[str, ...]
    precedence: tuple[tuple[str, str], ...]
    deadline: int

    def __post_init__(self) -> None:
        tasks = set(self.tasks_m1) | set(self.tasks_m2)
        if len(self.tasks_m1) + len(self.tasks_m2) != len(tasks):
            raise ValueError("task names must be distinct across machines")
        if self.deadline < 1:
            raise ValueError("deadline must be positive")
        for a, b in self.precedence:
            if a not in tasks or b not in tasks:
                raise ValueError(f"precedence over unknown task ({a},{b})")
            if a == b:
                raise ValueError("precedence must be irreflexive")
        self.closed_precedence  # rejects a cyclic precedence

    def all_tasks(self) -> tuple[str, ...]:
        return self.tasks_m1 + self.tasks_m2

    @cached_property
    def closed_precedence(self) -> frozenset[tuple[str, str]]:
        """Transitive closure of the given pairs, read from the reachability
        of the precedence digraph on task indices 1..n; raises on a cycle."""
        tasks = self.all_tasks()
        index = {t: i for i, t in enumerate(tasks, start=1)}
        try:
            desc = mixed_graph(len(tasks), arcs=[(index[a], index[b]) for a, b in self.precedence]).desc_masks
        except DirectedCycleError as exc:
            raise ValueError("precedence contains a cycle") from exc
        return frozenset((t, tasks[j - 1]) for i, t in enumerate(tasks, start=1) for j in set_bits(desc[i]))


def schedule_exists(inst: SchedulingInstance) -> bool:
    """Brute force over all start-time assignments in [0, deadline)."""
    tasks = inst.all_tasks()
    machine = {t: 1 for t in inst.tasks_m1}
    machine.update({t: 2 for t in inst.tasks_m2})
    prec = inst.closed_precedence
    for starts in itertools.product(range(inst.deadline), repeat=len(tasks)):
        sigma = dict(zip(tasks, starts))
        ok = True
        for m in (1, 2):
            slots = [sigma[t] for t in tasks if machine[t] == m]
            if len(slots) != len(set(slots)):
                ok = False
                break
        if ok and all(sigma[a] + 1 <= sigma[b] for a, b in prec):
            return True
    return False


def reduce_scheduling(inst: SchedulingInstance) -> tuple[MixedGraph, int]:
    """The 4D-coloring instance: a 4D-path plus one start/end vertex pair per
    task, congruence-class edges into the path, precedence arcs, and edges
    making the task vertices an underlying clique.

    Vertices 1..4D are the path; then per task (machine-1 tasks first, in
    input order) the start vertex and end vertex.
    """
    d = inst.deadline
    path_len = 4 * d
    edges: list[tuple[int, int]] = []
    arcs: list[tuple[int, int]] = [(i, i + 1) for i in range(1, path_len)]
    tasks = inst.all_tasks()
    start_of: dict[str, int] = {}
    end_of: dict[str, int] = {}
    nxt = path_len + 1
    for t in tasks:
        start_of[t], end_of[t] = nxt, nxt + 1
        arcs.append((nxt, nxt + 1))
        nxt += 2
    # congruence classes: machine 1 starts in [1]_4, ends in [3]_4;
    # machine 2 starts in [2]_4, ends in [0]_4
    residue = {}
    for t in inst.tasks_m1:
        residue[start_of[t]] = 1
        residue[end_of[t]] = 3
    for t in inst.tasks_m2:
        residue[start_of[t]] = 2
        residue[end_of[t]] = 0
    for v, r in residue.items():
        for i in range(1, path_len + 1):
            if i % 4 != r:
                edges.append((v, i))
    for a, b in inst.closed_precedence:
        arcs.append((end_of[a], start_of[b]))
    arc_pairs = {normalize_edge(u, v) for u, v in arcs}
    # the task vertices are path_len + 1 .. nxt - 1, in id order
    for u, v in itertools.combinations(range(path_len + 1, nxt), 2):
        if (u, v) not in arc_pairs:
            edges.append((u, v))
    return mixed_graph(nxt - 1, edges, arcs), 4 * d


# ---------------------------------------------------------------------------
# list coloring
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ListColoringInstance:
    """Undirected graph with per-vertex color lists out of 1..num_colors."""

    graph: MixedGraph
    lists: dict[int, frozenset[int]]
    num_colors: int

    def __post_init__(self) -> None:
        if self.graph.arcs:
            raise ValueError("list coloring instances are undirected")
        if set(self.lists) != set(self.graph.vertices):
            raise ValueError("lists must cover exactly the vertex set")
        for v, colors in self.lists.items():
            if not colors or not colors <= set(range(1, self.num_colors + 1)):
                raise ValueError(f"list of vertex {v} not a nonempty subset of [{self.num_colors}]")


def list_coloring_exists(inst: ListColoringInstance) -> bool:
    """Backtracking over vertices in id order, colors in list order."""
    vs = sorted(inst.graph.vertices)
    adj = inst.graph.nbr_masks
    assignment: dict[int, int] = {}

    def extend(i: int) -> bool:
        if i == len(vs):
            return True
        v = vs[i]
        taken = {assignment[u] for u in set_bits(adj[v]) if u in assignment}
        for color in sorted(inst.lists[v]):
            if color in taken:
                continue
            assignment[v] = color
            if extend(i + 1):
                return True
            del assignment[v]
        return False

    return extend(0)


def reduce_list_coloring(inst: ListColoringInstance) -> tuple[MixedGraph, int]:
    """Enforce color lists with blocker paths: for every forbidden color j of
    vertex v, a fresh directed path of num_colors vertices whose j-th vertex
    is tied to v by an edge.

    Original vertices keep their ids; blocker paths are appended vertex block
    by vertex block, vertices in id order, forbidden colors ascending.
    """
    ell = inst.num_colors
    edges = [tuple(e) for e in inst.graph.edges]
    arcs: list[tuple[int, int]] = []
    nxt = inst.graph.n + 1
    for v in sorted(inst.graph.vertices):
        for j in sorted(set(range(1, ell + 1)) - inst.lists[v]):
            path = list(range(nxt, nxt + ell))
            nxt += ell
            arcs += [(path[i], path[i + 1]) for i in range(ell - 1)]
            edges.append((v, path[j - 1]))
    return mixed_graph(nxt - 1, edges, arcs), ell


# ---------------------------------------------------------------------------
# multicolored clique
# ---------------------------------------------------------------------------

def multicolored_clique_exists(g: MixedGraph, classes: tuple[frozenset[int], ...]) -> bool:
    """Exhaustive search for one vertex per class forming a clique."""
    if g.arcs:
        raise ValueError("multicolored clique instances are undirected")
    for pick in itertools.product(*(sorted(c) for c in classes)):
        if all(
            normalize_edge(a, b) in g.edges
            for i, a in enumerate(pick)
            for b in pick[i + 1:]
        ):
            return True
    return False


def reduce_multicolored_clique(
    g: MixedGraph, classes: tuple[frozenset[int], ...]
) -> ListColoringInstance:
    """The list-coloring instance with one class vertex per color class and
    one edge vertex per non-adjacent cross-class pair.

    Colors are the vertex ids of g. Class vertex i gets list = class i; the
    edge vertex for a pair {x, y} is adjacent to both class vertices and gets
    list {x, y}. Class vertices are 1..len(classes), edge vertices follow in
    lexicographic pair order.
    """
    if g.arcs:
        raise ValueError("multicolored clique instances are undirected")
    cover = set().union(*classes) if classes else set()
    if cover != set(g.vertices) or sum(len(c) for c in classes) != g.n:
        raise ValueError("classes must partition the vertex set")
    ell = len(classes)
    lists: dict[int, frozenset[int]] = {}
    for i, cls in enumerate(classes):
        lists[i + 1] = frozenset(cls)
    edges: list[tuple[int, int]] = []
    nxt = ell + 1
    pairs = []
    for i in range(ell):
        for j in range(i + 1, ell):
            for x in sorted(classes[i]):
                for y in sorted(classes[j]):
                    if normalize_edge(x, y) not in g.edges:
                        pairs.append((i + 1, j + 1, x, y))
    for ci, cj, x, y in pairs:
        lists[nxt] = frozenset((x, y))
        edges.append((ci, nxt))
        edges.append((cj, nxt))
        nxt += 1
    graph = mixed_graph(nxt - 1, edges)
    return ListColoringInstance(graph, lists, g.n)


# ---------------------------------------------------------------------------
# counterexample families
# ---------------------------------------------------------------------------

def _grid_ids(ell: int) -> dict[tuple[int, int], int]:
    return {(r, c): (r - 1) * ell + c for r in range(1, ell + 1) for c in range(1, ell + 1)}


def _grid_edges(ell: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    pairs = []
    for r in range(1, ell + 1):
        for c in range(1, ell + 1):
            if c < ell:
                pairs.append(((r, c), (r, c + 1)))
            if r < ell:
                pairs.append(((r, c), (r + 1, c)))
    return pairs


def family_oriented_grid(ell: int) -> MixedGraph:
    """Grid oriented right/down, all remaining pairs filled with edges.

    The underlying graph is complete; the arcs carry the grid.
    """
    if ell < 1:
        raise ValueError("need ell >= 1")
    ids = _grid_ids(ell)
    arcs = [(ids[a], ids[b]) for a, b in _grid_edges(ell)]
    arc_pairs = {normalize_edge(u, v) for u, v in arcs}
    n = ell * ell
    edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if (u, v) not in arc_pairs
    ]
    return mixed_graph(n, edges, arcs)


def family_hamiltonian_tournament(ell: int) -> MixedGraph:
    """Complete graph with a directed Hamiltonian path 1 -> 2 -> ... -> ell
    and every other pair joined by an edge."""
    if ell < 1:
        raise ValueError("need ell >= 1")
    arcs = [(i, i + 1) for i in range(1, ell)]
    edges = [
        (u, v) for u in range(1, ell + 1) for v in range(u + 1, ell + 1) if v != u + 1
    ]
    return mixed_graph(ell, edges, arcs)


def family_layered_cliques(ell: int, k: int) -> MixedGraph:
    """ell+1 stacked copies of K_k with complete arc bundles between
    consecutive copies; layer i holds vertices i*k+1 .. (i+1)*k."""
    if ell < 0 or k < 1:
        raise ValueError("need ell >= 0 and k >= 1")
    edges: list[tuple[int, int]] = []
    arcs: list[tuple[int, int]] = []
    for layer in range(ell + 1):
        vs = [layer * k + j + 1 for j in range(k)]
        edges += [(u, v) for i, u in enumerate(vs) for v in vs[i + 1:]]
        if layer < ell:
            nxt = [(layer + 1) * k + j + 1 for j in range(k)]
            arcs += [(u, v) for u in vs for v in nxt]
    return mixed_graph((ell + 1) * k, edges, arcs)


def family_tripartite(ell: int) -> MixedGraph:
    """Three independent sets u_i, v_i, w_i with complete arc bundles
    u -> v -> w, one pin vertex per set joined by edges, and the diagonal
    arcs (u_i, w_i). Ids: u_i = i, v_i = ell+i, w_i = 2*ell+i, then the
    three pins."""
    if ell < 1:
        raise ValueError("need ell >= 1")
    u = lambda i: i
    v = lambda i: ell + i
    w = lambda i: 2 * ell + i
    u_star, v_star, w_star = 3 * ell + 1, 3 * ell + 2, 3 * ell + 3
    arcs = [(u(i), v(j)) for i in range(1, ell + 1) for j in range(1, ell + 1)]
    arcs += [(v(i), w(j)) for i in range(1, ell + 1) for j in range(1, ell + 1)]
    arcs += [(u(i), w(i)) for i in range(1, ell + 1)]
    edges = [(u(i), u_star) for i in range(1, ell + 1)]
    edges += [(v(i), v_star) for i in range(1, ell + 1)]
    edges += [(w(i), w_star) for i in range(1, ell + 1)]
    return mixed_graph(3 * ell + 3, edges, arcs)


def family_grid_arc_vertices(ell: int) -> MixedGraph:
    """Independent grid vertices whose adjacencies are rebuilt, in the
    closure, through one arc vertex per grid edge; every arc vertex is
    edge-joined to all grid vertices except its two arc partners.

    Grid edges are oriented from even to odd checkerboard parity, so every
    grid vertex is a pure source or pure sink and the closure adds exactly
    the grid adjacencies and nothing longer. Grid vertices are 1..ell^2
    (row major); arc vertices follow in grid-edge order (right edge before
    down edge per cell)."""
    if ell < 2:
        raise ValueError("need ell >= 2")
    ids = _grid_ids(ell)
    n_grid = ell * ell
    edges: list[tuple[int, int]] = []
    arcs: list[tuple[int, int]] = []
    nxt = n_grid + 1
    for a, b in _grid_edges(ell):
        src, dst = (a, b) if sum(a) % 2 == 0 else (b, a)
        x = nxt
        nxt += 1
        arcs.append((ids[src], x))
        arcs.append((x, ids[dst]))
        for gv in range(1, n_grid + 1):
            if gv not in (ids[a], ids[b]):
                edges.append((x, gv))
    return mixed_graph(nxt - 1, edges, arcs)


def family_oriented_star(ell: int) -> MixedGraph:
    """Star with ell arcs in and ell arcs out of the center: u_i = i,
    center = ell+1, w_i = ell+1+i."""
    if ell < 1:
        raise ValueError("need ell >= 1")
    center = ell + 1
    arcs = [(i, center) for i in range(1, ell + 1)]
    arcs += [(center, center + i) for i in range(1, ell + 1)]
    return mixed_graph(2 * ell + 1, (), arcs)


def family_grid_hamiltonian(ell: int) -> MixedGraph:
    """Grid with the boustrophedon Hamiltonian path oriented along the snake;
    all other grid edges stay undirected."""
    if ell < 1:
        raise ValueError("need ell >= 1")
    ids = _grid_ids(ell)
    snake: list[int] = []
    for r in range(1, ell + 1):
        cols = range(1, ell + 1) if r % 2 == 1 else range(ell, 0, -1)
        snake += [ids[(r, c)] for c in cols]
    path_pairs = {normalize_edge(snake[i], snake[i + 1]) for i in range(len(snake) - 1)}
    arcs = [(snake[i], snake[i + 1]) for i in range(len(snake) - 1)]
    edges = [
        (ids[a], ids[b])
        for a, b in _grid_edges(ell)
        if normalize_edge(ids[a], ids[b]) not in path_pairs
    ]
    return mixed_graph(ell * ell, edges, arcs)


FAMILIES = {
    "oriented_grid": (family_oriented_grid, 1),
    "hamiltonian_tournament": (family_hamiltonian_tournament, 1),
    "layered_cliques": (family_layered_cliques, 2),
    "tripartite": (family_tripartite, 1),
    "grid_arc_vertices": (family_grid_arc_vertices, 1),
    "oriented_star": (family_oriented_star, 1),
    "grid_hamiltonian": (family_grid_hamiltonian, 1),
}


# ---------------------------------------------------------------------------
# random corpus
# ---------------------------------------------------------------------------

def random_mixed_graph(rng: random.Random, n: int, edge_p: float, arc_p: float) -> MixedGraph:
    """Random valid mixed graph; arcs follow a hidden random topological order,
    so the result never contains a directed cycle. Each pair is an edge with
    probability ``edge_p`` and an arc with ``arc_p``; a probability outside
    [0, 1], or two that sum past 1, raises ValueError."""
    for name, p in (("edge_p", edge_p), ("arc_p", arc_p)):
        if not 0 <= p <= 1:
            raise ValueError(f"{name} must lie in [0, 1], not {p}")
    if edge_p + arc_p > 1:
        raise ValueError(f"edge_p + arc_p must be at most 1, not {edge_p + arc_p:g}")
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    pos = {v: i for i, v in enumerate(perm)}
    edges: list[tuple[int, int]] = []
    arcs: list[tuple[int, int]] = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            r = rng.random()
            if r < edge_p:
                edges.append((u, v))
            elif r < edge_p + arc_p:
                arcs.append((u, v) if pos[u] < pos[v] else (v, u))
    return mixed_graph(n, edges, arcs)
