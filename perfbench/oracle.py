"""Answer checks that share no code with the solvers under test.

The reference chromatic number comes from a big-M integer program solved by
HiGHS through ``scipy.optimize.milp``; properness and the structural checks
are plain loops over the parsed relations.

Run as a script, it reads a JSON list of graph texts from stdin and prints
the JSON list of their reference chromatic numbers.
"""

from __future__ import annotations

import json
import sys

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import coo_matrix


def parse(text: str) -> tuple[int, list[tuple[int, int]], list[tuple[int, int]]]:
    """Vertex count, edges and arcs of a graph file, without the package parser."""
    n, edges, arcs = 0, [], []
    for line in text.splitlines():
        parts = line.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "p":
            n = int(parts[2])
        elif parts[0] == "e":
            edges.append((int(parts[1]), int(parts[2])))
        elif parts[0] == "a":
            arcs.append((int(parts[1]), int(parts[2])))
    return n, edges, arcs


def topological(n: int, arcs) -> list[int]:
    indeg = [0] * (n + 1)
    out: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in arcs:
        out[u].append(v)
        indeg[v] += 1
    stack = [v for v in range(n, 0, -1) if indeg[v] == 0]
    order = []
    while stack:
        v = stack.pop()
        order.append(v)
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                stack.append(w)
    if len(order) != n:
        raise ValueError("arcs contain a directed cycle")
    return order


def longest_path(n: int, arcs) -> int:
    """Number of arcs on a longest directed path."""
    rank = [0] * (n + 1)
    preds: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in arcs:
        preds[v].append(u)
    for v in topological(n, arcs):
        rank[v] = max((rank[u] + 1 for u in preds[v]), default=0)
    return max(rank[1:], default=0)


def greedy_colors(n: int, edges, arcs) -> int:
    """Colors used by a first-fit proper coloring in topological order."""
    nbrs: list[list[int]] = [[] for _ in range(n + 1)]
    preds: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    for u, v in arcs:
        preds[v].append(u)
    color = [0] * (n + 1)
    for v in topological(n, arcs):
        c = max((color[u] for u in preds[v]), default=0) + 1
        taken = {color[u] for u in nbrs[v]}
        while c in taken:
            c += 1
        color[v] = c
    return max(color[1:], default=0)


def reference_chi(text: str) -> int:
    """Minimum largest color of a proper coloring, by integer programming.

    Variables are one color per vertex, the largest color ``z`` and one order
    bit per edge; an edge's two colors differ by at least one in the direction
    its bit picks. Any proper coloring can be renumbered onto 1..k without
    changing the order of its colors, so the optimum of ``z`` is the chromatic
    number.
    """
    n, edges, arcs = parse(text)
    if n == 0:
        return 0
    big = greedy_colors(n, edges, arcs)
    m = len(edges)
    nvars = n + 1 + m  # colors 0..n-1, z at n, edge bits after
    rows, cols, vals, lo, hi = [], [], [], [], []

    def row(entries, lower, upper):
        r = len(lo)
        for col, val in entries:
            rows.append(r)
            cols.append(col)
            vals.append(val)
        lo.append(lower)
        hi.append(upper)

    for v in range(n):
        row([(v, 1), (n, -1)], -np.inf, 0)
    for u, v in arcs:
        row([(u - 1, 1), (v - 1, -1)], -np.inf, -1)
    for e, (u, v) in enumerate(edges):
        bit = n + 1 + e
        row([(u - 1, 1), (v - 1, -1), (bit, -big)], 1 - big, np.inf)
        row([(v - 1, 1), (u - 1, -1), (bit, big)], 1, np.inf)
    cost = np.zeros(nvars)
    cost[n] = 1
    lower = np.concatenate([np.ones(n + 1), np.zeros(m)])
    upper = np.concatenate([np.full(n + 1, big), np.ones(m)])
    constraints = []
    if lo:
        matrix = coo_matrix((vals, (rows, cols)), shape=(len(lo), nvars)).tocsr()
        constraints.append(LinearConstraint(matrix, lo, hi))
    # HiGHS presolve returns a wrong optimum on some of these big-M models
    # (8 for a 7-colorable 12-vertex graph), so it is switched off
    res = milp(cost, integrality=np.ones(nvars), bounds=Bounds(lower, upper),
               constraints=constraints, options={"presolve": False})
    if res.status != 0:
        raise RuntimeError(f"reference solver failed: {res.message}")
    return int(round(res.fun))


def proper_violation(text: str, colors: dict[int, int]) -> str | None:
    """The first relation a coloring breaks, or None when it is proper."""
    n, edges, arcs = parse(text)
    if sorted(colors) != list(range(1, n + 1)):
        return "coloring does not cover exactly the vertices"
    if any(c < 1 for c in colors.values()):
        return "non-positive color"
    for u, v in edges:
        if colors[u] == colors[v]:
            return f"edge {u}-{v} has equal colors"
    for u, v in arcs:
        if not colors[u] < colors[v]:
            return f"arc {u}->{v} does not increase"
    return None


if __name__ == "__main__":
    json.dump([reference_chi(text) for text in json.load(sys.stdin)], sys.stdout)
