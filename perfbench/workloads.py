"""Seeded instance pools and the one-operation functions of each workload.

Each workload has a fixed suite of graphs: family members and ``gnm``
random graphs (exactly ``m`` edges and ``a`` arcs on ``n`` vertices, arcs
oriented along a hidden random order) drawn from fixed generator seeds. The
run's ``--seed`` renumbers the vertices of every random graph and shuffles
them, so each seed gives other inputs of the same structure. Drawing
fresh random graphs per seed made one seed's pool cost up to a third more
than another's, which no benchmark bound could absorb; renumbering keeps the
label-dependent tie-breaking of the solvers in play at a cost spread of a few
percent.
"""

from __future__ import annotations

import io
import random
from dataclasses import dataclass

from mixedcolor import bounds, expressions, graphs, partitions, reductions, solvers


@dataclass
class Spec:
    """How to build one instance; ``chi`` is filled in when it is known."""

    name: str
    generator: str
    params: dict
    relabel: str | None  # seed of the vertex renumbering, None to keep the ids
    chi: int | None = None


def gnm(seed: str, n: int, m: int, a: int) -> graphs.MixedGraph:
    rng = random.Random(seed)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    pos = {v: i for i, v in enumerate(order)}
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    picked = rng.sample(pairs, m + a)
    arcs = [(u, v) if pos[u] < pos[v] else (v, u) for u, v in picked[m:]]
    return graphs.mixed_graph(n, picked[:m], arcs)


def fallback_trap(paths: int) -> graphs.MixedGraph:
    """Two-relation paths (an edge and an arc meeting at a center) and a 5-cycle.

    The centers and the 5-cycle have degree 2 and the lowest ids, so the
    ``chi_u`` search colors them first. Refuting a 2-coloring then retries
    both colors of every center before the 5-cycle fails again, so from
    about 22 paths on the search exhausts its node budget and the lower bound
    falls back to the clique number. Vertex cover and the other steps stay
    linear on this graph.
    """
    edges, arcs = [], []
    for c in range(1, paths + 1):
        leaf = paths + 4 + 2 * c
        edges.append((c, leaf))
        arcs.append((leaf + 1, c))
    b = paths
    edges += [(b + 1, b + 2), (b + 2, b + 3), (b + 3, b + 4), (b + 4, b + 5), (b + 1, b + 5)]
    return graphs.mixed_graph(3 * paths + 5, edges, arcs)


FAMILIES = {name: func for name, (func, _) in reductions.FAMILIES.items()}


def build(spec: Spec) -> graphs.MixedGraph:
    if spec.generator == "gnm":
        g = gnm(**spec.params)
    elif spec.generator == "fallback_trap":
        g = fallback_trap(**spec.params)
    else:
        g = FAMILIES[spec.generator](*spec.params["args"])
    return relabel(g, spec.relabel) if spec.relabel else g


def relabel(g: graphs.MixedGraph, seed: str) -> graphs.MixedGraph:
    """The same graph with its vertices renumbered by a seeded permutation."""
    perm = list(g.vertices)
    random.Random(seed).shuffle(perm)
    new = dict(zip(g.vertices, perm))
    return graphs.mixed_graph(
        g.n, [(new[u], new[v]) for u, v in g.edges], [(new[u], new[v]) for u, v in g.arcs]
    )


def serialize(g: graphs.MixedGraph) -> str:
    out = io.StringIO()
    graphs.save_graph(g, out)
    return out.getvalue()


def materialize(specs: list[Spec]) -> list[str]:
    """Generate and serialize every instance: the timed part of set-up."""
    return [serialize(build(spec)) for spec in specs]


def _family(name: str, *args: int) -> Spec:
    # family members keep their ids: the exponential searches break ties by
    # vertex id, and some renumberings of these graphs take minutes
    return Spec(f"{name}-{'-'.join(map(str, args))}", name, {"args": list(args)}, None)


def _random(seed: int, prefix: str, n: int, edge_share: float, arc_share: float, count: int) -> list[Spec]:
    """``count`` suite graphs with the given shares of all vertex pairs, shuffled."""
    pairs = n * (n - 1) // 2
    m, a = round(edge_share * pairs), round(arc_share * pairs)
    specs = [
        Spec(f"{prefix}-n{n}-{i}", "gnm", {"seed": f"{prefix}:{n}:{i}", "n": n, "m": m, "a": a},
             relabel=f"{seed}:{prefix}:{n}:{i}")
        for i in range(count)
    ]
    random.Random(f"{prefix}:{seed}").shuffle(specs)
    return specs


def _around(fixed: list[Spec], rand: list[Spec]) -> list[Spec]:
    """The fixed graphs in the middle of the random ones.

    Calibrations from both sides then scale the fixed graphs, which include
    the longest operations of a pass.
    """
    half = len(rand) // 2
    return rand[:half] + fixed + rand[half:]


# Suite sizes are instances per second of run time: one pass over the pool
# takes about --seconds at the speed this benchmark was sized on, and a run
# makes exactly one pass, so no instance repeats within a run.

def plan_ndm_fpt(seed: int, seconds: float) -> list[Spec]:
    family = [_family("tripartite", ell) for ell in range(6, 1, -1)]
    return _around(family, _random(seed, "ndm", 8, 0.3, 0.2, round(60 * seconds)))


def plan_sparse_branch(seed: int, seconds: float) -> list[Spec]:
    count = round(16 * seconds)
    specs = _random(seed, "branch", 22, 0.15, 0.05, count) + _random(seed, "branch", 24, 0.15, 0.05, count)
    random.Random(f"branch:{seed}").shuffle(specs)
    return specs


def plan_dense_twdp(seed: int, seconds: float) -> list[Spec]:
    # layered_cliques(2, 4) needs twelve colors on twelve vertices: one fixed
    # DP with about 90 MB of tables in every run
    anchor = _family("layered_cliques", 2, 4)
    return _around([anchor], _random(seed, "twdp", 11, 0.3, 0.2, round(75 * seconds)))


ANALYZE_FAMILIES = [
    ("oriented_grid", 12),
    ("hamiltonian_tournament", 150),
    ("tripartite", 60),
    ("grid_hamiltonian", 20),
    ("oriented_star", 150),
    ("grid_arc_vertices", 6),
]


def plan_analyze_large(seed: int, seconds: float) -> list[Spec]:
    # The trap exhausts the chi_u budget, so every run measures the budget
    # fallback exactly once.
    fixed = [Spec("fallback_trap-24", "fallback_trap", {"paths": 24}, None)]
    fixed += [_family(name, arg) for name, arg in ANALYZE_FAMILIES]
    # Random graphs of average underlying degree 3.5. Above about 60 vertices
    # some graphs make the chi_u search run for seconds, and one such graph
    # would decide a whole run; the trap above measures that search instead.
    share = 3.5 / 49
    return _around(fixed, _random(seed, "analyze", 50, 0.7 * share, 0.3 * share, round(40 * seconds)))


# ---------------------------------------------------------------------------
# operations: serialized graph text -> answer, as the command line would do it
# ---------------------------------------------------------------------------

def solve(text: str, method: str):
    g = graphs.load_graph(io.StringIO(text))
    return solvers.chi_exact(g, method)


def analyze(text: str):
    g = graphs.load_graph(io.StringIO(text))
    mixed = partitions.mixed_neighborhood_partition(g)
    undirected = partitions.undirected_neighborhood_partition(g)
    cover = partitions.vertex_cover_number(g)
    omega = partitions.clique_number(g)
    rank = graphs.maxrank(g)
    chrom = bounds.chromatic_bounds(g)
    expr = expressions.ndm_expression(g)
    w = expressions.width(expr)
    labeled = expressions.evaluate(expr)
    return mixed, undirected, cover, omega, rank, chrom, w, labeled


def summarize_solve(result) -> dict:
    chi, witness = result
    return {"chi": chi, "colors": {str(v): c for v, c in witness.colors.items()}}


def summarize_analyze(result) -> dict:
    mixed, undirected, (vc, cover), omega, rank, chrom, w, labeled = result
    out = labeled.graph
    return {
        "mixed": [sorted(c) for c in mixed.classes],
        "undirected": [sorted(c) for c in undirected.classes],
        "vc": vc,
        "cover": sorted(cover),
        "omega": omega,
        "maxrank": rank,
        "lower": chrom.lower,
        "upper": chrom.upper,
        "colors": {str(v): c for v, c in chrom.upper_witness.colors.items()},
        "width": w,
        "expr_graph": {"n": out.n, "edges": sorted(out.edges), "arcs": sorted(out.arcs)},
    }


@dataclass(frozen=True)
class Workload:
    plan: object
    method: str | None  # chi_exact route, or None for the analysis path


WORKLOADS = {
    "ndm-fpt": Workload(plan_ndm_fpt, "ndm"),
    "sparse-branch": Workload(plan_sparse_branch, "branch"),
    "dense-twdp": Workload(plan_dense_twdp, "twdp"),
    "analyze-large": Workload(plan_analyze_large, None),
}
