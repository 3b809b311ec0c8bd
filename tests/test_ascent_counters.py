"""The ascent's counters on the benchmark's seed-1 solve pools.

``perfbench/workloads.py`` builds each solve workload's pool; it is loaded by
path, as ``test_tracer_targets.py`` loads the tracer, and runs here without a
benchmark process. Each pool is pinned by its size, the sum of the ``decides``
that ``chi_exact`` reports and a hash of the chromatic numbers in pool order, so
a change to the ascent's bounds shows as a changed decide count with
unchanged answers. The analysis pool pins the summed gap that
``chromatic_bounds`` leaves, so a change that weakens the bounds fails here
even where no solve route decides more. The bracket closes on every graph of
these pools, so the ascent reaches no route and builds no route's search state;
the routes' own work is pinned by
driving each graph's route set-up at k = chi - 1 and at k = chi. The branch
search's summed nodes and memo entries and the ndm route's preorders and
feasibility nodes are pinned so, and so is the twdp route's work in
``test_twdp_counters.py``; work moved between counted and uncounted states then
shows even where the answers stay the same.
"""

import hashlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from mixedcolor import bounds, graphs, solvers
from mixedcolor.errors import DEFAULT_NODE_BUDGET

from test_tracer_spans import spy

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
SECONDS = 12  # the benchmark's run length, which sizes each pool

# pool: (graphs, decides, sha256 of the comma-joined chromatic numbers, first 16 digits)
PINNED = {
    "dense-twdp": (901, 0, "c0c5ada7a56d5d4f"),
    "ndm-fpt": (725, 0, "a448a48c5d581e79"),
    "sparse-branch": (384, 0, "70516c7d26fb35c9"),
}
# sparse-branch: (summed nodes, summed memo entries) of one branch search per graph
# that decides chi - 1 and chi
BRANCH_WORK = (10_905, 9_183)
# ndm-fpt: (summed preorders, summed feasibility nodes) of the decides at chi - 1 and chi
NDM_WORK = (2_335, 3_298)
# analyze-large: (graphs, summed upper - lower of chromatic_bounds)
ANALYZE_PINNED = (487, 0)


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize("pool", PINNED)
def test_seed_one_pool_counters(workloads, pool, monkeypatch):
    # the route set-ups' search state: the branch search, the twdp decomposition
    # and the ndm class structure's partition
    builds = [
        spy(monkeypatch, solvers._BranchingSearch, "__init__"),
        spy(monkeypatch, solvers, "min_fill_decomposition"),
        spy(monkeypatch, solvers, "closure_neighborhood_partition"),
    ]
    workload = workloads.WORKLOADS[pool]
    texts = workloads.materialize(workload.plan(1, SECONDS))
    chis, decides = [], 0
    for text in texts:
        stats = {}
        chis.append(solvers.chi_exact(graphs.load_graph(io.StringIO(text)), workload.method, stats=stats)[0])
        decides += stats["decides"]
    digest = hashlib.sha256(",".join(map(str, chis)).encode()).hexdigest()[:16]
    assert (len(texts), decides, digest) == PINNED[pool]
    assert [len(calls) for calls in builds] == [0, 0, 0]


def graphs_at_chi(workloads, pool):
    """Each seed-1 graph of ``pool`` with its chromatic number by the pool's method."""
    workload = workloads.WORKLOADS[pool]
    pairs = []
    for text in workloads.materialize(workload.plan(1, SECONDS)):
        g = graphs.load_graph(io.StringIO(text))
        pairs.append((g, solvers.chi_exact(g, workload.method)[0]))
    return pairs


def test_seed_one_branch_work(workloads):
    nodes = memo = 0
    for g, chi in graphs_at_chi(workloads, "sparse-branch"):
        search = solvers._BranchingSearch(g, DEFAULT_NODE_BUDGET)  # one search serves both k
        assert not search.solve(chi - 1).decision and search.solve(chi).decision
        assert len(search.refuted) <= search.nodes  # one memo entry per state at most
        nodes += search.nodes
        memo += len(search.refuted)
    assert (nodes, memo) == BRANCH_WORK


def test_seed_one_ndm_work(workloads):
    preorders = feasibility = 0
    for g, chi in graphs_at_chi(workloads, "ndm-fpt"):
        decide = solvers.ROUTES["ndm"](g, None, DEFAULT_NODE_BUDGET)
        for k in (chi - 1, chi):
            result = decide(k)
            assert result.decision == (k == chi)
            preorders += result.stats["preorders"]
            feasibility += result.stats["feasibility_nodes"]
    assert (preorders, feasibility) == NDM_WORK


def test_seed_one_analyze_bounds_gap(workloads):
    texts = workloads.materialize(workloads.WORKLOADS["analyze-large"].plan(1, SECONDS))
    gap = 0
    for text in texts:
        result = bounds.chromatic_bounds(graphs.load_graph(io.StringIO(text)))
        gap += result.upper - result.lower
    assert (len(texts), gap) == ANALYZE_PINNED
