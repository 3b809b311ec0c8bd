"""The ascent's counters on the benchmark's seed-1 solve pools.

``perfbench/workloads.py`` builds each solve workload's pool; it is loaded by
path, as ``test_tracer_targets.py`` loads the tracer, and runs here without a
benchmark process. Each pool is pinned by its size, the sum of the ``decides``
that ``chi_exact`` reports and a hash of the chromatic numbers in pool order, so
a change to the ascent's bounds shows as a changed decide count with
unchanged answers. The analysis pool pins the summed gap that
``chromatic_bounds`` leaves, so a change that weakens the bounds fails here
even where no solve route decides more. The branch search's summed nodes
and memo entries on its pool are pinned too, so work moved between counted
and uncounted states shows even where the answers stay the same.
"""

import hashlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from mixedcolor import bounds, graphs, solvers
from mixedcolor.errors import DEFAULT_NODE_BUDGET

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
SECONDS = 12  # the benchmark's run length, which sizes each pool

# pool: (graphs, decides, sha256 of the comma-joined chromatic numbers, first 16 digits)
PINNED = {
    "dense-twdp": (901, 18, "c0c5ada7a56d5d4f"),
    "ndm-fpt": (725, 5, "a448a48c5d581e79"),
    "sparse-branch": (384, 47, "70516c7d26fb35c9"),
}
# sparse-branch: (summed nodes, summed memo entries) of the branch ascent
BRANCH_WORK = (2_634, 2_570)
# analyze-large: (graphs, summed upper - lower of chromatic_bounds)
ANALYZE_PINNED = (487, 7)


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
def test_seed_one_pool_counters(workloads, pool):
    workload = workloads.WORKLOADS[pool]
    texts = workloads.materialize(workload.plan(1, SECONDS))
    chis, decides = [], 0
    for text in texts:
        stats = {}
        chis.append(solvers.chi_exact(graphs.load_graph(io.StringIO(text)), workload.method, stats=stats)[0])
        decides += stats["decides"]
    digest = hashlib.sha256(",".join(map(str, chis)).encode()).hexdigest()[:16]
    assert (len(texts), decides, digest) == PINNED[pool]


def test_seed_one_branch_work(workloads):
    texts = workloads.materialize(workloads.WORKLOADS["sparse-branch"].plan(1, SECONDS))
    nodes = memo = 0
    for text in texts:
        g = graphs.load_graph(io.StringIO(text))
        search = solvers._BranchingSearch(g, DEFAULT_NODE_BUDGET)
        solvers._ascend(g, search.solve, None)  # as branching_chi runs it
        assert len(search.refuted) <= search.nodes  # one memo entry per state at most
        nodes += search.nodes
        memo += len(search.refuted)
    assert (nodes, memo) == BRANCH_WORK


def test_seed_one_analyze_bounds_gap(workloads):
    texts = workloads.materialize(workloads.WORKLOADS["analyze-large"].plan(1, SECONDS))
    gap = 0
    for text in texts:
        result = bounds.chromatic_bounds(graphs.load_graph(io.StringIO(text)))
        gap += result.upper - result.lower
    assert (len(texts), gap) == ANALYZE_PINNED
