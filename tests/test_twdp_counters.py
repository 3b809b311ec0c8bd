"""The twdp route's nice steps and DP tables on the benchmark's dense-twdp pool.

The seed-1 pool is built as ``test_ascent_counters.py`` builds it, from
``perfbench/workloads.py`` loaded by path. ``solvers.make_nice`` and
``solvers.tw_dp_decide`` are wrapped to sum the nice steps, the joins among
them and the table entries of every decide, and the width of every graph's
decomposition, so a change that brings back bags nested in a neighbor (more
steps, more joins, more entries) or a heuristic that grows the bags shows here.
"""

import io
from collections import Counter

from mixedcolor import graphs, solvers

from test_ascent_counters import SECONDS, workloads  # noqa: F401 (a fixture)

# (nice steps, joins, table entries) over every decide of the pool, and the
# decompositions' summed width
PINNED = (567, 19, 4_219, 91)


def test_seed_one_dense_twdp_steps_and_tables(workloads, monkeypatch):  # noqa: F811
    workload = workloads.WORKLOADS["dense-twdp"]
    kinds: Counter = Counter()
    entries = width = 0
    make_nice, tw_dp_decide = solvers.make_nice, solvers.tw_dp_decide

    def counted_nice(td):
        nonlocal width
        width += td.width
        steps = make_nice(td)
        kinds.update(step.kind for step in steps)
        return steps

    def counted_decide(g, nice, k, budget):
        nonlocal entries
        result = tw_dp_decide(g, nice, k, budget)
        entries += result.stats["nodes"]
        return result

    monkeypatch.setattr(solvers, "make_nice", counted_nice)
    monkeypatch.setattr(solvers, "tw_dp_decide", counted_decide)
    for text in workloads.materialize(workload.plan(1, SECONDS)):
        solvers.chi_exact(graphs.load_graph(io.StringIO(text)), workload.method)
    assert (sum(kinds.values()), kinds["join"], entries, width) == PINNED
