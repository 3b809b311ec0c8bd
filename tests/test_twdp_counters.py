"""The twdp route's nice steps and DP tables on the benchmark's dense-twdp pool.

The seed-1 pool is built as ``test_ascent_counters.py`` builds it, from
``perfbench/workloads.py`` loaded by path. The bracket closes on every graph of
the pool, so the ascent decides nothing; each graph's route set-up is driven at
k = chi - 1 and at k = chi instead. ``solvers.make_nice`` and
``solvers.tw_dp_decide`` are wrapped to sum the nice steps, the joins among
them and the table entries of every decide, and the width of every graph's
decomposition, so a change that brings back bags nested in a neighbor (more
steps, more joins, more entries) or a heuristic that grows the bags shows here.
"""

from collections import Counter

from mixedcolor import solvers
from mixedcolor.errors import DEFAULT_NODE_BUDGET

from test_ascent_counters import graphs_at_chi, workloads  # noqa: F401 (a fixture)

# (nice steps, joins, table entries) over the decides at chi - 1 and chi, and the
# decompositions' summed width
PINNED = (30_129, 1_197, 365_266, 4_473)


def test_seed_one_dense_twdp_steps_and_tables(workloads, monkeypatch):  # noqa: F811
    pairs = graphs_at_chi(workloads, "dense-twdp")  # before the wrapping, so only the decides below count
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
    for g, chi in pairs:
        decide = solvers.ROUTES["twdp"](g, None, DEFAULT_NODE_BUDGET)
        assert not decide(chi - 1).decision and decide(chi).decision
    assert (sum(kinds.values()), kinds["join"], entries, width) == PINNED
