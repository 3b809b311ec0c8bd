"""The benchmark tracer's spans see the calls they are named after.

A traced name only measures something if the package calls it through the
module attribute the tracer rebinds. The ndm route must build each preorder's
program through ``solvers.preorder_program``, enumerate the preorders through
``solvers.maximal_proper_preorders`` once per decide and build its class
structure once per graph, and the twdp route must build its decomposition through
``solvers.min_fill_decomposition`` and its nice form through
``solvers.make_nice``, at most once per route set-up and only once a decide
needs them; the branch route builds its search once per set-up, on its first
decide. The bounds spans nest the same way:
``lower_bounds`` calls ``bounds.chi_u_exact``, which calls
``bounds.clique_number`` for the start that the tracer's ``bounds.k_tried``
counts from, and ``layering_coloring`` calls ``bounds.layering``.
``chi_exact`` reaches the branch and brute ascents through
``solvers.branching_chi`` and ``solvers.brute_force_chi``.
The branch route enumerates its children through
``solvers.maximal_independent_sets``; the ndm route's class sets do not.
"""

import io

import pytest

from mixedcolor import bounds, mixed_graph, solvers
from mixedcolor.cli import main
from mixedcolor.errors import InvalidDecomposition
from mixedcolor.graphs import save_graph
from mixedcolor.treedecomp import load_td
from mixedcolor.reductions import SuperstringInstance, family_layered_cliques, family_tripartite, reduce_superstring

# combined lower bound 4, chi 6
ASCENT = mixed_graph(
    7,
    edges=[(1, 2), (1, 3), (1, 7), (2, 6), (2, 7), (3, 5), (3, 6), (5, 6)],
    arcs=[(1, 4), (2, 3), (4, 2), (4, 5), (4, 6), (7, 3), (7, 4)],
)

# chi 8, and both schedule colorings take 9 colors; the window cliques give 7, and
# both window search rounds give up on 7; under a budget of 100 the bracket's
# budgeted search gives up too (at 150 it colors with 8), so the ascent decides k = 7
# and 8 (random_mixed_graph(Random(21924), 9, 0.6, 0.3))
TWO_DECIDES = mixed_graph(
    9,
    edges=[
        (1, 3), (1, 5), (1, 6), (1, 8), (2, 3), (2, 4), (2, 8), (3, 4), (3, 5), (3, 6), (3, 7),
        (3, 8), (3, 9), (4, 6), (4, 8), (5, 6), (5, 7), (5, 9), (6, 7), (6, 8), (6, 9), (7, 9),
    ],
    arcs=[(1, 7), (1, 9), (2, 1), (2, 6), (2, 9), (4, 1), (4, 5), (4, 7), (4, 9), (8, 5), (8, 7)],
)
TWO_DECIDES_BUDGET = 100


def test_ndm_route_calls_preorder_program_once_per_preorder(monkeypatch):
    calls, preorder_program = [], solvers.preorder_program
    monkeypatch.setattr(solvers, "preorder_program", lambda *args: calls.append(args) or preorder_program(*args))
    result = solvers.ndm_fpt_decide(family_tripartite(4), 3)
    assert result.decision
    assert len(calls) == result.stats["preorders"] == 1


def spy(monkeypatch, module, name):
    calls, real = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
    return calls


def test_twdp_route_calls_min_fill_and_make_nice_once(monkeypatch):
    fills = spy(monkeypatch, solvers, "min_fill_decomposition")
    nices = spy(monkeypatch, solvers, "make_nice")
    # chi is 12; the color windows refute every k below 9 before any table
    decide = solvers.ROUTES["twdp"](family_layered_cliques(2, 4), None, 10**6)
    results = [decide(k) for k in range(13)]
    assert [r.decision for r in results] == [False] * 12 + [True]
    assert sum(r.stats["nodes"] > 0 for r in results) == 4
    assert len(fills) == len(nices) == 1


def test_twdp_ascent_builds_the_nice_form_only_for_a_decide(monkeypatch):
    fills = spy(monkeypatch, solvers, "min_fill_decomposition")
    nices = spy(monkeypatch, solvers, "make_nice")
    decides = spy(monkeypatch, solvers, "tw_dp_decide")
    # chi 6 is the first k and the schedule coloring's count: no decide
    assert solvers.chi_exact(family_layered_cliques(1, 3), "twdp")[0] == 6
    assert (len(fills), len(nices), len(decides)) == (0, 0, 0)
    # the paper's split reduction of ("00", "001") at k = 5: the bracket leaves 5 / 6
    # under 10**4 nodes, and the table decides 5 within them
    g = reduce_superstring(SuperstringInstance(("00", "001"), 5), split=True)[0]
    assert solvers.chi_exact(g, "twdp", budget=10**4)[0] == 5
    assert [k for _, _, k, _ in decides] == [5]
    assert (len(fills), len(nices)) == (1, 1)


def test_twdp_ascent_checks_a_given_td_where_the_bracket_closes(monkeypatch):
    decides = spy(monkeypatch, solvers, "tw_dp_decide")
    path = mixed_graph(5, arcs=[(1, 2), (2, 3), (3, 4), (4, 5)])  # the windows give chi 5
    short = load_td(io.StringIO("s td 3 2 5\nb 1 1 2\nb 2 2 3\nb 3 3 4\n1 2\n2 3\n"))  # misses 5
    assert solvers.chi_exact(path, "twdp")[0] == 5
    with pytest.raises(InvalidDecomposition):
        solvers.chi_exact(path, "twdp", td=short)
    assert decides == []


def test_branch_ascent_builds_its_search_once(monkeypatch):
    builds = spy(monkeypatch, solvers._BranchingSearch, "__init__")
    stats = {}
    assert solvers.chi_exact(family_layered_cliques(1, 3), "branch", stats=stats)[0] == 6
    assert (stats["decides"], len(builds)) == (0, 0)
    assert solvers.chi_exact(TWO_DECIDES, "branch", budget=TWO_DECIDES_BUDGET, stats=stats)[0] == 8
    assert (stats["decides"], len(builds)) == (2, 1)


def test_ndm_ascent_builds_the_closure_partition_once(monkeypatch):
    partitions = spy(monkeypatch, solvers, "closure_neighborhood_partition")
    decides = spy(monkeypatch, solvers, "ndm_fpt_decide")
    assert solvers.chi_exact(TWO_DECIDES, "ndm", budget=TWO_DECIDES_BUDGET)[0] == 8
    assert [k for _, k, _ in decides] == [7, 8]
    assert len(partitions) == 1


def test_ndm_decide_enumerates_preorders_once(monkeypatch):
    enumerations = spy(monkeypatch, solvers, "maximal_proper_preorders")
    assert solvers.chi_exact(TWO_DECIDES, "ndm", budget=TWO_DECIDES_BUDGET)[0] == 8
    # one enumeration per decide, k = 7 and 8, each with at most k + 1 positions
    assert [max_ell for _, _, max_ell, _ in enumerations] == [8, 9]


def test_dump_ilp_shares_the_routes_class_structure(monkeypatch, tmp_path, capsys):
    partitions = spy(monkeypatch, solvers, "closure_neighborhood_partition")
    path = tmp_path / "ascent.graph"
    with open(path, "w", encoding="utf-8") as fh:
        save_graph(ASCENT, fh)
    assert main(["solve", str(path), "--k", "6", "--method", "ndm", "--dump-ilp"]) == 0
    assert "# preorder 1" in capsys.readouterr().out
    assert len(partitions) == 1


def test_lower_bounds_calls_chi_u_exact_once(monkeypatch):
    calls = spy(monkeypatch, bounds, "chi_u_exact")
    assert bounds.lower_bounds(family_layered_cliques(2, 3)).chi_u == 6
    assert len(calls) == 1


def test_chi_u_exact_calls_clique_number_once(monkeypatch):
    calls = spy(monkeypatch, bounds, "clique_number")
    assert bounds.chi_u_exact(family_tripartite(3))[0] == 3
    assert len(calls) == 1


def test_layering_coloring_calls_layering_once(monkeypatch):
    calls = spy(monkeypatch, bounds, "layering")
    assert bounds.layering_coloring(family_layered_cliques(2, 3)).num_colors() == 9
    assert len(calls) == 1


def test_chi_exact_dispatches_branch_and_brute_through_their_chi(monkeypatch):
    branch = spy(monkeypatch, solvers, "branching_chi")
    brute = spy(monkeypatch, solvers, "brute_force_chi")
    assert solvers.chi_exact(TWO_DECIDES, "branch")[0] == 8
    assert (len(branch), len(brute)) == (1, 0)
    assert solvers.chi_exact(TWO_DECIDES, "brute")[0] == 8
    assert (len(branch), len(brute)) == (1, 1)


def test_branch_route_calls_the_mis_kernel(monkeypatch):
    kernel = solvers.maximal_independent_sets
    calls = spy(monkeypatch, solvers, "maximal_independent_sets")
    assert solvers.chi_exact(TWO_DECIDES, "branch", budget=TWO_DECIDES_BUDGET)[0] == 8
    assert any(len(kernel(*args)) > 1 for args in calls)  # some state branches


def test_ndm_class_sets_bypass_the_mis_kernel(monkeypatch):
    calls = spy(monkeypatch, solvers, "maximal_independent_sets")
    g = family_tripartite(4)
    assert solvers.ndm_fpt_decide(g, 3).decision
    assert len(solvers.class_structure(g).subsets) > 0
    assert calls == []
