"""The benchmark tracer's spans see the calls they are named after.

A traced name only measures something if the package calls it through the
module attribute the tracer rebinds. The ndm route must build each preorder's
program through ``solvers.preorder_program``, and the twdp route must build
its decomposition through ``solvers.min_fill_decomposition`` and each nice
form through ``solvers.make_nice``. The bounds spans nest the same way:
``lower_bounds`` calls ``bounds.chi_u_exact``, which calls
``bounds.clique_number`` for the start that the tracer's ``bounds.k_tried``
counts from, and ``layering_coloring`` calls ``bounds.layering``.
"""

from mixedcolor import bounds, solvers
from mixedcolor.reductions import family_layered_cliques, family_tripartite


def test_ndm_route_calls_preorder_program_once_per_preorder(monkeypatch):
    calls, preorder_program = [], solvers.preorder_program
    monkeypatch.setattr(solvers, "preorder_program", lambda *args: calls.append(args) or preorder_program(*args))
    result = solvers.ndm_fpt_decide(family_tripartite(4), 3)
    assert result.decision
    assert len(calls) == result.stats["preorders"] == 1


def test_twdp_route_calls_min_fill_once_and_make_nice_per_windowed_decide(monkeypatch):
    fills, nices = [], []
    min_fill, make_nice = solvers.min_fill_decomposition, solvers.make_nice
    monkeypatch.setattr(solvers, "min_fill_decomposition", lambda g: fills.append(g) or min_fill(g))
    monkeypatch.setattr(solvers, "make_nice", lambda td: nices.append(td) or make_nice(td))
    # chi is 12; the color windows refute every k below 9 before any table
    decide = solvers.ROUTES["twdp"](family_layered_cliques(2, 4), None, 10**6)
    results = [decide(k) for k in range(13)]
    assert [r.decision for r in results] == [False] * 12 + [True]
    assert len(fills) == 1
    assert len(nices) == sum(r.stats["nodes"] > 0 for r in results) == 4


def spy(monkeypatch, module, name):
    calls, real = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
    return calls


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
