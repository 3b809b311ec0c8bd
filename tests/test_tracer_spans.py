"""The benchmark tracer's spans see the calls they are named after.

A traced name only measures something if the package calls it through the
module attribute the tracer rebinds. The ndm route must build each preorder's
program through ``solvers.preorder_program``.
"""

from mixedcolor import solvers
from mixedcolor.reductions import family_tripartite


def test_ndm_route_calls_preorder_program_once_per_preorder(monkeypatch):
    calls, preorder_program = [], solvers.preorder_program
    monkeypatch.setattr(solvers, "preorder_program", lambda *args: calls.append(args) or preorder_program(*args))
    result = solvers.ndm_fpt_decide(family_tripartite(4), 3)
    assert result.decision
    assert len(calls) == result.stats["preorders"] == 1
