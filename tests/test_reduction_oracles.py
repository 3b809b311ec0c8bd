"""The superstring reduction's source oracle as ground truth past brute force's cap.

``superstring_exists`` answers each drawn instance in the source problem, so the
answers on its split and unsplit graphs (up to 48 vertices, past the
``DEFAULT_BRUTE_CAP`` where brute force stops) are checked without another route. Each
check either agrees with the oracle or overruns its budget, and the overruns are
pinned, so a route that starts to give up more often shows here. The ndm route is
left out: at the routes' budget of 2 * 10**4 its decides on these 160 graphs took
95-114 s of CPU in all (2 cores, Python 3.11), 33 s on one "no" instance, with no
disagreement and 29 overruns.
"""

import random

import pytest

from mixedcolor import bounds, solvers
from mixedcolor.bounds import check_proper
from mixedcolor.errors import BudgetExceeded
from mixedcolor.reductions import SuperstringInstance, reduce_superstring, superstring_exists


@pytest.fixture(scope="module")
def drawn():
    """(graph, k, oracle answer) for 80 instances, each reduced unsplit and split."""
    out = []
    for i in range(80):
        rng = random.Random(7000 + i)
        strings = tuple(
            "".join(rng.choice("01") for _ in range(rng.randint(2, 3))) for _ in range(rng.randint(2, 3))
        )
        k = rng.randint(max(map(len, strings)), 5)
        yes = superstring_exists(strings, k)
        for split in (False, True):
            out.append((reduce_superstring(SuperstringInstance(strings, k), split=split)[0], k, yes))
    return out


def test_brackets_hold_the_oracle(drawn):
    opened = 0
    for g, k, yes in drawn:
        lower, upper, _ = bounds.bracket(g, 10**4)
        assert check_proper(g, upper)[0]
        assert lower <= k if yes else upper.num_colors() > k
        opened += lower < upper.num_colors()
    assert opened == 47


def test_window_search_agrees_or_overruns(drawn):
    overruns = 0
    for g, k, yes in drawn:
        found, left = bounds.window_search(g, k, 10**5)
        if left < 0:
            overruns += 1
            continue
        assert (found is not None) == yes
        assert found is None or check_proper(g, found)[0]
    assert overruns == 6


@pytest.mark.parametrize("method, pinned", [("twdp", 6), ("branch", 24)])
def test_route_agrees_or_overruns(drawn, method, pinned):
    overruns = 0
    for g, k, yes in drawn:
        try:
            result = solvers.ROUTES[method](g, None, 2 * 10**4)(k)
        except BudgetExceeded:
            overruns += 1
            continue
        assert result.decision == yes
        assert not yes or check_proper(g, result.witness)[0]
    assert overruns == pinned
