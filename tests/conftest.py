"""Shared corpus builders and the Hypothesis profile of the test suite.

All randomness is seeded so every run sees the same instances. Property
tests are derandomized, so every run draws the same examples, and have no
deadline; each test sets only its own ``max_examples``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import settings

from mixedcolor import MixedGraph, random_mixed_graph

settings.register_profile("mixedcolor", deadline=None, derandomize=True)
settings.load_profile("mixedcolor")

DENSITY_SWEEP = [
    (0.00, 0.25),
    (0.05, 0.05),
    (0.10, 0.40),
    (0.15, 0.70),
    (0.20, 0.50),
    (0.25, 0.00),
    (0.30, 0.20),
    (0.40, 0.40),
    (0.50, 0.30),
    (0.60, 0.10),
    (0.70, 0.25),
    (0.85, 0.10),
]


def graph_corpus(count: int, max_n: int, seed: int = 20240901) -> list[MixedGraph]:
    """Seeded random mixed graphs with the edge/arc density sweep."""
    rng = random.Random(seed)
    graphs = []
    i = 0
    while len(graphs) < count:
        edge_p, arc_p = DENSITY_SWEEP[i % len(DENSITY_SWEEP)]
        n = 1 + (i % max_n)
        graphs.append(random_mixed_graph(rng, n, edge_p, arc_p))
        i += 1
    return graphs


@pytest.fixture(scope="session")
def small_corpus() -> list[MixedGraph]:
    return graph_corpus(72, 8)


@pytest.fixture(scope="session")
def param_corpus() -> list[MixedGraph]:
    return graph_corpus(100, 10, seed=77)
