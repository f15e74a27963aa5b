"""Shared fixtures: small deterministic graphs (session-scoped, cheap)."""
from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import generators as G

TINY_SF = 0.002   # ~6k edges / 400 vertices — unit-test scale
SMALL_SF = 0.01   # ~30k edges / 2k vertices — shape-test scale


@pytest.fixture(scope="session")
def tiny_web() -> G.EdgeStream:
    return G.web_graph(sf=TINY_SF, seed=3)


@pytest.fixture(scope="session")
def small_web() -> G.EdgeStream:
    return G.web_graph(sf=SMALL_SF, seed=3)


@pytest.fixture(scope="session")
def tiny_social() -> G.EdgeStream:
    return G.social_graph(sf=TINY_SF, seed=4)


# Three vertices, fourteen edges: at v_max=10 every vertex is split out (0
# three times), so pass 1's splits (6) outnumber its vertices (3) and its
# cluster table (9 clusters) outgrows any capacity sized by vertices alone.
_SPLIT_HEAVY = [(0, 1), (1, 2), (1, 2), (1, 2), (2, 1), (0, 1), (0, 1), (0, 2), (2, 0),
                (1, 1), (1, 2), (2, 1), (0, 0), (2, 1)]


@pytest.fixture(scope="session")
def split_heavy() -> G.EdgeStream:
    return G.EdgeStream(np.array([u for u, _ in _SPLIT_HEAVY]),
                        np.array([v for _, v in _SPLIT_HEAVY]))
