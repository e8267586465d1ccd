"""Shared named graphs and reports.

The small menagerie used throughout: the looped complete pair, the
two-loop directed triangle, their disjoint union, and the loopy complete
bipartite example.  The exhaustive n = 4 McClelland and rho-lower census
is swept once per session for every test that reads it.
"""

from __future__ import annotations

import pytest

from loopspec import (complete, complete_bipartite, directed_cycle,
                      disjoint_union, empty_digraph, new_digraph)
from loopspec.sweep import sweep


@pytest.fixture(scope="session")
def census_n4():
    """``sweep(4, ["mcclelland", "rho_lower"])``; read it, never mutate it."""
    return sweep(4, ["mcclelland", "rho_lower"])


@pytest.fixture
def k2_plus():
    """Digon with one loop; spectrum is the golden pair."""
    return new_digraph(2, [(0, 1), (1, 0)], [0])


@pytest.fixture
def k2_digon():
    return new_digraph(2, [(0, 1), (1, 0)], [])


@pytest.fixture
def k2_full():
    """Digon with both loops; adjacency is the all-ones matrix."""
    return complete(2, [0, 1])


@pytest.fixture
def loop_c3():
    """Directed triangle with loops on two vertices."""
    return directed_cycle(3, [0, 2])


@pytest.fixture
def fig_union(k2_plus, loop_c3):
    """Disjoint union of the looped digon and the looped triangle."""
    return disjoint_union([k2_plus, loop_c3])


@pytest.fixture
def k32_looped():
    """Complete bipartite 3+2 with loops on the larger side; 3-regular."""
    return complete_bipartite(3, 2, loops=[0, 1, 2])


@pytest.fixture
def path3():
    return new_digraph(3, [(0, 1), (1, 2)], [])


@pytest.fixture
def all_loops_only():
    return empty_digraph(3, [0, 1, 2])
