from __future__ import annotations

from loopspec import (complete, directed_cycle,
                      new_digraph, non_cycle_arcs, prune_non_cycle_arcs,
                      strong_components)
from loopspec.scc import component_digraphs, induced_subdigraph
from digraph_helpers import digraph_charpoly, iterate_all


def brute_force_components(d):
    """Oracle: components from the reachability closure."""
    n = d.n
    reach = [[False] * n for _ in range(n)]
    for v in range(n):
        reach[v][v] = True
    for u, v in d.arcs:
        reach[u][v] = True
    for k in range(n):
        for i in range(n):
            for j in range(n):
                reach[i][j] = reach[i][j] or (reach[i][k] and reach[k][j])
    seen = set()
    comps = []
    for v in range(n):
        if v in seen:
            continue
        comp = tuple(sorted(w for w in range(n)
                            if reach[v][w] and reach[w][v]))
        seen.update(comp)
        comps.append(comp)
    return sorted(comps)


class TestStrongComponents:
    def test_fig_union(self, fig_union):
        part = strong_components(fig_union)
        assert part.k == 2
        assert sorted(len(c) for c in part.components) == [2, 3]

    def test_complete_is_single(self):
        assert strong_components(complete(4)).k == 1

    def test_path_singletons(self, path3):
        part = strong_components(path3)
        assert part.k == 3
        assert all(len(c) == 1 for c in part.components)

    def test_component_of_consistent(self, fig_union):
        part = strong_components(fig_union)
        for idx, comp in enumerate(part.components):
            for v in comp:
                assert part.component_of[v] == idx

    def test_matches_reachability_oracle(self):
        for d in iterate_all(3):
            part = strong_components(d)
            assert sorted(part.components) == brute_force_components(d)

    def test_reverse_topological_order(self):
        # Sinks come first: every cross arc points to an earlier component.
        for d in iterate_all(3):
            part = strong_components(d)
            for u, v in d.arcs:
                cu, cv = part.component_of[u], part.component_of[v]
                if cu != cv:
                    assert cu > cv

    def test_sizes_and_loops_add_up(self):
        for d in iterate_all(3):
            comps = component_digraphs(d)
            assert sum(c.n for c in comps) == d.n
            assert sum(c.sigma for c in comps) == d.sigma


class TestInducedSubdigraph:
    def test_keeps_loops(self, fig_union):
        sub = induced_subdigraph(fig_union, (2, 3, 4))
        assert (sub.n, sub.m, sub.sigma) == (3, 3, 2)

    def test_relabels_ascending(self):
        d = new_digraph(4, [(3, 1), (1, 3)], [3])
        sub = induced_subdigraph(d, (1, 3))
        assert sub == new_digraph(2, [(0, 1), (1, 0)], [1])


class TestNonCycleArcs:
    def test_fig_union_has_none(self, fig_union):
        assert non_cycle_arcs(fig_union) == frozenset()

    def test_path_all(self, path3):
        assert non_cycle_arcs(path3) == frozenset({(0, 1), (1, 2)})

    def test_digon_with_pendant(self):
        d = new_digraph(3, [(0, 1), (1, 0), (1, 2)], [])
        assert non_cycle_arcs(d) == frozenset({(1, 2)})


class TestPrune:
    def test_path_with_loop(self):
        d = new_digraph(3, [(0, 1), (1, 2)], [1])
        pruned = prune_non_cycle_arcs(d)
        assert pruned == new_digraph(3, [], [1])

    def test_complete_unchanged(self):
        d = complete(3)
        assert prune_non_cycle_arcs(d) is d

    def test_digon_with_pendant(self):
        d = new_digraph(3, [(0, 1), (1, 0), (1, 2)], [])
        assert prune_non_cycle_arcs(d) == new_digraph(3, [(0, 1), (1, 0)], [])

    def test_charpoly_invariant_exhaustively(self):
        for d in iterate_all(3):
            assert digraph_charpoly(d) == digraph_charpoly(prune_non_cycle_arcs(d))


class TestDisjointUnionPredicate:
    """A digraph is the disjoint union of its strong components exactly
    when no arc lies off every cycle."""

    def test_fig_union(self, fig_union):
        assert not non_cycle_arcs(fig_union)

    def test_path(self, path3):
        assert non_cycle_arcs(path3)

    def test_cycle(self):
        assert not non_cycle_arcs(directed_cycle(4))
