from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopspec import (BadPartition, IdOutOfRange, SelfPairInArcList,
                      adjacency, complement, complete, complete_multipartite,
                      count_two_cycles, degrees, directed_cycle,
                      disjoint_union, empty_digraph, generate, is_acyclic,
                      new_digraph, regularity)
from loopspec.sweep import iterate_all


def random_digraphs(max_n=6):
    """Hypothesis strategy over digraphs."""
    def build(draw):
        n = draw(st.integers(1, max_n))
        arcs = draw(st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            .filter(lambda p: p[0] != p[1])))
        loops = draw(st.sets(st.integers(0, n - 1)))
        return new_digraph(n, arcs, loops)
    return st.composite(build)()


class TestConstruction:
    def test_counts(self, k2_plus):
        assert (k2_plus.n, k2_plus.m, k2_plus.sigma) == (2, 2, 1)

    def test_single_vertex(self):
        d = new_digraph(1)
        assert (d.n, d.m, d.sigma) == (1, 0, 0)

    def test_loop_triangle(self, loop_c3):
        assert (loop_c3.n, loop_c3.m, loop_c3.sigma) == (3, 3, 2)

    def test_rejects_self_pair(self):
        with pytest.raises(SelfPairInArcList):
            new_digraph(2, [(0, 0)], [])

    def test_rejects_out_of_range(self):
        with pytest.raises(IdOutOfRange):
            new_digraph(2, [(0, 2)], [])
        with pytest.raises(IdOutOfRange):
            new_digraph(2, [], [5])

    def test_deduplicates(self):
        d = new_digraph(2, [(0, 1), (0, 1)], [1, 1])
        assert (d.m, d.sigma) == (1, 1)


class TestDegrees:
    def test_looped_digon(self, k2_plus):
        prof = degrees(k2_plus)
        assert prof.out_deg == (2, 1)
        assert prof.in_deg == (2, 1)

    def test_empty(self):
        prof = degrees(empty_digraph(4))
        assert prof.out_deg == (0,) * 4
        assert prof.in_deg == (0,) * 4

    def test_k32_with_loops(self, k32_looped):
        prof = degrees(k32_looped)
        assert prof.out_deg == (3,) * 5
        assert prof.in_deg == (3,) * 5

    @settings(max_examples=60)
    @given(random_digraphs())
    def test_degree_sums(self, d):
        prof = degrees(d)
        assert sum(prof.out_deg) == sum(prof.in_deg) == d.m + d.sigma


class TestRegularity:
    def test_k32(self, k32_looped):
        assert regularity(k32_looped) == 3

    def test_looped_digon_irregular(self, k2_plus):
        assert regularity(k2_plus) is None

    def test_full_digon(self, k2_full):
        assert regularity(k2_full) == 2


class TestComplement:
    def test_k32_complement_structure(self, k32_looped):
        comp = complement(k32_looped)
        # Complete on the 3 side, full loops on the 2 side.
        expected = disjoint_union([complete(3), complete(2, [0, 1])])
        assert comp == expected

    def test_full_graph_complement_empty(self):
        full = complete(3, [0, 1, 2])
        comp = complement(full)
        assert comp == empty_digraph(3)

    def test_loopless_keeps_no_loops(self):
        c3 = directed_cycle(3)
        comp = complement(c3)
        assert comp.sigma == 0
        a = adjacency(c3) + adjacency(comp)
        assert np.array_equal(a, np.ones((3, 3), dtype=np.int64) - np.eye(3, dtype=np.int64))

    def test_matrix_identity_with_loops(self, k2_plus):
        a = adjacency(k2_plus) + adjacency(complement(k2_plus))
        assert np.array_equal(a, np.ones((2, 2), dtype=np.int64))

    def test_involution_below_full_loops(self):
        for d in iterate_all(3):
            twice = complement(complement(d))
            if d.sigma < d.n:
                assert twice == d
            else:
                # A fully looped graph complements to a loopless one, so the
                # second complement recovers only the loopless projection.
                assert twice == d.loopless()


class TestDisjointUnion:
    def test_fig_union_counts(self, fig_union):
        assert (fig_union.n, fig_union.m, fig_union.sigma) == (5, 5, 3)

    def test_identity(self, k2_plus):
        assert disjoint_union([k2_plus]) == k2_plus

    def test_two_full_digons(self, k2_full):
        d = disjoint_union([k2_full, k2_full])
        assert (d.n, d.m, d.sigma) == (4, 4, 4)


class TestGenerate:
    def test_full_digon(self):
        d = generate("complete", n=2, loops=[0, 1])
        assert np.array_equal(adjacency(d), np.ones((2, 2), dtype=np.int64))

    def test_bipartite(self, k32_looped):
        assert generate("complete_bipartite", a=3, b=2, loops=[0, 1, 2]) == k32_looped

    def test_empty(self):
        d = generate("empty", n=4, loops=[])
        assert (d.n, d.m, d.sigma) == (4, 0, 0)

    def test_bad_partition(self):
        with pytest.raises(BadPartition):
            complete_multipartite([[0, 1], [3]], [])

    def test_multipartite_example(self):
        d = complete_multipartite([[0, 1], [2, 3]], [])
        assert d.m == 8 and regularity(d) == 2


class TestTwoCycles:
    def test_digon(self, k2_digon):
        assert count_two_cycles(k2_digon) == 2

    def test_directed_triangle(self):
        assert count_two_cycles(directed_cycle(3)) == 0

    def test_complete_triangle(self):
        assert count_two_cycles(complete(3)) == 6

    def test_matches_trace_of_square(self):
        for d in iterate_all(3):
            a = adjacency(d)
            assert count_two_cycles(d) == int(np.trace(a @ a)) - d.sigma

    def test_always_even(self):
        for d in iterate_all(3):
            assert count_two_cycles(d) % 2 == 0


class TestAcyclic:
    def test_loops_only(self, all_loops_only):
        assert is_acyclic(all_loops_only)

    def test_digon(self, k2_digon):
        assert not is_acyclic(k2_digon)

    def test_path_with_loop(self):
        assert is_acyclic(new_digraph(3, [(0, 1), (1, 2)], [1]))
