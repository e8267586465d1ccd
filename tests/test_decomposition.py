from __future__ import annotations

from fractions import Fraction

import pytest

from loopspec import (ab_remark_check, analyze, disjoint_union,
                      matching_distance, necessary_condition,
                      prune_non_cycle_arcs, sufficient_condition)
from loopspec.decomposition import ImplicationStatus
from loopspec.linalg import digraph_spectrum
from loopspec.spectral import GraphFacts
from loopspec.sweep import iterate_all


class TestAnalyze:
    def test_fig_union(self, fig_union):
        analysis = analyze(fig_union)
        assert analysis.k == 2
        assert analysis.l == 1
        # The triangle (loop ratio 2/3) sorts above the digon (1/2), and the
        # triangle is the second strong component in condensation order.
        assert analysis.components[0].ratio == Fraction(2, 3)
        assert analysis.components[1].ratio == Fraction(1, 2)
        assert analysis.permutation == (1, 0)
        assert round(analysis.total_energy, 4) == 4.3458
        assert round(analysis.sum_component_energy, 4) == 4.4125
        assert [len(c.a_indices) for c in analysis.components] == [1, 1]
        assert [len(c.b_indices) for c in analysis.components] == [1, 1]

    def test_single_component(self, k2_plus):
        analysis = analyze(k2_plus)
        assert analysis.k == 1
        assert analysis.total_energy == pytest.approx(
            analysis.sum_component_energy, abs=1e-12)

    def test_two_digon_components_match(self, k2_digon):
        two = disjoint_union([k2_digon, k2_digon])
        analysis = analyze(two)
        assert analysis.total_energy == pytest.approx(4.0, abs=1e-9)
        assert analysis.sum_component_energy == pytest.approx(4.0, abs=1e-9)

    def test_component_spectra_union(self):
        for d in iterate_all(3):
            facts = GraphFacts(d)
            analysis = analyze(facts)
            union = [z for c in analysis.components for z in c.spectrum.values]
            pruned = digraph_spectrum(prune_non_cycle_arcs(d))
            assert matching_distance(union, pruned.values) < 1e-8

    def test_loopless_additivity(self):
        for d in iterate_all(3):
            if d.sigma:
                continue
            analysis = analyze(d)
            assert abs(analysis.total_energy
                       - analysis.sum_component_energy) <= 1e-8


class TestSufficientCondition:
    def test_fig_union(self, fig_union):
        record = sufficient_condition(fig_union)
        assert record.status is ImplicationStatus.APPLIED
        # (2/3 - 3/5) * 1 = 1/15 on the left, (3/5 - 1/2) * 1 = 1/10 right
        assert record.antecedent_lhs == pytest.approx(1 / 15)
        assert record.antecedent_rhs == pytest.approx(1 / 10)
        assert record.antecedent_holds and record.antecedent_strict
        assert record.consequent_strict
        assert record.implication_ok

    def test_degenerate_equal_ratios(self, k2_full):
        record = sufficient_condition(disjoint_union([k2_full, k2_full]))
        assert record.status is ImplicationStatus.DEGENERATE
        assert record.implication_ok
        assert record.antecedent_lhs == 0 and record.antecedent_rhs == 0

    def test_loopless_multi_component(self, path3):
        record = sufficient_condition(path3)
        assert record.status is ImplicationStatus.DEGENERATE
        assert record.antecedent_holds
        assert record.consequent_holds
        assert record.implication_ok

    def test_single_component_not_applicable(self, k2_plus):
        record = sufficient_condition(k2_plus)
        assert record.status is ImplicationStatus.NOT_APPLICABLE
        assert record.implication_ok

    def test_exhaustive_n3(self):
        for d in iterate_all(3):
            assert sufficient_condition(GraphFacts(d)).implication_ok


class TestNecessaryCondition:
    def test_fig_union(self, fig_union):
        record = necessary_condition(fig_union)
        assert record.status is ImplicationStatus.APPLIED
        assert record.antecedent_holds and record.antecedent_strict
        # B-inequality: (2/3 - 3/5)|B_1| = 1/15 <= (3/5 - 1/2)|B_2| = 1/10
        assert record.consequent_lhs == pytest.approx(1 / 15)
        assert record.consequent_rhs == pytest.approx(1 / 10)
        assert record.consequent_strict
        assert record.implication_ok

    def test_single_component_not_applicable(self, k2_plus):
        record = necessary_condition(k2_plus)
        assert record.status is ImplicationStatus.NOT_APPLICABLE

    def test_exhaustive_n3(self):
        for d in iterate_all(3):
            assert necessary_condition(GraphFacts(d)).implication_ok


class TestAbRemark:
    def test_fig_union(self, fig_union):
        assert ab_remark_check(fig_union)

    def test_loopless(self, path3):
        assert ab_remark_check(path3)

    def test_exhaustive_n3(self):
        for d in iterate_all(3):
            assert ab_remark_check(GraphFacts(d))


class TestSetContainments:
    def test_b_in_a_above_center_and_converse(self):
        for d in iterate_all(3):
            analysis = analyze(d)
            for i, c in enumerate(analysis.components):
                if i < analysis.l:
                    assert set(c.b_indices) <= set(c.a_indices)
                else:
                    assert set(c.a_indices) <= set(c.b_indices)
