from __future__ import annotations

from fractions import Fraction

import pytest

from loopspec import (ab_remark_check, analyze, disjoint_union,
                      matching_distance, necessary_condition,
                      prune_non_cycle_arcs, sufficient_condition)
from loopspec.decomposition import ImplicationStatus
from loopspec.spectral import GraphFacts
from loopspec.sweep import digraph_from_bits, orbit_classes, random_digraph
from digraph_helpers import digraph_spectrum, iterate_all


class TestAnalyze:
    def test_fig_union(self, fig_union):
        analysis = analyze(fig_union)
        assert analysis.k == 2
        assert analysis.l == 1
        # The triangle (loop ratio 2/3) sorts above the digon (1/2), and the
        # triangle is the second strong component in condensation order.
        assert analysis.components[0].ratio == 2 / 3
        assert analysis.components[1].ratio == 1 / 2
        # Each float is the nearest one to its exact ratio.
        for c in analysis.components:
            assert c.ratio.hex() == float(Fraction(c.sigma, c.n)).hex()
        assert analysis.center.hex() == float(
            Fraction(fig_union.sigma, fig_union.n)).hex()
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


def _fraction_sides(facts, use_b):
    """The ratio inequality's sides in Fractions, from the definitions."""
    analysis = facts.analysis
    center = Fraction(facts.sigma, facts.n)
    lhs = rhs = Fraction(0)
    for i, c in enumerate(analysis.components):
        size = len(c.b_indices if use_b else c.a_indices)
        if i < analysis.l:
            lhs += (Fraction(c.sigma, c.n) - center) * size
        else:
            rhs += (center - Fraction(c.sigma, c.n)) * size
    return lhs, rhs


def _check_ratio_sides(facts) -> bool:
    """The stored integer sides over their common denominator equal the
    Fraction sides exactly, report the same floats to the bit, and give
    ab_remark_check and both records the same outcomes.  True when the
    graph has more than one strong component."""
    analysis = facts.analysis
    center = Fraction(facts.sigma, facts.n)
    ratios = [Fraction(c.sigma, c.n) for c in analysis.components]
    assert ratios == sorted(ratios, reverse=True)
    assert analysis.l == sum(ratio > center for ratio in ratios)
    sides, denom = {}, analysis.denom
    for use_b, (lhs, rhs) in ((False, analysis.a_sides), (True, analysis.b_sides)):
        reference = _fraction_sides(facts, use_b)
        assert (Fraction(lhs, denom), Fraction(rhs, denom)) == reference
        assert (lhs / denom, rhs / denom) == tuple(map(float, reference))
        sides[use_b] = reference
    (a_lhs, a_rhs), (b_lhs, b_rhs) = sides[False], sides[True]
    assert ab_remark_check(facts) == (a_lhs - a_rhs >= b_lhs - b_rhs)
    if analysis.k == 1:
        return False
    record = sufficient_condition(facts)
    assert (record.antecedent_lhs, record.antecedent_rhs) == (float(a_lhs), float(a_rhs))
    assert (record.antecedent_holds, record.antecedent_strict) == (
        a_lhs <= a_rhs, a_lhs < a_rhs)
    record = necessary_condition(facts)
    assert (record.consequent_lhs, record.consequent_rhs) == (float(b_lhs), float(b_rhs))
    assert (record.consequent_holds, record.consequent_strict) == (
        b_lhs <= b_rhs, b_lhs < b_rhs)
    return True


class TestRatioSides:
    def test_integer_sides_match_fractions_on_every_class_to_n4(self):
        applied = 0
        for n in range(1, 5):
            table = {}
            for mask in orbit_classes(n)[0]:
                facts = GraphFacts(digraph_from_bits(n, mask), table=table)
                applied += _check_ratio_sides(facts)
                # lcm(n, n_1, ..., n_k) divides 12 at every order up to 4.
                assert 12 % facts.analysis.denom == 0
        assert applied > 1000

    def test_integer_sides_match_fractions_on_seeded_graphs_n5_to_n7(self):
        # 87 of the 90 graphs have several strong components, and 11
        # common denominators, such as 5, 14, 30 and 42, divide no 12, so
        # no class with n <= 4 reaches them.
        applied, denoms = 0, set()
        for n in (5, 6, 7):
            for seed in range(30):
                facts = GraphFacts(random_digraph(n, 0.2, 0.5, 1000 * n + seed))
                applied += _check_ratio_sides(facts)
                denoms.add(facts.analysis.denom)
        assert applied == 87
        assert len({denom for denom in denoms if 12 % denom}) == 11


class TestSetContainments:
    def test_b_in_a_above_center_and_converse(self):
        for d in iterate_all(3):
            analysis = analyze(d)
            for i, c in enumerate(analysis.components):
                if i < analysis.l:
                    assert set(c.b_indices) <= set(c.a_indices)
                else:
                    assert set(c.a_indices) <= set(c.b_indices)
