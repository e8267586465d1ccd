from __future__ import annotations

import math

import pytest

from loopspec import (NotRegular, complement, complete,
                      complement_spectrum_regular,
                      directed_cycle, empty_digraph, energy,
                      energy_positive_part, matching_distance, new_digraph,
                      regular_energy_sum, spectral_radius, trace_identities,
                      zero_energy_check)
from loopspec.spectral import GraphFacts
from loopspec.sweep import random_digraph
from digraph_helpers import digraph_spectrum, iterate_all

SQRT5 = math.sqrt(5)


class TestEnergy:
    def test_looped_digon_is_sqrt5(self, k2_plus):
        assert abs(energy(k2_plus).energy - SQRT5) < 1e-12

    def test_loop_triangle(self, loop_c3):
        # E = 2 * real_root - 4/3 where the root solves x^3 - 2x^2 + x - 1
        report = energy(loop_c3)
        root = digraph_spectrum(loop_c3).values[0].real
        assert abs(report.energy - (2 * root - 4 / 3)) < 1e-12
        assert round(report.energy, 4) == 2.1764

    def test_union_energy(self, fig_union):
        report = energy(fig_union)
        assert round(report.energy, 4) == 4.3458
        assert report.center == pytest.approx(0.6)

    def test_union_below_component_sum(self, fig_union, k2_plus, loop_c3):
        total = energy(fig_union).energy
        parts = energy(k2_plus).energy + energy(loop_c3).energy
        assert round(parts, 4) == 4.4125
        assert total < parts

    def test_deviations_sum(self, k32_looped):
        report = energy(k32_looped)
        assert abs(report.energy - math.fsum(report.deviations)) < 1e-12

    def test_zero_for_empty(self):
        assert energy(empty_digraph(4)).energy == 0


class TestEnergyPositivePart:
    def test_looped_digon(self, k2_plus):
        assert energy_positive_part(k2_plus) == pytest.approx(SQRT5, abs=1e-12)

    def test_empty(self):
        assert energy_positive_part(empty_digraph(3)) == 0

    def test_full_digon(self, k2_full):
        # spectrum {2, 0}, center 1
        assert energy_positive_part(k2_full) == pytest.approx(2.0, abs=1e-12)

    def test_equals_energy_exhaustively(self):
        for d in iterate_all(3):
            facts = GraphFacts(d)
            assert abs(facts.energy_value()
                       - energy_positive_part(facts)) <= 1e-8 * d.n


class TestSpectralRadius:
    def test_looped_digon(self, k2_plus):
        assert spectral_radius(k2_plus) == pytest.approx((1 + SQRT5) / 2, abs=1e-12)

    def test_complete(self):
        assert spectral_radius(complete(4)) == pytest.approx(3.0, abs=1e-9)

    def test_regular_equals_degree(self, k32_looped):
        assert spectral_radius(k32_looped) == pytest.approx(3.0, abs=1e-9)

    def test_perron_invariant_randomized(self):
        for seed in range(50):
            spectral_radius(random_digraph(5, 0.4, 0.4, seed))


class TestTraceIdentities:
    def test_loop_triangle(self, loop_c3):
        report = trace_identities(loop_c3)
        assert report.sum_ok and report.sumsq_ok and report.re_im_ok
        assert report.expected_sum == 2
        assert report.expected_sum_sq == 2

    def test_digon(self, k2_digon):
        report = trace_identities(k2_digon)
        assert report.sum_ok and report.sumsq_ok
        assert report.expected_sum == 0
        assert report.expected_sum_sq == 2

    def test_empty(self):
        report = trace_identities(empty_digraph(3))
        assert report.sum_ok and report.sumsq_ok and report.re_im_ok

    def test_exhaustive(self):
        for d in iterate_all(3):
            report = trace_identities(d)
            assert report.sum_ok and report.sumsq_ok and report.re_im_ok


class TestComplementSpectrumRegular:
    def test_k32(self, k32_looped):
        mapped = complement_spectrum_regular(k32_looped)
        assert matching_distance(mapped.values, [2, 2, 0, -1, -1]) < 1e-8

    def test_directed_cycle(self):
        c3 = directed_cycle(3)
        mapped = complement_spectrum_regular(c3)
        direct = digraph_spectrum(complement(c3))
        assert matching_distance(mapped, direct) < 1e-8

    def test_full_complete(self):
        full = complete(3, [0, 1, 2])
        mapped = complement_spectrum_regular(full)
        assert matching_distance(mapped.values, [0, 0, 0]) < 1e-8

    def test_matches_direct_for_regulars(self):
        for d in iterate_all(3):
            facts = GraphFacts(d)
            if facts.regularity is None:
                continue
            mapped = complement_spectrum_regular(facts)
            direct = facts.complement_facts.spectrum
            assert matching_distance(mapped, direct) < 1e-8

    def test_not_regular(self, k2_plus):
        with pytest.raises(NotRegular):
            complement_spectrum_regular(k2_plus)


class TestRegularEnergySum:
    def test_k32_closed_form(self, k32_looped):
        # 2 (7n - 5)(n - 1) / (2n - 1) at n = 3
        assert regular_energy_sum(k32_looped) == pytest.approx(12.8, abs=1e-9)

    def test_k32_direct_sum(self, k32_looped):
        facts = GraphFacts(k32_looped)
        direct = facts.energy_value() + facts.complement_facts.energy_value()
        assert direct == pytest.approx(12.8, abs=1e-9)

    def test_full_digon(self, k2_full):
        # E = 2 and the complement is edgeless, so the sum is 2.
        facts = GraphFacts(k2_full)
        direct = facts.energy_value() + facts.complement_facts.energy_value()
        assert direct == pytest.approx(2.0, abs=1e-12)
        assert regular_energy_sum(k2_full) == pytest.approx(2.0, abs=1e-9)

    def test_two_looped_singletons(self):
        d = empty_digraph(2, [0, 1])
        assert regular_energy_sum(d) == pytest.approx(2.0, abs=1e-9)

    def test_directed_cycle_loopless_branch(self):
        assert regular_energy_sum(directed_cycle(3)) == pytest.approx(4.0, abs=1e-9)

    def test_closed_form_matches_direct_exhaustively(self):
        for d in iterate_all(3):
            facts = GraphFacts(d)
            if facts.regularity is None:
                continue
            direct = facts.energy_value() + facts.complement_facts.energy_value()
            assert regular_energy_sum(facts) == pytest.approx(direct, abs=1e-7)

    def test_not_regular(self, k2_plus):
        with pytest.raises(NotRegular):
            regular_energy_sum(k2_plus)


class TestZeroEnergy:
    def test_loopless_path(self, path3):
        assert zero_energy_check(path3)

    def test_all_loops_no_arcs(self, all_loops_only):
        assert zero_energy_check(all_loops_only)

    def test_looped_digon(self, k2_plus):
        assert not zero_energy_check(k2_plus)

    def test_half_loops_not_zero(self):
        # Acyclic but sigma strictly between 0 and n.
        assert not zero_energy_check(new_digraph(2, [], [0]))

    def test_exhaustive(self):
        for d in iterate_all(3):
            zero_energy_check(d)


class TestLoopShiftLemma:
    def test_full_loops_match_loopless(self):
        for seed in range(20):
            d = random_digraph(4, 0.5, 1.0, seed)
            full = energy(d).energy
            bare = energy(d.loopless()).energy
            assert abs(full - bare) <= 1e-8 * d.n
