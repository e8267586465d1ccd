from __future__ import annotations

import math

import pytest

from loopspec import (ALL_BOUND_IDS, OrderTooSmall, all_certificates,
                      complement_energy_sum, complement_rho_sum, complete, component_gap,
                      directed_cycle, disjoint_union, empty_digraph,
                      energy_lower_c2, mcclelland, mcclelland_equality_family,
                      new_digraph, power_sum_bounds, rho_lower,
                      rho_lower_equality_structure, rho_upper)
from loopspec.bounds import energy_lower_equality_family
from loopspec.spectral import GraphFacts
from loopspec.sweep import iterate_all

SQRT5 = math.sqrt(5)


class TestMcClelland:
    def test_full_digon_equality(self, k2_full):
        cert = mcclelland(k2_full)
        assert cert.rhs == pytest.approx(2.0, abs=1e-12)
        assert cert.holds and cert.equality

    def test_looped_digon_equality(self, k2_plus):
        cert = mcclelland(k2_plus)
        assert cert.rhs == pytest.approx(SQRT5, abs=1e-12)
        assert cert.equality

    def test_loop_triangle_strict(self, loop_c3):
        cert = mcclelland(loop_c3)
        # n=3, m=3, c2=0, sigma=2: bound sqrt(1.5 * (3 + 4 - 8/3)) = sqrt(6.5)
        assert cert.rhs == pytest.approx(math.sqrt(6.5), abs=1e-12)
        assert cert.holds and not cert.equality


class TestMcClellandFamilies:
    def test_digon_matching(self, k2_digon):
        two = disjoint_union([k2_digon, k2_digon])
        assert mcclelland_equality_family(two) == "digon-matching"

    def test_looped_digon_matching(self, k2_plus):
        two = disjoint_union([k2_plus, k2_plus])
        assert mcclelland_equality_family(two) == "digon-matching-one-loop"

    def test_full_digon_matching(self, k2_full):
        assert mcclelland_equality_family(k2_full) == "digon-matching-two-loops"

    def test_isolated_families(self):
        assert mcclelland_equality_family(empty_digraph(3)) == "isolated-vertices"
        assert (mcclelland_equality_family(empty_digraph(3, [0, 1, 2]))
                == "isolated-vertices-all-loops")
        assert (mcclelland_equality_family(empty_digraph(4, [1, 3]))
                == "isolated-vertices-half-loops")

    def test_loop_triangle_absent(self, loop_c3):
        assert mcclelland_equality_family(loop_c3) is None

    def test_unbalanced_loops_absent(self):
        assert mcclelland_equality_family(empty_digraph(4, [0])) is None

    def test_extra_non_cycle_arc_absent(self, k2_digon):
        # Two digons plus a bridge arc: the pruned graph would match, but
        # the extra arc raises the bound strictly, so no family tag.
        d = new_digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)], [])
        cert = mcclelland(d)
        assert not cert.equality
        assert mcclelland_equality_family(d) is None

    def test_flag_iff_family_exhaustive_n3(self):
        for d in iterate_all(3):
            cert = mcclelland(d)
            tag = mcclelland_equality_family(d)
            assert cert.equality == (tag is not None)


class TestRhoLower:
    def test_looped_digon_strict(self, k2_plus):
        cert = rho_lower(k2_plus)
        assert cert.lhs == pytest.approx(1.5)
        assert cert.rhs == pytest.approx((1 + SQRT5) / 2, abs=1e-12)
        assert cert.holds and not cert.equality

    def test_digon_equality(self, k2_digon):
        cert = rho_lower(k2_digon)
        assert cert.equality
        assert rho_lower_equality_structure(k2_digon)

    def test_directed_cycle_trivial(self):
        cert = rho_lower(directed_cycle(3))
        assert cert.lhs == 0 and cert.holds

    def test_equality_implies_structure_n3(self):
        for d in iterate_all(3):
            if rho_lower(GraphFacts(d)).equality:
                assert rho_lower_equality_structure(GraphFacts(d))


class TestEnergyLowerC2:
    def test_complete_triangle_equality(self):
        k3 = complete(3)
        cert = energy_lower_c2(k3)
        assert cert.lhs == pytest.approx(4.0)
        assert cert.equality
        assert energy_lower_equality_family(k3) == "complete"

    def test_full_complete_triangle(self):
        k3_full = complete(3, [0, 1, 2])
        cert = energy_lower_c2(k3_full)
        assert cert.equality
        assert energy_lower_equality_family(k3_full) == "complete-all-loops"

    def test_balanced_multipartite(self):
        d = complete(4).loopless()
        # K_{2x2}: remove the matching to get parts {0,1}, {2,3}
        d = new_digraph(4, [(u, v) for u in range(4) for v in range(4)
                            if u != v and {u, v} not in ({0, 1}, {2, 3})], [])
        cert = energy_lower_c2(d)
        assert cert.equality
        assert energy_lower_equality_family(d) == "complete-multipartite"

    def test_loop_triangle_trivial(self, loop_c3):
        cert = energy_lower_c2(loop_c3)
        assert cert.lhs == 0 and cert.holds and not cert.equality


class TestRhoUpper:
    def test_complete_triangle_equality(self):
        cert = rho_upper(complete(3))
        assert cert.rhs == pytest.approx(2.0, abs=1e-12)
        assert cert.equality

    def test_full_digon_equality(self, k2_full):
        cert = rho_upper(k2_full)
        assert cert.rhs == pytest.approx(2.0, abs=1e-12)
        assert cert.equality

    def test_loop_triangle(self, loop_c3):
        cert = rho_upper(loop_c3)
        # 2/3 + sqrt(4/9 - 4/3 + 2*7/6) = 2/3 + sqrt(13)/3
        assert cert.rhs == pytest.approx(2 / 3 + math.sqrt(13) / 3, abs=1e-12)
        assert cert.holds and not cert.equality

    def test_order_too_small(self):
        with pytest.raises(OrderTooSmall):
            rho_upper(new_digraph(1))


class TestComponentGap:
    def test_fig_union(self, fig_union):
        cert = component_gap(fig_union)
        assert cert.lhs == pytest.approx(4.4124900 - 4.3458233, abs=1e-4)
        assert cert.rhs == 6
        assert cert.holds

    def test_loopless_additivity(self, path3):
        cert = component_gap(path3)
        assert cert.lhs == pytest.approx(0.0, abs=1e-12)
        assert cert.rhs == 0
        assert cert.equality

    def test_single_component(self, k2_plus):
        cert = component_gap(k2_plus)
        assert cert.lhs == pytest.approx(0.0, abs=1e-12)


class TestComplementRhoSum:
    def test_k32_lower_equality(self, k32_looped):
        lower, upper = complement_rho_sum(k32_looped)
        # rho + rho_bar = 3 + 2; lower bound 1 + (12 + 8)/5 = 5
        assert lower.lhs == pytest.approx(5.0)
        assert lower.rhs == pytest.approx(5.0, abs=1e-9)
        assert lower.equality
        assert upper.holds

    def test_directed_cycle(self):
        lower, upper = complement_rho_sum(directed_cycle(3))
        assert lower.lhs == pytest.approx(0.0)
        assert lower.rhs == pytest.approx(2.0, abs=1e-9)
        assert upper.holds

    def test_empty_graph(self):
        lower, upper = complement_rho_sum(empty_digraph(3))
        # Complement is the loopless complete digraph: rho_bar = 2.
        assert lower.rhs == pytest.approx(2.0, abs=1e-9)
        assert lower.equality  # (c2_bar = 6: 0 + 6/3 = 2)
        assert upper.holds

    def test_single_vertex(self):
        lower, upper = complement_rho_sum(new_digraph(1, [], [0]))
        assert lower.holds and upper.holds


class TestComplementEnergySum:
    def test_k32(self, k32_looped):
        cert = complement_energy_sum(k32_looped)
        assert cert.lhs == pytest.approx(12.8, abs=1e-9)
        assert cert.rhs == pytest.approx(math.sqrt(224), abs=1e-9)
        assert cert.holds

    def test_single_loopless_vertex(self):
        cert = complement_energy_sum(new_digraph(1))
        assert cert.lhs == 0 and cert.rhs == 0 and cert.equality

    def test_full_digon(self, k2_full):
        cert = complement_energy_sum(k2_full)
        assert cert.lhs == pytest.approx(2.0, abs=1e-12)
        assert cert.rhs == pytest.approx(math.sqrt(8), abs=1e-12)
        assert cert.holds


class TestPowerSums:
    def test_loop_triangle(self, loop_c3):
        modulus, real, imag = power_sum_bounds(loop_c3)
        assert modulus.rhs == 5
        assert modulus.lhs == pytest.approx(4.2196, abs=5e-4)
        assert real.rhs == pytest.approx(3.5)
        assert imag.rhs == pytest.approx(1.5)
        assert modulus.holds and real.holds and imag.holds

    def test_digon_modulus_equality(self, k2_digon):
        modulus, real, imag = power_sum_bounds(k2_digon)
        assert modulus.lhs == pytest.approx(2.0, abs=1e-12)
        assert modulus.equality

    def test_empty(self):
        modulus, real, imag = power_sum_bounds(empty_digraph(2))
        assert modulus.equality and real.equality and imag.equality


class TestToleranceOverride:
    def test_env_var_loosens_equality(self, monkeypatch, k2_plus):
        strict = rho_lower(k2_plus)
        assert not strict.equality
        monkeypatch.setenv("LOOPSPEC_TOL", "0.5")
        loose = rho_lower(k2_plus)
        assert loose.equality

    def test_invalid_value_rejected(self, monkeypatch, k2_plus):
        monkeypatch.setenv("LOOPSPEC_TOL", "-1")
        with pytest.raises(ValueError):
            rho_lower(k2_plus)


class TestAllCertificates:
    def test_every_bound_holds_exhaustively_n3(self):
        for d in iterate_all(3):
            for cert in all_certificates(GraphFacts(d)):
                assert cert.holds, (d, cert)

    def test_rho_upper_skipped_for_singleton(self):
        ids = [c.bound_id for c in all_certificates(new_digraph(1))]
        assert "rho_upper" not in ids
        assert "mcclelland" in ids

    def test_only_filter(self, k2_plus):
        certs = all_certificates(k2_plus, only="mcclelland")
        assert [c.bound_id for c in certs] == ["mcclelland"]

    @pytest.mark.parametrize("bound_id", ALL_BOUND_IDS)
    def test_only_picks_that_entry_of_the_full_list(self, bound_id, fig_union):
        # The McClelland census witness: a directed triangle and a looped vertex.
        witness = disjoint_union([directed_cycle(3), new_digraph(1, loops=[0])])
        for d in (fig_union, witness):
            full = {c.bound_id: repr(c) for c in all_certificates(d)}
            assert [repr(c) for c in all_certificates(d, only=bound_id)] == [full[bound_id]]

    def test_only_rho_upper_at_order_one(self):
        assert all_certificates(new_digraph(1, loops=[0]), only="rho_upper") == []
