from __future__ import annotations

import cmath
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from loopspec import (CharPoly, LoopspecError, SizeLimit, adjacency,
                      char_poly_exact, charpoly_product, complete,
                      count_two_cycles, eigenvalues, empty_digraph,
                      linear_subdigraph_charpoly, matching_distance,
                      new_digraph, poly_roots)
from loopspec import linalg
from loopspec.errors import NoConvergence
from loopspec.linalg import (_aberth_many, _divide_monic, _horner_pair,
                             _rounding_scale, char_poly_exact_many,
                             eigenvalues_many, linear_subdigraph_charpoly_many,
                             poly_roots_many, square_free_decomposition)
from loopspec.spectral import trace_identities
from loopspec.sweep import (digraph_from_bits, orbit_classes,
                            random_digraph)
from digraph_helpers import (cycle_cover_charpoly_dfs, digraph_charpoly,
                             digraph_spectrum, iterate_all)
from test_golden import N7_SEEDS

GOLDEN = (1 + math.sqrt(5)) / 2

# random_digraph(7, 0.5, 0.5, 45672): a square-free charpoly with the two
# simple eigenvalues -0.37720 and -0.37331, 3.9e-3 = 7.6e-4 * ||A||_F apart.
CLOSE_PAIR = new_digraph(
    7,
    [(0, 3), (0, 5), (0, 6), (1, 2), (1, 3), (1, 5), (1, 6), (2, 1), (2, 4),
     (3, 0), (3, 2), (3, 4), (3, 5), (3, 6), (4, 0), (4, 1), (4, 2), (4, 3),
     (5, 0), (6, 0), (6, 4), (6, 5)],
    [2, 3, 4, 5])


class TestAdjacency:
    def test_looped_digon(self, k2_plus):
        assert adjacency(k2_plus).tolist() == [[1, 1], [1, 0]]

    def test_empty(self):
        assert not adjacency(new_digraph(3)).any()

    def test_full_digon(self, k2_full):
        assert adjacency(k2_full).tolist() == [[1, 1], [1, 1]]


class TestCharPolyExact:
    def test_loop_triangle(self, loop_c3):
        # lambda^3 - 2 lambda^2 + lambda - 1, by cofactor expansion
        assert digraph_charpoly(loop_c3).full() == (-1, 1, -2, 1)

    def test_identity_matrix(self):
        poly = char_poly_exact(np.eye(4, dtype=np.int64))
        expected = tuple((-1) ** (4 - k) * math.comb(4, k) for k in range(5))
        assert poly.full() == expected

    def test_looped_digon(self, k2_plus):
        assert digraph_charpoly(k2_plus).full() == (-1, -1, 1)

    def test_top_coefficients(self):
        # lambda^(n-1) coefficient is -sigma; the next one is
        # (sigma^2 - sigma - c2) / 2 by the Newton identity.
        for d in iterate_all(3):
            poly = digraph_charpoly(d)
            sigma = d.sigma
            c2 = count_two_cycles(d)
            assert poly.coeffs[2] == -sigma
            assert (sigma * sigma - sigma - c2) % 2 == 0
            assert poly.coeffs[1] == (sigma * sigma - sigma - c2) // 2

    def test_constant_term_is_signed_det(self):
        for seed in range(30):
            d = random_digraph(4, 0.6, 0.5, seed)
            a = adjacency(d)
            det = round(float(np.linalg.det(a.astype(float))))
            assert digraph_charpoly(d).coeffs[0] == (-1) ** 4 * det

    def test_rejects_non_integer(self):
        with pytest.raises(LoopspecError):
            char_poly_exact(np.array([[0.5, 0], [0, 1]]))
        with pytest.raises(LoopspecError):   # once truncated to [[0, 0], [0, 1]]
            char_poly_exact(np.array([[Fraction(1, 2), 0], [0, 1]], dtype=object))
        assert char_poly_exact(np.array([[Fraction(2), 0], [0, 1]], dtype=object)) == \
            CharPoly((2, -3))

    def test_size_limit(self):
        with pytest.raises(SizeLimit):
            char_poly_exact(np.zeros((65, 65), dtype=np.int64))

    def test_coefficients_beyond_int64(self):
        # A triangular matrix has charpoly prod (x - a_ii); with diagonal
        # entries near 1e4 at n = 20 the constant term is about 1e80.
        n = 20
        diagonal = [10_000 + 37 * i for i in range(n)]
        a = np.triu(np.arange(n * n, dtype=np.int64).reshape(n, n) % 3, 1)
        a[np.diag_indices(n)] = diagonal
        poly = char_poly_exact(a)
        assert max(abs(c) for c in poly.coeffs) > 2 ** 63
        assert poly == charpoly_product(CharPoly((-x,)) for x in diagonal)

    def test_all_ones_at_the_size_cap(self):
        # J_64 has rank one with trace 64: charpoly x^63 (x - 64).
        poly = char_poly_exact(np.ones((64, 64), dtype=np.int64))
        assert poly.coeffs == (0,) * 63 + (-64,)
        with pytest.raises(SizeLimit):
            char_poly_exact(np.ones((65, 65), dtype=np.int64))

    def test_evaluation(self, k2_plus):
        value = 0.0
        for c in reversed(digraph_charpoly(k2_plus).full()):
            value = value * GOLDEN + c
        assert abs(value) < 1e-12

    def test_float_and_object_input_convert_exactly(self):
        # 1e20 and 2**63 are integers that int64 cannot hold.
        assert char_poly_exact([[1e20, 0.0], [0.0, 1.0]]) == CharPoly((10 ** 20, -10 ** 20 - 1))
        assert char_poly_exact([[2.0 ** 63]]) == CharPoly((-2 ** 63,))
        assert char_poly_exact(np.array([[2 ** 64 - 1]], dtype=np.uint64)) == \
            CharPoly((-2 ** 64 + 1,))

    @pytest.mark.parametrize("mat", [
        [[math.inf]], [[math.nan]], [[0.5]], np.array([[math.inf]], dtype=object),
        np.array([[math.nan]], dtype=object), [[True, False], [False, True]],
        np.array([[True, False], [True, True]], dtype=object),
    ], ids=["inf", "nan", "half", "object-inf", "object-nan", "bool", "object-bool"])
    def test_rejects_non_integral_and_bool_input(self, mat):
        with pytest.raises(LoopspecError):
            char_poly_exact(mat)


class TestLinearSubdigraphCharpoly:
    def test_loop_triangle(self, loop_c3):
        assert linear_subdigraph_charpoly(loop_c3).full() == (-1, 1, -2, 1)

    def test_acyclic_loopless(self, path3):
        assert linear_subdigraph_charpoly(path3).full() == (0, 0, 0, 1)

    def test_digon(self, k2_digon):
        assert linear_subdigraph_charpoly(k2_digon).full() == (-1, 0, 1)

    def test_matches_faddeev_leverrier_exhaustively(self):
        for d in iterate_all(3):
            assert linear_subdigraph_charpoly(d) == digraph_charpoly(d)

    def test_matches_faddeev_leverrier_random(self):
        for seed in range(40):
            n = 4 + seed % 4
            d = random_digraph(n, 0.45, 0.45, seed)
            assert linear_subdigraph_charpoly(d) == digraph_charpoly(d)

    def test_matches_faddeev_leverrier_on_n4_classes(self):
        masks, _ = orbit_classes(4)
        for mask in masks:
            d = digraph_from_bits(4, mask)
            assert linear_subdigraph_charpoly(d) == digraph_charpoly(d)

    def test_complete_with_every_loop(self):
        # The most cycle unions at each order: every partial permutation.
        for n in range(1, 9):
            d = complete(n, range(n))
            assert linear_subdigraph_charpoly(d) == digraph_charpoly(d)

    def test_size_limit(self):
        with pytest.raises(SizeLimit):
            linear_subdigraph_charpoly(new_digraph(9))
        with pytest.raises(SizeLimit):
            linear_subdigraph_charpoly_many(np.zeros((2, 9, 9), dtype=np.int64))

    def test_rejects_entries_other_than_0_and_1(self):
        for mat in ([[[2]]], [[[0, -1], [1, 0]]], [[[0.5]]]):
            with pytest.raises(LoopspecError):
                linear_subdigraph_charpoly_many(mat)

    @staticmethod
    def _stack_matches_the_dfs(graphs):
        stack = np.stack([adjacency(d) for d in graphs])
        assert linear_subdigraph_charpoly_many(stack) == [
            cycle_cover_charpoly_dfs(d) for d in graphs]

    def test_stack_matches_the_dfs_on_every_class_to_n4(self):
        for n in range(1, 5):
            self._stack_matches_the_dfs([digraph_from_bits(n, mask)
                                         for mask in orbit_classes(n)[0]])

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_stack_matches_the_dfs_on_seeded_graphs(self, n):
        # 300 graphs per order, at arc densities 0.2, 0.4 and 0.6.
        self._stack_matches_the_dfs([random_digraph(n, (1 + seed % 3) / 5, 0.5, seed)
                                     for seed in range(300)])

    def test_edge_cases_match_the_dfs(self):
        # One vertex with and without its loop, the empty graph at each
        # order, and the complete digraph with every loop at n = 8, whose
        # cycle unions, one per partial permutation, give the largest
        # counts the kernel meets.
        graphs = [empty_digraph(1, [0])] + [new_digraph(n) for n in range(1, 9)]
        for d in graphs + [complete(8, range(8))]:
            assert linear_subdigraph_charpoly(d) == cycle_cover_charpoly_dfs(d)
        assert linear_subdigraph_charpoly(empty_digraph(1, [0])).full() == (-1, 1)
        assert linear_subdigraph_charpoly(new_digraph(8)).full() == (0,) * 8 + (1,)
        # det(lambda I - J) = lambda^7 (lambda - 8)
        assert linear_subdigraph_charpoly(complete(8, range(8))).full() == (0,) * 7 + (-8, 1)

    def test_one_graph_form_is_its_stack_row(self):
        graphs = [random_digraph(6, 0.5, 0.5, seed) for seed in range(8)]
        stack = linear_subdigraph_charpoly_many(np.stack([adjacency(d) for d in graphs]))
        assert [linear_subdigraph_charpoly(d) for d in graphs] == stack


class TestCharpolyProduct:
    def test_disjoint_union_factorization(self, fig_union, k2_plus, loop_c3):
        product = charpoly_product([digraph_charpoly(k2_plus),
                                    digraph_charpoly(loop_c3)])
        assert product == digraph_charpoly(fig_union)


class TestEigenvalues:
    def test_golden_pair(self, k2_plus):
        spec = digraph_spectrum(k2_plus)
        assert abs(spec.values[0] - GOLDEN) < 1e-12
        assert abs(spec.values[1] - (1 - GOLDEN)) < 1e-12

    def test_loop_triangle_reported_digits(self, loop_c3):
        spec = digraph_spectrum(loop_c3)
        assert round(spec.values[0].real, 4) == 1.7549
        assert abs(spec.values[0].imag) < 1e-10
        assert round(spec.values[1].real, 4) == 0.1226
        assert round(spec.values[1].imag, 4) == 0.7449
        assert round(spec.values[2].imag, 4) == -0.7449

    def test_all_ones(self):
        spec = eigenvalues(np.ones((5, 5)))
        assert abs(spec.values[0] - 5) < 1e-9
        assert all(abs(z) < 1e-9 for z in spec.values[1:])

    def test_canonical_order(self):
        values = eigenvalues(np.diag([3.0, -1.0, 2.0])).values
        assert values == (3.0 + 0j, 2.0 + 0j, -1.0 + 0j)

    def test_conjugates_exact(self):
        for seed in range(25):
            d = random_digraph(5, 0.5, 0.4, seed)
            values = digraph_spectrum(d).values
            multiset = sorted(values, key=lambda z: (z.real, z.imag))
            mirrored = sorted((z.conjugate() for z in values),
                              key=lambda z: (z.real, z.imag))
            assert multiset == mirrored

    def test_scrambled_nilpotent_is_exactly_zero(self):
        d = new_digraph(4, [(2, 0), (0, 3), (3, 1)], [])
        assert digraph_spectrum(d).values == (0j, 0j, 0j, 0j)

    def test_defective_eigenvalue_recovered(self):
        # charpoly (x - 1)^2 (x + 1) with a one-dimensional eigenspace at 1
        a = np.array([[1, 1, 0], [0, 0, 1], [0, 1, 0]])
        assert matching_distance(eigenvalues(a).values, [1, 1, -1]) < 1e-10

    def test_close_simple_eigenvalues_stay_distinct(self):
        poly = digraph_charpoly(CLOSE_PAIR)
        assert square_free_decomposition(poly.full()) == [(list(poly.full()), 1)]
        values = digraph_spectrum(CLOSE_PAIR).values
        near = sorted(z.real for z in values if abs(z.real + 0.375) < 0.01)
        assert near == [pytest.approx(-0.37720285, abs=1e-8),
                        pytest.approx(-0.37331368, abs=1e-8)]
        assert matching_distance(values, poly_roots(poly)) < 1e-8
        report = trace_identities(CLOSE_PAIR)
        assert report.sum_ok and report.sumsq_ok and report.re_im_ok

    def test_residual_contract(self):
        for seed in range(25):
            d = random_digraph(5, 0.5, 0.5, seed)
            a = adjacency(d)
            spec = eigenvalues(a)
            scale = max(1.0, float(np.linalg.norm(a.astype(float))))
            assert len(spec.residuals) == 5
            assert max(spec.residuals) <= 1e-10 * scale

    def test_residuals_optional(self, k2_plus):
        spec = digraph_spectrum(k2_plus, with_residuals=False)
        assert spec.residuals == ()

    def test_rejects_non_finite(self):
        with pytest.raises(LoopspecError):
            eigenvalues(np.array([[np.nan, 0], [0, 1]]))


class TestSquareFreeDecomposition:
    def test_mixed_multiplicities(self):
        # (x - 1)^3 (x + 2) = x^4 - x^3 - 3 x^2 + 5 x - 2
        factors = square_free_decomposition([-2, 5, -3, -1, 1])
        assert factors == [([2, 1], 1), ([-1, 1], 3)]

    def test_square_free_input(self):
        factors = square_free_decomposition([-1, -1, 1])
        assert factors == [([-1, -1, 1], 1)]

    @staticmethod
    def _rebuilt(full):
        polys = []
        for coeffs, mult in square_free_decomposition(full):
            assert coeffs[-1] == 1 and len(coeffs) > 1
            polys.extend([CharPoly(tuple(coeffs[:-1]))] * mult)
        return charpoly_product(polys).full()

    def test_reconstruction(self):
        full = (-2, 5, -3, -1, 1)  # (x - 1)^3 (x + 2)
        assert self._rebuilt(full) == full

    def test_reconstructs_every_n4_class_charpoly(self):
        masks, _ = orbit_classes(4)
        assert len(masks) == 3044
        for mask in masks:
            full = digraph_charpoly(digraph_from_bits(4, mask)).full()
            assert self._rebuilt(full) == full

    def test_three_multiplicities(self):
        # (x - 1)^5 (x + 1)^3 (x^2 + x + 1)^2, factors by multiplicity
        full = charpoly_product([CharPoly((-1,))] * 5 + [CharPoly((1,))] * 3
                                + [CharPoly((1, 1))] * 2).full()
        assert square_free_decomposition(full) == [
            ([1, 1, 1], 2), ([1, 1], 3), ([-1, 1], 5)]
        assert self._rebuilt(full) == full

    def test_inexact_division_rejected(self):
        assert _divide_monic([-1, 0, 1], [1, 1]) == [-1, 1]
        with pytest.raises(LoopspecError):
            _divide_monic([1, 0, 1], [1, 1])   # x^2 + 1 = (x + 1)(x - 1) + 2

    def test_non_monic_rejected(self):
        with pytest.raises(LoopspecError):
            square_free_decomposition([-2, 0, 2])


class TestPolyRoots:
    def test_golden(self):
        roots = poly_roots(CharPoly((-1, -1))).values
        assert abs(roots[0] - GOLDEN) < 1e-12
        assert abs(roots[1] - (1 - GOLDEN)) < 1e-12

    def test_repeated_root_exact_multiplicity(self):
        # (x - 1)^4
        spec = poly_roots([1, -4, 6, -4, 1])
        assert all(abs(z - 1) < 1e-10 for z in spec.values)
        assert len(spec.values) == 4

    def test_loop_triangle_roots(self, loop_c3):
        spec = poly_roots(digraph_charpoly(loop_c3))
        assert round(spec.values[0].real, 4) == 1.7549
        assert round(spec.values[1].real, 4) == 0.1226
        assert round(spec.values[1].imag, 4) == 0.7449

    def test_double_pair_with_zeros(self):
        # (x^2 - 2x)^2 = x^4 - 4x^3 + 4x^2
        spec = poly_roots([0, 0, 4, -4, 1])
        assert matching_distance(spec.values, [2, 2, 0, 0]) < 1e-12

    def test_residuals_bounded(self, loop_c3):
        spec = poly_roots(digraph_charpoly(loop_c3))
        assert max(spec.residuals) <= 1e-9

    def test_close_real_roots_converge(self):
        # From random_digraph(7, 0.5, 0.5, 70928).  Aberth's step on the root
        # 0.68154, 7.9e-4 from the root 0.68233, alternates between two
        # adjacent doubles and never falls below 1e-14 relative.
        coeffs = (3, -6, -2, 7, -3, 6, -5, 1)
        spec = poly_roots(coeffs)
        assert len(spec.values) == 7
        assert max(spec.residuals) <= 1e-15
        reals = sorted(z.real for z in spec.values if z.imag == 0)
        assert reals[1] == pytest.approx(0.68154110, abs=1e-8)
        assert reals[2] == pytest.approx(0.68232780, abs=1e-8)
        qr = eigenvalues(np.polynomial.polynomial.polycompanion(coeffs))
        assert matching_distance(spec, qr) < 1e-8

    def test_degree_zero_rejected(self):
        with pytest.raises(LoopspecError):
            poly_roots([1])

    def test_non_monic_rejected(self):
        with pytest.raises(LoopspecError):
            poly_roots([1, 2])


class TestOracleAgreement:
    def test_exhaustive_n3(self):
        for d in iterate_all(3):
            qr = digraph_spectrum(d, with_residuals=False)
            roots = poly_roots(digraph_charpoly(d))
            assert matching_distance(qr, roots) < 1e-8


class TestMatchingDistance:
    def test_identical(self):
        assert matching_distance([1, 2j], [2j, 1]) == 0

    def test_length_mismatch(self):
        assert matching_distance([1], [1, 2]) == float("inf")

    def test_greedy_trap_resolved_by_fallback(self):
        # Greedy pairing from the largest value can pick the wrong partner;
        # the exhaustive fallback must find the zero-cost matching.
        xs = [0.0, 1.0]
        ys = [1.0, 0.0]
        assert matching_distance(xs, ys) == 0


# ---------------------------------------------------------------------------
# Batch kernels against one-matrix references

ABERTH_RTOL = 1e-13   # batched roots against the scalar iteration, relative


def object_charpoly(mat) -> CharPoly:
    """Faddeev-LeVerrier on a numpy object array of Python ints throughout."""
    a = np.array([[int(x) for x in row] for row in np.asarray(mat).tolist()], dtype=object)
    n = len(a)
    coeffs = [0] * n
    am = a.copy()
    for k in range(1, n + 1):
        c = -(am.trace() // k)
        coeffs[n - k] = c
        if k < n:
            am.flat[::n + 1] += c
            am = a.dot(am)
    return CharPoly(tuple(coeffs))


def scalar_aberth(coeffs, max_iter):
    """Aberth-Ehrlich on one square-free polynomial, one root at a time:
    the iteration the batched one replaced, with the same stopping rules."""
    deg = len(coeffs) - 1
    if deg == 1:
        return [complex(-coeffs[0])]
    noise = 2 * deg * sys.float_info.epsilon
    radius = 1.0 + max(abs(c) for c in coeffs[:-1])
    roots = [radius * cmath.exp(2j * cmath.pi * (k + 0.25) / deg + 0.35j)
             for k in range(deg)]
    for _ in range(max_iter):
        shift = 0.0
        at_noise = True
        new_roots = list(roots)
        for i, z in enumerate(roots):
            p, dp = _horner_pair(coeffs, z)
            at_noise = at_noise and abs(p) <= noise * _rounding_scale(coeffs, abs(z))
            if p == 0:
                continue
            if dp == 0:
                new_roots[i] = z * (1 + 1e-6) + 1e-6
                shift = float("inf")
                continue
            w = p / dp
            s = sum(1 / (z - roots[j]) for j in range(deg) if j != i)
            denom = 1 - w * s
            step = w / denom if denom != 0 else w
            new_roots[i] = z - step
            shift = max(shift, abs(step) / (1 + abs(z)))
        roots = new_roots
        if shift <= 1e-14 or at_noise:
            break
    else:
        raise NoConvergence(f"Aberth iteration cap {max_iter} reached")
    for i, z in enumerate(roots):
        for _ in range(2):
            p, dp = _horner_pair(coeffs, z)
            if dp == 0 or p == 0:
                break
            z = z - p / dp
        roots[i] = z
    return roots


def _stack(graphs) -> np.ndarray:
    return np.array([adjacency(d) for d in graphs])


def _n4_classes():
    return [digraph_from_bits(4, mask) for mask in orbit_classes(4)[0]]


def _seeded_n7(count=1000):
    return [random_digraph(7, 0.5, 0.5, seed) for seed in range(count)]


class TestBatchKernels:
    @pytest.mark.parametrize("graphs", [lambda: list(iterate_all(3)), _n4_classes, _seeded_n7],
                             ids=["all-n3", "n4-classes", "seeded-n7"])
    def test_int64_charpolys_match_the_object_path(self, graphs):
        stack = _stack(graphs())
        assert char_poly_exact_many(stack) == [object_charpoly(a) for a in stack]

    @pytest.mark.parametrize("stack", [
        np.random.default_rng(0).integers(0, 4, (2, 30, 30)),
        np.array([[[2 ** 31 - 1, 2 ** 31 - 5, 3], [7, 2 ** 31 - 2, 1], [2 ** 30, 0, 2 ** 31 - 9]],
                  [[0, 1, 0], [0, 0, 1], [1, 0, 0]]], dtype=np.int64),
    ], ids=["dense-n30", "near-2^31"])
    def test_guard_falls_back_to_python_ints(self, stack, monkeypatch):
        verdicts = []
        guard = linalg._fits_int64
        monkeypatch.setattr(linalg, "_fits_int64",
                            lambda bound, n: verdicts.append(guard(bound, n)) or verdicts[-1])
        assert char_poly_exact_many(stack) == [object_charpoly(a) for a in stack]
        assert False in verdicts

    @pytest.mark.parametrize("n, fits", [(9, True), (10, False)])
    def test_one_guard_decision_per_stack(self, n, fits, monkeypatch):
        # The bound on the last product of an all-ones matrix,
        # (n (n + 1))^(n - 1), passes the guard at n = 9 only.
        verdicts = []
        guard = linalg._fits_int64
        monkeypatch.setattr(linalg, "_fits_int64",
                            lambda bound, n: verdicts.append(guard(bound, n)) or verdicts[-1])
        stack = np.random.default_rng(n).integers(0, 2, (4, n, n))
        stack[0] = 1
        assert char_poly_exact_many(stack) == [object_charpoly(a) for a in stack]
        assert verdicts == [fits]

    def test_fallback_at_the_start(self):
        big = np.array([[[2 ** 62, 1], [1, 0]]], dtype=object)
        assert char_poly_exact_many(big) == [CharPoly((-1, -2 ** 62))]

    def test_stacked_qr_spectra_equal_one_matrix_calls_bitwise(self):
        stack = _stack(_seeded_n7(300))
        batch = eigenvalues_many(stack, with_residuals=False)
        assert [repr(s.values) for s in batch] == [
            repr(eigenvalues(a, with_residuals=False).values) for a in stack]
        with_residuals = eigenvalues_many(stack[:20])
        assert [repr(s) for s in with_residuals] == [repr(eigenvalues(a)) for a in stack[:20]]

    def test_rows_without_a_close_pair_skip_the_polish_bitwise(self):
        # Such a row's spectrum is its sorted LAPACK values: the polish
        # would only turn a -0.0 into 0.0, as the last stack's matrices
        # make LAPACK return, once as the real part of a conjugate pair.
        stacks = [_stack(digraph_from_bits(n, mask) for mask in orbit_classes(n)[0])
                  for n in range(1, 5)]
        stacks += [_stack(random_digraph(7, 0.5, 0.5, seed + i) for i in range(48))
                   for seed in N7_SEEDS]
        stacks.append(np.array([[[-0.0, 0.0], [0.0, 1.0]], [[0.0, -1.0], [1.0, -0.0]]]))
        skipped = total = 0
        for stack in stacks:
            a = stack.astype(float)
            scales = np.maximum(1.0, np.sqrt(np.einsum("kij,kij->k", a, a)))
            raw = np.linalg.eigvals(a).astype(complex)
            skipped += int(linalg._no_close_pair(raw, scales).sum())
            total += len(a)
            assert [repr(s) for s in eigenvalues_many(a, with_residuals=False)] == [
                repr(linalg._polished_spectrum(mat, scale, values, False))
                for mat, scale, values in zip(a, scales.tolist(), raw.tolist())]
        assert 0 < skipped < total

    def test_batched_aberth_matches_the_scalar_iteration(self):
        factors, caps = [], []
        for d in _n4_classes() + _seeded_n7():
            full = list(digraph_charpoly(d).full())
            while full[0] == 0 and len(full) > 1:
                full.pop(0)
            for factor, _ in (square_free_decomposition(full) if len(full) > 1 else []):
                factors.append([float(c) for c in factor])
                caps.append(100 * (len(full) - 1))
        assert max(len(f) for f in factors) == 8
        for factor, cap, roots in zip(factors, caps, _aberth_many(factors, caps)):
            reference = scalar_aberth(factor, cap)
            scale = max(1.0, max(abs(z) for z in reference))
            assert matching_distance(roots, reference) <= ABERTH_RTOL * scale

    def test_repeated_polynomials_equal_one_polynomial_calls(self):
        # The charpolys of every class with n <= 4, in class order, repeat
        # (32 distinct of 104 at n = 3, 333 of 3,044 at n = 4): each row of
        # one call is its polynomial's own call, to the bit, so a batch may
        # compute each distinct polynomial once.
        for n in (3, 4):
            polys = char_poly_exact_many(_stack(
                digraph_from_bits(n, mask) for mask in orbit_classes(n)[0]))
            alone = {p: repr(poly_roots(p)) for p in polys}
            assert len(alone) < len(polys)
            assert [repr(s) for s in poly_roots_many(polys)] == [alone[p] for p in polys]

    def test_mixed_charpolys_up_to_order_5_equal_one_polynomial_calls(self):
        # The charpoly keys of a sweep rely on this: up to n = 5, a
        # polynomial's roots in one call beside other polynomials are its
        # own call's to the bit.  Its square-free factors then pad to fewer
        # than 8 root slots, and the Aberth sums do not regroup.  All 333
        # distinct n = 4 charpolys and 300 seeded n = 5 ones, interleaved.
        n4 = char_poly_exact_many(_stack(_n4_classes()))
        n5 = char_poly_exact_many(_stack(random_digraph(5, 0.5, 0.5, seed)
                                         for seed in range(300)))
        distinct = list(dict.fromkeys(n4 + n5))
        assert len(set(n4)) == 333 and len(distinct) > 400
        mixed = distinct[::2] + distinct[1::2]
        assert [repr(s) for s in poly_roots_many(mixed)] == [repr(poly_roots(p)) for p in mixed]

    def test_close_pair_converges_in_a_batch(self):
        # The coefficients of test_close_real_roots_converge, next to a
        # quadratic that converges sooner.
        close = (3, -6, -2, 7, -3, 6, -5, 1)
        out = poly_roots_many([close, (-1, -1, 1)])
        assert matching_distance(out[0], poly_roots(close)) <= ABERTH_RTOL * 2
        assert max(out[0].residuals) <= 1e-15

    def test_a_failing_polynomial_leaves_the_others(self):
        polys = [(-1, -1, 1), (1, 2), (1, -4, 6, -4, 1), (1,)]
        out = poly_roots_many(polys)
        assert isinstance(out[1], LoopspecError) and isinstance(out[3], LoopspecError)
        for i in (0, 2):
            assert matching_distance(out[i], poly_roots(polys[i])) <= ABERTH_RTOL * 2

    def test_iteration_cap_is_a_row_error(self):
        sextic = [2.0, 0.0, -3.0, -5.0, 11.0, -6.0, 1.0]
        out = _aberth_many([[-1.0, -1.0, 1.0], sextic], [1, 600])
        assert isinstance(out[0], NoConvergence) and "cap 1 " in str(out[0])
        assert matching_distance(out[1], scalar_aberth(sextic, 600)) <= ABERTH_RTOL * 5
