"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run with
``pytest -s tests/test_acceptance.py`` to see them) and then asserts.

Criterion 5 pins a genuine mathematical finding: at n = 4 the McClelland
equality census contains exactly one graph outside the published equality
families, the directed triangle with a looped isolated vertex.  The test
asserts that this witness, and nothing else, is reported, and proves in
exact arithmetic that it attains the bound (E = 3 = sqrt(9)).
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

from loopspec import (complete_bipartite, directed_cycle, disjoint_union,
                      energy, matching_distance, new_digraph)
from loopspec.bounds import mcclelland, mcclelland_equality_family
from loopspec.formats import from_json_dict
from loopspec.graphs import count_two_cycles
from loopspec.linalg import adjacency, linear_subdigraph_charpoly, poly_roots
from loopspec.spectral import GraphFacts, complement_spectrum_regular, regular_energy_sum
from loopspec.sweep import random_digraph, sweep
from digraph_helpers import digraph_charpoly, digraph_spectrum, iterate_all
from mcclelland_witness import is_triangle_plus_looped_vertex


def report(criterion: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {criterion}: {status}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    return ok


def test_criterion_1_worked_example():
    """Looped digon, looped triangle, and their union: spectra to four
    decimals, energies to the stated tolerances, in under a second."""
    start = time.perf_counter()
    k2_plus = new_digraph(2, [(0, 1), (1, 0)], [0])
    loop_c3 = directed_cycle(3, [0, 2])
    union = disjoint_union([k2_plus, loop_c3])

    golden = digraph_spectrum(k2_plus).values
    ok = round(golden[0].real, 4) == 1.6180 and round(golden[1].real, 4) == -0.6180
    tri = digraph_spectrum(loop_c3).values
    ok &= round(tri[0].real, 4) == 1.7549
    ok &= round(tri[1].real, 4) == 0.1226 and round(tri[1].imag, 4) == 0.7449
    ok &= round(tri[2].real, 4) == 0.1226 and round(tri[2].imag, 4) == -0.7449

    e_pair = energy(k2_plus).energy
    e_tri = energy(loop_c3).energy
    e_union = energy(union).energy
    ok &= abs(e_pair - math.sqrt(5)) <= 1e-9
    ok &= abs(e_tri - 2.1764) <= 5e-5
    ok &= abs(e_union - 4.3458) <= 5e-5
    ok &= abs((e_pair + e_tri) - 4.4125) <= 5e-5
    ok &= e_union < e_pair + e_tri

    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    assert report("1 worked example", ok, f"{elapsed:.2f}s")


def test_criterion_2_bipartite_family():
    """Looped complete bipartite n x (n-1) for n = 2..8: known spectrum,
    closed-form energies, and the regular energy-sum formula."""
    start = time.perf_counter()
    ok = True
    for n in range(2, 9):
        d = complete_bipartite(n, n - 1, loops=range(n))
        facts = GraphFacts(d, with_residuals=True)
        order = 2 * n - 1
        expected = ([complex(n)] + [complex(1)] * (n - 1)
                    + [complex(0)] * (n - 2) + [complex(1 - n)])
        ok &= matching_distance(facts.spectrum.values, expected) <= 1e-8

        e = facts.energy_value()
        e_bar = facts.complement_facts.energy_value()
        e_expected = 2 * (3 * n - 1) * (n - 1) / (2 * n - 1)
        e_bar_expected = 8 * (n - 1) ** 2 / (2 * n - 1)
        both_expected = 2 * (7 * n - 5) * (n - 1) / (2 * n - 1)
        ok &= abs(e - e_expected) <= 1e-7 * e_expected
        ok &= abs(e_bar - e_bar_expected) <= 1e-7 * e_bar_expected
        ok &= abs((e + e_bar) - both_expected) <= 1e-7 * both_expected

        # sigma = n > order/2, so the high-loop branch of the closed form
        closed = regular_energy_sum(facts)
        ok &= abs(closed - (e + e_bar)) <= 1e-7 * max(1.0, e + e_bar)

        mapped = complement_spectrum_regular(facts)
        ok &= matching_distance(mapped, facts.complement_facts.spectrum) <= 1e-8
        assert facts.regularity == n and order == facts.n

    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    assert report("2 bipartite family n=2..8", ok, f"{elapsed:.2f}s")


CRITERION_3_CHECKS = [
    "mcclelland", "rho_lower", "rho_upper", "energy_lower_c2",
    "power_sums", "component_gap", "sufficient_condition",
    "necessary_condition", "trace_identities", "charpoly_invariance",
    "zero_energy", "complement_involution",
]


def test_criterion_3_exhaustive_small_orders():
    """Every bound, identity, and implication on all 66,066 loop-digraphs
    with n <= 4; zero violations, single-threaded, under two minutes."""
    start = time.perf_counter()
    ok = True
    total = 0
    for n in (1, 2, 3, 4):
        rep = sweep(n, CRITERION_3_CHECKS)
        total += rep.graphs_checked
        ok &= rep.graphs_checked == 1 << (n * n)
        ok &= not rep.counterexamples
        for name, tally in rep.checks.items():
            ok &= tally.failed == 0
    elapsed = time.perf_counter() - start
    ok &= total == 2 + 16 + 512 + 65536
    ok &= elapsed < 120.0
    assert report("3 exhaustive n<=4 sweep", ok,
                  f"{total} graphs, {elapsed:.1f}s")


def test_criterion_4_oracle_equivalence():
    """Both eigenvalue routes and both charpoly routes agree: all 512
    order-3 graphs plus 5000 seeded random graphs with n <= 7."""
    start = time.perf_counter()
    ok = True

    def graph_ok(d):
        exact = digraph_charpoly(d)
        if linear_subdigraph_charpoly(d) != exact:
            return False
        qr = digraph_spectrum(d, with_residuals=False)
        return matching_distance(qr, poly_roots(exact)) < 1e-8

    for d in iterate_all(3):
        ok &= graph_ok(d)
    for seed in range(5000):
        rnd = random.Random(seed ^ 0x5F5F)
        n = rnd.randint(1, 7)
        d = random_digraph(n, rnd.random(), rnd.random(), seed)
        ok &= graph_ok(d)

    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    assert report("4 oracle equivalence", ok, f"{elapsed:.1f}s")


def _unproven_witness_steps(d) -> list[str]:
    """Steps of the exact proof that d attains the McClelland bound and is
    none of the published families; returns the steps that fail."""
    n, m, c2, sigma = d.n, d.m, count_two_cycles(d), d.sigma
    a = adjacency(d)
    # Roots of (x-1)^2 and the real part -1/2 of the complex pair of x^2+x+1.
    re_parts = [Fraction(1), Fraction(1), Fraction(-1, 2), Fraction(-1, 2)]
    center = Fraction(sigma, n)
    e = sum(abs(r - center) for r in re_parts)
    radicand = Fraction(n, 2) * (m + c2 + 2 * sigma - Fraction(2 * sigma ** 2, n))
    steps = {
        # x^4 - x^3 - x + 1 = (x-1)^2 (x^2+x+1), coefficients ascending
        "charpoly (x-1)^2 (x^2+x+1)": digraph_charpoly(d).full() == (1, -1, 0, -1, 1),
        "A A^T == A^T A": bool((a @ a.T == a.T @ a).all()),
        "every |Re - sigma/n| == 3/4":
            {abs(r - center) for r in re_parts} == {Fraction(3, 4)},
        "E == 3": e == 3,
        "radicand == E^2 == 9": radicand == e * e == 9,
        "certificate flags equality": mcclelland(d).equality,
        "no published family": mcclelland_equality_family(d) is None,
    }
    return [name for name, holds in steps.items() if not holds]


def test_criterion_5_equality_census(census_n4):
    """Equality census at n = 2 and n = 4 against the published equality
    characterizations.

    The rho-lower structural implication holds everywhere (5a).  The
    McClelland census is empty at n = 2 and at n = 4 holds exactly one graph
    outside the published families (5b): the directed triangle plus one
    looped isolated vertex.  Its adjacency matrix is normal, its spectrum is
    {1, 1, -1/2 +- (sqrt(3)/2)i}, and every real part deviates from
    sigma/n = 1/4 by exactly 3/4, so both inequalities in the bound's proof
    are tight: E = 3 = sqrt((4/2)*(3 + 0 + 2 - 1/2)).  The test proves each
    of these steps in exact integer and rational arithmetic.
    """
    findings = {}
    rho_structure_ok = True
    for n, rep in ((2, sweep(2, ["mcclelland", "rho_lower"])), (4, census_n4)):
        findings[n] = rep.census_findings
        rho_structure_ok &= not any(
            f["bound_id"] == "rho_lower" for f in rep.census_findings)
    report("5a rho-lower equality implies bidegree structure", rho_structure_ok)
    assert rho_structure_ok

    problems = []
    if findings[2]:
        problems.append(f"n = 2 findings: {findings[2]}")
    if (len(findings[4]) == 1 and findings[4][0]["bound_id"] == "mcclelland"
            and is_triangle_plus_looped_vertex(findings[4][0]["graph"])):
        problems += _unproven_witness_steps(from_json_dict(findings[4][0]["graph"]))
    else:
        problems.append(f"n = 4 findings are not the triangle witness: {findings[4]}")
    ok = not problems
    report("5b McClelland census is the published families plus the proven "
           "triangle witness", ok, "; ".join(problems))
    assert ok, problems


def test_criterion_6_regular_complement_spectrum():
    """For every regular digraph with n <= 4, the shifted spectrum map
    reproduces the complement's spectrum within 1e-8."""
    start = time.perf_counter()
    ok = True
    checked = 0
    for n in (1, 2, 3, 4):
        for d in iterate_all(n):
            facts = GraphFacts(d)
            if facts.regularity is None:
                continue
            checked += 1
            mapped = complement_spectrum_regular(facts)
            direct = facts.complement_facts.spectrum
            ok &= matching_distance(mapped, direct) <= 1e-8
    elapsed = time.perf_counter() - start
    assert report("6 regular complement spectrum map", ok,
                  f"{checked} regular digraphs, {elapsed:.1f}s")
