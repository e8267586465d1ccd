"""The decision layer: each helper against the inline comparison it
replaced, on both sides of every boundary, and a guard that keeps
tolerance literals out of the modules that decide through it."""

from __future__ import annotations

import ast
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import loopspec
from loopspec import bounds
from loopspec.errors import BadTolerance, LoopspecError
from loopspec.linalg import Spectrum
from loopspec.sweep import sweep
from loopspec.tolerances import (CLOSED_FORM_RTOL, ENERGY_CERTAINTY, ENERGY_RECHECK_BAND,
                                 PERRON_TOL, RECHECK_BAND, SPECTRUM_MATCH_TOL,
                                 THRESHOLD_EPS, ZERO_ENERGY_TOL, agrees, certain_margin,
                                 equality_tol, perron_attained, recheck, scaled,
                                 slack_verdict, spectra_match, threshold_side)

SOURCE = Path(loopspec.__file__).parent


def around(*points: float) -> list[float]:
    """Each point and one representable step to either side of it."""
    return sorted({q for p in points
                   for q in (math.nextafter(p, -math.inf), p, math.nextafter(p, math.inf))})


@pytest.fixture(params=[None, "0.05"], ids=["default", "0.05"])
def tol(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setenv("LOOPSPEC_TOL", request.param)
    return equality_tol()


class TestThresholdSide:
    @pytest.mark.parametrize("t", [0.0, 0.5, 2 / 3, -1 / 3, 1.0, -0.75, 3.0])
    def test_matches_the_three_replaced_helpers(self, t):
        eps = THRESHOLD_EPS
        sides = set()
        for x in around(t - eps, t, t + eps):
            side = threshold_side(x, t)
            sides.add(side)
            assert (side > 0) == (x > t + eps)     # strictly_greater
            assert (side >= 0) == (x >= t - eps)   # at_least
            assert (side <= 0) == (x <= t + eps)   # at_most
        assert sides == {-1, 0, 1}


class TestRecheck:
    @pytest.mark.parametrize("rhs", [1.0, -2.5, 0.25, 37.0])
    def test_exact_route_exactly_inside_the_band(self, rhs, tol):
        for band in (RECHECK_BAND * tol, ENERGY_RECHECK_BAND):
            b = band * max(1.0, abs(rhs))
            outcomes = set()
            for lhs in around(rhs - b, rhs, rhs + b):
                calls = []

                def compute(verified: bool, lhs=lhs) -> tuple[float, float]:
                    calls.append(verified)
                    return (-1.0, -2.0) if verified else (lhs, rhs)

                inside = abs(rhs - lhs) <= band * max(1.0, abs(rhs))
                outcomes.add(inside)
                assert recheck(compute, band) == ((-1.0, -2.0) if inside else (lhs, rhs))
                assert calls == ([False, True] if inside else [False])
            assert outcomes == {True, False}

    @pytest.mark.parametrize("rhs", [1.0, 4.0])
    def test_certify_rechecks_inside_ten_tol(self, rhs, tol):
        # The modulus power sum's count side, m + sigma, is its rhs.
        facts = SimpleNamespace(n=4, m=int(rhs), c2=0, sigma=0)
        b = 10.0 * tol * max(1.0, abs(rhs))
        for lhs in around(rhs - b, rhs + b):
            calls = []

            def spectral(verified: bool, lhs=lhs) -> float:
                calls.append(verified)
                return lhs

            cert = bounds._certify(bounds.POWER_SUM_MODULUS, facts, spectral)
            assert (cert.lhs, cert.rhs) == (lhs, rhs)
            assert calls == ([False, True] if abs(rhs - lhs) <= b else [False])


class TestSlackVerdict:
    # At rhs = 0 the slack lands on -m and m exactly.
    @pytest.mark.parametrize("rhs", [0.0, 1.0, -3.0, 0.5, 12.0])
    def test_certificate_flags(self, rhs, tol):
        scale = max(1.0, abs(rhs))
        m = tol * scale
        slacks = set()
        for lhs in around(rhs - m, rhs, rhs + m):
            slack, holds, equality, strict, violated = slack_verdict(lhs, rhs, tol)
            slacks.add(slack)
            assert slack == rhs - lhs
            assert holds == (slack >= -tol * scale)
            assert equality == (abs(slack) <= tol * scale)
            assert strict == (slack >= m) and violated == (slack <= -m)
        assert rhs != 0.0 or {m, -m} <= slacks

    @pytest.mark.parametrize("parts", [0.0, 1.0, 2.0, -4.0, 0.3])
    def test_energy_flags(self, parts):
        # lhs = E, rhs = sum E(D_i), as the implication records pass them.
        margin = ENERGY_CERTAINTY * max(1.0, abs(parts))
        seen = set()
        for total in around(parts - margin, parts, parts + margin):
            diff = total - parts
            _, holds, _, strict, violated = slack_verdict(total, parts, ENERGY_CERTAINTY)
            assert holds == (diff <= margin)
            assert strict == (diff <= -margin)
            assert violated == (not diff < margin)
            seen.add((holds, strict, violated))
        assert all(len({flags[i] for flags in seen}) == 2 for i in range(3))


class TestAgreement:
    @pytest.mark.parametrize("b", [0.0, 3.0, -1.5])
    def test_plain(self, b):
        tol = 1e-8 * 7
        for a in around(b - tol, b, b + tol):
            assert agrees(a, b, tol) == (abs(a - b) <= tol)

    def test_zero_energy(self):
        for energy in around(0.0, ZERO_ENERGY_TOL):
            if energy >= 0:
                assert agrees(energy, 0.0, ZERO_ENERGY_TOL) == (energy <= 1e-7)

    @pytest.mark.parametrize("direct", [0.5, 1.0, 6.0, 11.25])
    def test_closed_form(self, direct):
        bound = 1e-7 * max(1.0, abs(direct))
        outcomes = set()
        for closed in around(direct - bound, direct, direct + bound):
            fails = abs(closed - direct) > 1e-7 * max(1.0, abs(direct))
            outcomes.add(fails)
            assert (not agrees(closed, direct, scaled(CLOSED_FORM_RTOL, direct))) == fails
        assert outcomes == {True, False}

    @pytest.mark.parametrize("rho", [0.0, 1.0, 2.5])
    def test_perron(self, rho):
        t = 1e-8
        for re in around(-t, 0.0, rho - t, rho):
            for im in around(-t, 0.0, t):
                values = [complex(-rho - 1.0, 0.0), complex(re, im)]
                inline = any(abs(abs(z) - rho) <= t and abs(z.imag) <= t and z.real >= -t
                             for z in values)
                assert perron_attained(values, rho) == inline
        assert PERRON_TOL == t

    @pytest.mark.parametrize("base", [(), (complex(2.0, 1.0), complex(2.0, -1.0))])
    def test_spectra_match(self, base):
        outcomes = set()
        for d in around(SPECTRUM_MATCH_TOL):
            a = Spectrum(base + (complex(0.0, 0.0),))
            b = Spectrum(base + (complex(0.0, d),))
            match, dist = spectra_match(a, b)
            assert dist == d
            assert match == (not dist > 1e-8)
            outcomes.add(match)
        assert outcomes == {True, False}


@pytest.mark.parametrize("n", range(1, 9))
def test_certain_margin_is_one_tol_past_the_band(n, tol):
    for t in around(tol):
        assert certain_margin(n, t) == 11 * t + 2 * (n + 1) * sys.float_info.epsilon


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1", "abc", ""])
def test_bad_tolerance_is_a_loopspec_value_error(value, monkeypatch):
    monkeypatch.setenv("LOOPSPEC_TOL", value)
    with pytest.raises(BadTolerance) as info:
        equality_tol()
    assert isinstance(info.value, LoopspecError) and isinstance(info.value, ValueError)


def test_nan_tolerance_stops_a_sweep(monkeypatch):
    # Before the check, NaN passed and the empty graph read as a
    # McClelland counterexample with lhs = rhs = 0.
    monkeypatch.setenv("LOOPSPEC_TOL", "nan")
    with pytest.raises(BadTolerance):
        sweep(2, ["mcclelland"])


# ---------------------------------------------------------------------------
# No tolerance literal outside the layer

DECIDING_MODULES = ["bounds.py", "decomposition.py", "spectral.py", "sweep.py"]


def small_float_literals(source: str) -> list[tuple[int, float]]:
    """(line, value) of every float constant with 0 < |value| < 1e-3.
    Docstrings are string constants, so their text never counts."""
    return [(node.lineno, node.value) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and isinstance(node.value, float)
            and 0 < abs(node.value) < 1e-3]


def test_guard_sees_a_literal():
    source = '"""Compare within 1e-7."""\nok = abs(x) <= 1e-7 and y > -2e-9 and z > 0.5\n'
    assert small_float_literals(source) == [(2, 1e-7), (2, 2e-9)]


@pytest.mark.parametrize("module", DECIDING_MODULES)
def test_no_tolerance_literal_outside_the_layer(module):
    source = (SOURCE / module).read_text()
    assert small_float_literals(source) == []
    assert "10.0 * tol" not in source and "11 * tol" not in source


def imported_modules(source: str) -> set[str]:
    """The top-level name of every module an import statement names."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_import_guard_sees_fractions():
    source = "import math\nfrom fractions import Fraction\nfrom .graphs import x\n"
    assert imported_modules(source) == {"math", "fractions"}


def test_import_guard_sees_sympy():
    # Also inside a function, where an optional import would sit.
    source = "import sympy.polys as p\ndef f():\n    from sympy import Poly\n"
    assert imported_modules(source) == {"sympy"}
    assert imported_modules("def f():\n    import sympy\n") == {"sympy"}


# Every count side and ratio side is an exact integer, read through at most
# one correctly rounded division, so no module needs a rational type; exact
# algebra beyond that belongs to the bench's independent checks.
FORBIDDEN_IMPORTS = {"fractions", "sympy"}


@pytest.mark.parametrize("module", sorted(path.name for path in SOURCE.glob("*.py")))
def test_count_sides_use_no_fractions(module):
    assert not FORBIDDEN_IMPORTS & imported_modules((SOURCE / module).read_text())
