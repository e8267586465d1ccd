"""Every tolerance that decides a reported result, and every rule that
compares with one; the other modules compare floats only through here.

Solver contracts (clusters, residual caps, Aberth stops) decide no result
and stay in ``linalg``.  "Relative" means times max(1, |rhs|).

DEFAULT_EQUALITY_TOL 1e-7: ``bounds`` certificates hold at slack >= -tol
    and are equalities at |slack| <= tol, relative.  True equalities are
    identities the solvers reproduce to ~1e-12.  LOOPSPEC_TOL overrides it.
RECHECK_BAND 10: a certificate slack within 10 tol is recomputed from
    exact roots; ``certain_margin``, one tol further, gates the numpy pass.
THRESHOLD_EPS 1e-9: Re(lambda) against sigma/n and its kin, for the A and
    B sets, the positive part and the closed-form sum.  Closer values lie
    on neither side.
ENERGY_RECHECK_BAND 1e-6, ENERGY_CERTAINTY 1e-9: the implication records
    recompute E against the sum of component energies from exact roots
    within the first, relative, and cannot sign it within the second.
TRACE_TOL 1e-8 per vertex: the trace identities, positive part and loop
    shift, sums of n rounded terms against exact values.
SPECTRUM_MATCH_TOL 1e-8: the oracle roots and the regular complement map,
    two independent spectra each accurate to ~1e-12.
PERRON_TOL 1e-8: the value of largest modulus is real and nonnegative.
ZERO_ENERGY_TOL 1e-7: a zero energy, summed from rounded deviations.
CLOSED_FORM_RTOL 1e-7: the regular closed-form energy sum against
    E + E(complement), relative to the latter.
"""

from __future__ import annotations

import math
import os
import sys
from typing import Callable, Sequence

from .errors import BadTolerance
from .linalg import Spectrum, matching_distance

DEFAULT_EQUALITY_TOL = 1e-7
RECHECK_BAND = 10
THRESHOLD_EPS = 1e-9
ENERGY_RECHECK_BAND = 1e-6
ENERGY_CERTAINTY = 1e-9
TRACE_TOL = 1e-8
SPECTRUM_MATCH_TOL = 1e-8
PERRON_TOL = 1e-8
ZERO_ENERGY_TOL = 1e-7
CLOSED_FORM_RTOL = 1e-7


def equality_tol() -> float:
    """LOOPSPEC_TOL if set, which must be finite and positive, else
    DEFAULT_EQUALITY_TOL."""
    raw = os.environ.get("LOOPSPEC_TOL")
    if raw is None:
        return DEFAULT_EQUALITY_TOL
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise BadTolerance(f"LOOPSPEC_TOL must be a finite positive number, not {raw!r}")
    return value


def scaled(tol: float, x: float) -> float:
    """``tol`` relative to x."""
    return tol * max(1.0, abs(x))


def threshold_side(x: float, threshold: float) -> int:
    """1 above threshold + THRESHOLD_EPS, -1 below threshold - THRESHOLD_EPS,
    else 0: ``> 0`` is strictly greater, ``>= 0`` at least, ``<= 0`` at most."""
    if x > threshold + THRESHOLD_EPS:
        return 1
    if x < threshold - THRESHOLD_EPS:
        return -1
    return 0


def recheck(compute: Callable[[bool], tuple[float, float]],
            band: float) -> tuple[float, float]:
    """``compute(False)``, or ``compute(True)`` (the exact-root route) when
    the first rhs - lhs lies within ``band``, relative."""
    lhs, rhs = compute(False)
    if abs(rhs - lhs) <= scaled(band, rhs):
        lhs, rhs = compute(True)
    return lhs, rhs


def slack_verdict(lhs: float, rhs: float,
                  margin: float) -> tuple[float, bool, bool, bool, bool]:
    """(slack, holds, equality, strict, violated) of lhs <= rhs: with
    slack = rhs - lhs and m the relative ``margin``, slack >= -m,
    |slack| <= m, slack >= m and slack <= -m."""
    slack = rhs - lhs
    m = scaled(margin, rhs)
    return slack, slack >= -m, abs(slack) <= m, slack >= m, slack <= -m


def agrees(a: float | complex, b: float | complex, tol: float) -> bool:
    """|a - b| <= tol."""
    return abs(a - b) <= tol


def perron_attained(values: Sequence[complex], rho: float) -> bool:
    """Some value is real and nonnegative with modulus rho, within PERRON_TOL."""
    return any(agrees(abs(z), rho, PERRON_TOL) and agrees(z.imag, 0.0, PERRON_TOL)
               and z.real >= -PERRON_TOL for z in values)


def certain_margin(n: int, tol: float) -> float:
    """The relative margin past which an order-n certificate computed in
    numpy passes with neither re-check nor equality: one tol beyond the
    band, plus 2 (n + 1) eps for ``np.sum`` against ``math.fsum``."""
    return (RECHECK_BAND + 1) * tol + 2 * (n + 1) * sys.float_info.epsilon


def spectra_match(a: Spectrum, b: Spectrum) -> tuple[bool, float]:
    """(within SPECTRUM_MATCH_TOL, matching distance) of two spectra."""
    dist = matching_distance(a, b)
    return dist <= SPECTRUM_MATCH_TOL, dist
