"""Numeric tolerances and threshold-comparison helpers.

All inequality certificates share one equality tolerance (relative,
default 1e-7, overridable through the LOOPSPEC_TOL environment variable).
Classifying an eigenvalue's real part against a threshold such as sigma/n
uses a much finer epsilon: values within THRESHOLD_EPS of the threshold
are assigned to the closed side of the comparison.
"""

from __future__ import annotations

import os

# Relative tolerance separating equality from strict inequality in bound
# certificates.  True equalities are algebraic identities reproduced to
# ~1e-12 by the solvers, so 1e-7 leaves six orders of headroom.
DEFAULT_EQUALITY_TOL = 1e-7

# Set-membership epsilon for comparing Re(lambda) against rational
# thresholds (sigma/n and friends).
THRESHOLD_EPS = 1e-9

# Multiset matching tolerance between independently computed spectra.
SPECTRUM_MATCH_TOL = 1e-8

# Per-n tolerance for the exact trace identities.
TRACE_TOL = 1e-8

# Eigenvalue backward-error contract: residuals stay below
# EIGEN_RESIDUAL_TOL * max(1, frobenius_norm).
EIGEN_RESIDUAL_TOL = 1e-10

# Relative residual contract for polynomial roots.
ROOT_RESIDUAL_TOL = 1e-9


def equality_tol() -> float:
    """Current equality tolerance (env var LOOPSPEC_TOL wins)."""
    raw = os.environ.get("LOOPSPEC_TOL")
    if raw is None:
        return DEFAULT_EQUALITY_TOL
    value = float(raw)
    if value <= 0:
        raise ValueError("LOOPSPEC_TOL must be positive")
    return value


def at_least(x: float, threshold: float, eps: float = THRESHOLD_EPS) -> bool:
    """x >= threshold, with the boundary band assigned to the closed side."""
    return x >= threshold - eps


def at_most(x: float, threshold: float, eps: float = THRESHOLD_EPS) -> bool:
    """x <= threshold, with the boundary band assigned to the closed side."""
    return x <= threshold + eps


def strictly_greater(x: float, threshold: float, eps: float = THRESHOLD_EPS) -> bool:
    """x > threshold; values inside the boundary band count as not greater."""
    return x > threshold + eps

