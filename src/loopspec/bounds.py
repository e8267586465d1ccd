"""Certificate-producing checkers for every inequality on loop-digraph
energy and spectral radius, with equality detection and structural
equality-case recognition.

Every certificate is oriented as lhs <= rhs, so ``slack`` is nonnegative
whenever the bound holds.  All count arithmetic (m, c2, sigma) is exact
rational; only spectra contribute floating point.  ``tolerances`` sets
every flag: certificates near the boundary are recomputed from the roots
of the exact characteristic polynomial before the equality flag is trusted.

``certain_passes`` decides the bounds on a graph's own spectrum for a
whole stack of graphs in numpy, from the same spectra.  It marks a graph
only where every certificate clears the boundary by one tolerance beyond
the re-check band: there the certifier would pass it with neither a
re-check nor an equality flag.  Every other graph goes through the
certifier, and equality flags come only from it.

The two-cycle count convention is fixed package-wide: c2 counts ordered
pairs, so each digon contributes two.  A halved convention would silently
break every certificate here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import OrderTooSmall
from .graphs import delta_sigma, regularity
from .linalg import Spectrum
from .spectral import FactsLike, as_facts
from .tolerances import RECHECK_BAND, certain_margin, equality_tol, recheck, slack_verdict

MCCLELLAND = "mcclelland"
RHO_LOWER = "rho_lower"
ENERGY_LOWER_C2 = "energy_lower_c2"
RHO_UPPER = "rho_upper"
COMPONENT_GAP = "component_gap"
COMPLEMENT_RHO_LOWER = "complement_rho_lower"
COMPLEMENT_RHO_UPPER = "complement_rho_upper"
COMPLEMENT_ENERGY_SUM = "complement_energy_sum"
POWER_SUM_MODULUS = "power_sum_modulus"
POWER_SUM_REAL = "power_sum_real"
POWER_SUM_IMAG = "power_sum_imag"

# Witnesses of an equality that no published characterization covers.
FAMILY_UNRECOGNIZED = "equality, family unrecognized"
STRUCTURE_UNRECOGNIZED = "equality, structural pattern unrecognized"


@dataclass(frozen=True)
class BoundCertificate:
    """One checked instance of a named inequality lhs <= rhs."""

    bound_id: str
    lhs: float
    rhs: float
    holds: bool
    slack: float
    equality: bool
    witness: Optional[str] = None

    def to_json_dict(self) -> dict:
        return {
            "bound_id": self.bound_id,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "holds": self.holds,
            "slack": self.slack,
            "equality": self.equality,
            "witness": self.witness,
        }


def _certify(bound_id: str,
             compute: Callable[[bool], tuple[float, float]],
             witness: Callable[[bool], Optional[str]] | None = None) -> BoundCertificate:
    """Build a certificate; near-boundary slacks trigger the exact-root
    recomputation before flags are set."""
    tol = equality_tol()
    lhs, rhs = recheck(compute, RECHECK_BAND * tol)
    slack, holds, equality, _, _ = slack_verdict(lhs, rhs, tol)
    return BoundCertificate(
        bound_id=bound_id, lhs=lhs, rhs=rhs, holds=holds, slack=slack,
        equality=equality,
        witness=witness(equality) if witness is not None else None)


def mcclelland(d: FactsLike) -> BoundCertificate:
    """E <= sqrt(n (m + c2 + 2 sigma - 2 sigma^2 / n) / 2)."""
    facts = as_facts(d)
    radicand = Fraction(facts.n, 2) * (
        facts.m + facts.c2 + 2 * facts.sigma - Fraction(2 * facts.sigma ** 2, facts.n))
    rhs = math.sqrt(float(radicand))

    def value(verified: bool) -> tuple[float, float]:
        return facts.energy_value(verified), rhs

    def witness(equality: bool) -> Optional[str]:
        if not equality:
            return None
        tag = mcclelland_equality_family(facts)
        return f"family: {tag}" if tag else FAMILY_UNRECOGNIZED

    return _certify(MCCLELLAND, value, witness)


def mcclelland_equality_family(d: FactsLike) -> Optional[str]:
    """Recognize the structures that attain the McClelland-type bound.

    They are disjoint unions of identical one- or two-vertex pieces:
    isolated vertices (no loops, all loops, or loops on exactly half) and
    perfect matchings of digons (no loops, one loop per digon, or two).
    Any arc outside a cycle breaks equality, so graphs that pruning would
    change never match.
    """
    facts = as_facts(d)
    if facts.pruned.arcs != facts.d.arcs:
        return None
    comps = facts.components
    sizes = {c.n for c in comps}
    if sizes == {1}:
        sigma, n = facts.sigma, facts.n
        if sigma == 0:
            return "isolated-vertices"
        if sigma == n:
            return "isolated-vertices-all-loops"
        if 2 * sigma == n:
            return "isolated-vertices-half-loops"
        return None
    if sizes == {2}:
        loop_counts = {c.sigma for c in comps}
        if loop_counts == {0}:
            return "digon-matching"
        if loop_counts == {1}:
            return "digon-matching-one-loop"
        if loop_counts == {2}:
            return "digon-matching-two-loops"
    return None


def rho_lower(d: FactsLike) -> BoundCertificate:
    """(c2 + sigma) / n <= rho."""
    facts = as_facts(d)
    lhs = float(Fraction(facts.c2 + facts.sigma, facts.n))

    def value(verified: bool) -> tuple[float, float]:
        return lhs, facts.rho(verified)

    def witness(equality: bool) -> Optional[str]:
        if not equality:
            return None
        if rho_lower_equality_structure(facts):
            return "pruned graph is a symmetric (c2+sigma)/n-regular symmetrization"
        return STRUCTURE_UNRECOGNIZED

    return _certify(RHO_LOWER, value, witness)


def rho_lower_equality_structure(d: FactsLike) -> bool:
    """Structural shape forced at equality of the rho lower bound: after
    pruning non-cycle arcs the graph is symmetric and (c2+sigma)/n regular,
    equivalently the symmetrization of a bidegreed loop-graph whose looped
    vertices carry the larger degree."""
    facts = as_facts(d)
    pruned = facts.pruned
    if not pruned.is_symmetric():
        return False
    r = regularity(pruned)
    return r is not None and Fraction(facts.c2 + facts.sigma, facts.n) == r


def energy_lower_c2(d: FactsLike) -> BoundCertificate:
    """2 c2 / n <= E."""
    facts = as_facts(d)
    lhs = float(Fraction(2 * facts.c2, facts.n))

    def value(verified: bool) -> tuple[float, float]:
        return lhs, facts.energy_value(verified)

    def witness(equality: bool) -> Optional[str]:
        if not equality:
            return None
        tag = energy_lower_equality_family(facts)
        return f"family: {tag}" if tag else FAMILY_UNRECOGNIZED

    return _certify(ENERGY_LOWER_C2, value, witness)


def energy_lower_equality_family(d: FactsLike) -> Optional[str]:
    """Recognize the known families attaining E = 2 c2 / n: complete
    graphs and balanced complete multipartite graphs, either loopless or
    with loops everywhere.  The published condition is only sufficient, so
    None does not refute equality."""
    facts = as_facts(d)
    pruned = facts.pruned
    if pruned.sigma not in (0, pruned.n) or not pruned.is_symmetric():
        return None
    # Complement components of the loopless view must be equal-size cliques.
    n = pruned.n
    non_neighbors = [set(range(n)) - {v} for v in range(n)]
    for u, v in pruned.arcs:
        non_neighbors[u].discard(v)
    comp_sizes = []
    unseen = set(range(n))
    while unseen:
        start = unseen.pop()
        block = {start} | non_neighbors[start]
        if any(non_neighbors[x] | {x} != block for x in block):
            return None
        unseen -= block
        comp_sizes.append(len(block))
    if len(set(comp_sizes)) != 1:
        return None
    suffix = "-all-loops" if pruned.sigma else ""
    if comp_sizes[0] == 1:
        return "complete" + suffix
    return "complete-multipartite" + suffix


def rho_upper(d: FactsLike) -> BoundCertificate:
    """rho <= sigma/n + sqrt(sigma^2/n^2 - sigma^2/n + (n-1)(m+c2+2 sigma)/(2n))."""
    facts = as_facts(d)
    if facts.n < 2:
        raise OrderTooSmall("rho upper bound needs n >= 2")
    radicand = (Fraction(facts.sigma ** 2, facts.n ** 2)
                - Fraction(facts.sigma ** 2, facts.n)
                + Fraction((facts.n - 1) * (facts.m + facts.c2 + 2 * facts.sigma),
                           2 * facts.n))
    rhs = float(Fraction(facts.sigma, facts.n)) + math.sqrt(float(radicand))

    def value(verified: bool) -> tuple[float, float]:
        return facts.rho(verified), rhs

    return _certify(RHO_UPPER, value)


def component_gap(d: FactsLike) -> BoundCertificate:
    """|E - sum of strong-component energies| <= 2 sigma."""
    facts = as_facts(d)
    rhs = float(2 * facts.sigma)

    def value(verified: bool) -> tuple[float, float]:
        total = facts.energy_value(verified)
        parts = math.fsum(f.energy_value(verified) for f in facts.component_facts)
        return abs(total - parts), rhs

    return _certify(COMPONENT_GAP, value)


def complement_rho_sum(d: FactsLike) -> tuple[BoundCertificate, BoundCertificate]:
    """Two-sided bound on rho + rho(complement)."""
    facts = as_facts(d)
    n, sigma = facts.n, facts.sigma
    delta = delta_sigma(facts.d)
    c2_both = facts.c2 + facts.complement_facts.c2
    low = float((1 - delta) + Fraction(c2_both, n))
    radicand = (Fraction((n - 1) ** 2)
                - Fraction(4 * sigma * (n - sigma), n ** 2)
                + Fraction(4 * sigma * (n - sigma), n)
                + Fraction((n - 1) * c2_both, n))
    high = (1 - delta) + math.sqrt(float(radicand))

    def rho_sum(verified: bool) -> float:
        return facts.rho(verified) + facts.complement_facts.rho(verified)

    lower = _certify(COMPLEMENT_RHO_LOWER, lambda v: (low, rho_sum(v)))
    upper = _certify(COMPLEMENT_RHO_UPPER, lambda v: (rho_sum(v), high))
    return lower, upper


def complement_energy_sum(d: FactsLike) -> BoundCertificate:
    """E + E(complement) <= sqrt(n (n^2 - n + c2 + c2_bar + 4 sigma - 4 sigma^2/n))."""
    facts = as_facts(d)
    n, sigma = facts.n, facts.sigma
    c2_both = facts.c2 + facts.complement_facts.c2
    radicand = Fraction(n) * (n * n - n + c2_both + 4 * sigma
                              - Fraction(4 * sigma ** 2, n))
    rhs = math.sqrt(float(radicand))

    def value(verified: bool) -> tuple[float, float]:
        lhs = facts.energy_value(verified) + facts.complement_facts.energy_value(verified)
        return lhs, rhs

    return _certify(COMPLEMENT_ENERGY_SUM, value)


def power_sum_bounds(d: FactsLike) -> tuple[BoundCertificate, BoundCertificate, BoundCertificate]:
    """Schur-type bounds on the squared spectrum:
    sum |lambda|^2 <= m + sigma, sum Re^2 <= (m + c2 + 2 sigma)/2,
    sum Im^2 <= (m - c2)/2."""
    facts = as_facts(d)

    def sums(verified: bool) -> tuple[float, float]:
        values = facts.spectrum_for(verified).values
        re2 = math.fsum(z.real * z.real for z in values)
        im2 = math.fsum(z.imag * z.imag for z in values)
        return re2, im2

    modulus = _certify(
        POWER_SUM_MODULUS,
        lambda v: (sum(sums(v)), float(facts.m + facts.sigma)))
    real = _certify(
        POWER_SUM_REAL,
        lambda v: (sums(v)[0], float(Fraction(facts.m + facts.c2 + 2 * facts.sigma, 2))))
    imag = _certify(
        POWER_SUM_IMAG,
        lambda v: (sums(v)[1], float(Fraction(facts.m - facts.c2, 2))))
    return modulus, real, imag


# Every certifier, in report order, with the bound ids of what it returns.
_CERTIFIERS: tuple[tuple[Callable, tuple[str, ...]], ...] = (
    (mcclelland, (MCCLELLAND,)),
    (rho_lower, (RHO_LOWER,)),
    (energy_lower_c2, (ENERGY_LOWER_C2,)),
    (rho_upper, (RHO_UPPER,)),
    (component_gap, (COMPONENT_GAP,)),
    (complement_rho_sum, (COMPLEMENT_RHO_LOWER, COMPLEMENT_RHO_UPPER)),
    (complement_energy_sum, (COMPLEMENT_ENERGY_SUM,)),
    (power_sum_bounds, (POWER_SUM_MODULUS, POWER_SUM_REAL, POWER_SUM_IMAG)),
)

ALL_BOUND_IDS = tuple(bound_id for _, ids in _CERTIFIERS for bound_id in ids)


def all_certificates(d: FactsLike, only: str | None = None) -> list[BoundCertificate]:
    """Every applicable certificate for one graph, in a fixed order, or the
    one named ``only``; a bound that is not asked for is not computed.

    A bound undefined at the graph's order (the rho upper bound at n = 1)
    is skipped.
    """
    facts = as_facts(d)
    certs: list[BoundCertificate] = []
    for certify, ids in _CERTIFIERS:
        if only is not None and only not in ids:
            continue
        try:
            out = certify(facts)
        except OrderTooSmall:
            continue
        certs.extend(cert for cert in (out if isinstance(out, tuple) else (out,))
                     if only in (None, cert.bound_id))
    return certs


# ---------------------------------------------------------------------------
# Array pass

def certain_passes(n: int, adj: np.ndarray, spectra: Sequence[Spectrum | Exception],
                   tol: float) -> dict[str, np.ndarray]:
    """Which rows of a (k, n, n) stack of 0/1 adjacency matrices
    ``mcclelland``, ``rho_lower``, ``energy_lower_c2``, ``rho_upper`` and
    ``power_sum_bounds`` certainly pass, as one boolean array per
    certifier name.  ``spectra`` are the rows' spectra as the certifiers
    read them; a row whose spectrum failed may hold its error instead.

    A row is marked only where every certificate of the certifier has
    rhs - lhs > ``certain_margin(n, tol)`` max(1, |rhs|).  The certifier
    would then pass it without the exact-root re-check and without
    equality, so a caller may tally the pass without running it.  Every
    other row (near or inside the re-check band, violated, with a failed
    spectrum, or ``rho_upper`` at n = 1) is left to the certifier.  Each
    count-only side is one exact integer over one float division, equal to
    the certifier's value to the bit.  The spectral sides add their n
    nonnegative terms with ``np.sum`` where the certifiers use
    ``math.fsum``; the totals differ by at most (n + 1) eps of the larger,
    which the margin's eps term covers at any tol.
    """
    k = len(adj)
    a = adj.astype(np.int64)
    sigma = np.einsum("kii->k", a)
    m = a.sum(axis=(1, 2)) - sigma
    c2 = np.einsum("kij,kji->k", a, a) - sigma
    edges = m + c2 + 2 * sigma
    failed = (complex("nan"),) * n
    z = np.array([s.values if isinstance(s, Spectrum) else failed for s in spectra],
                 dtype=complex).reshape(k, n)
    energy = np.abs(z.real - (sigma / n)[:, None]).sum(axis=1)
    rho = np.abs(z).max(axis=1)
    re2 = (z.real * z.real).sum(axis=1)
    im2 = (z.imag * z.imag).sum(axis=1)
    margin = certain_margin(n, tol)

    def clear(*pairs: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        ok = np.ones(k, dtype=bool)
        for lhs, rhs in pairs:
            ok &= rhs - lhs > margin * np.maximum(1.0, np.abs(rhs))
        return ok

    return {
        "mcclelland": clear((energy, np.sqrt((n * edges - 2 * sigma ** 2) / 2))),
        "rho_lower": clear(((c2 + sigma) / n, rho)),
        "energy_lower_c2": clear((2 * c2 / n, energy)),
        "rho_upper": clear((rho, sigma / n + np.sqrt(
            (n * (n - 1) * edges - 2 * (n - 1) * sigma ** 2) / (2 * n * n)))) & (n >= 2),
        "power_sum_bounds": clear((re2 + im2, (m + sigma).astype(float)),
                                  (re2, edges / 2), (im2, (m - c2) / 2)),
    }
