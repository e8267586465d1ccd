"""Certificate-producing checkers for every inequality on loop-digraph
energy and spectral radius, with equality detection and structural
equality-case recognition.

Every certificate is oriented as lhs <= rhs, so ``slack`` is nonnegative
whenever the bound holds.  One side of each certificate is a closed form
in n, m, c2 and sigma, written once in a table: an exact integer over one
correctly rounded division, at most under a square root.  Only spectra
contribute any other floating point.  ``tolerances`` sets every flag:
certificates near the boundary are recomputed from the roots of the exact
characteristic polynomial before the equality flag is trusted.

``certain_passes`` decides the bounds on a graph's own spectrum for a
whole stack of graphs in numpy, from the same spectra and the same table.
It marks a graph only where every certificate clears the boundary by one
tolerance beyond the re-check band: there the certifier would pass it
with neither a re-check nor an equality flag.  Every other graph goes
through the certifier, and equality flags come only from it.

The two-cycle count convention is fixed package-wide: c2 counts ordered
pairs, so each digon contributes two.  A halved convention would silently
break every certificate here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import OrderTooSmall
from .graphs import delta_sigma, regularity
from .linalg import Spectrum
from .spectral import FactsLike, GraphFacts, as_facts
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


def _root(x):
    """math.sqrt of a float, np.sqrt of an array."""
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _complement_c2(n, m, c2):
    """c2 of the complement: of the n (n - 1) ordered pairs, those with
    neither arc, as 2 m - c2 pairs carry at least one."""
    return n * (n - 1) - 2 * m + c2


# The count side of every certificate, as a closed form in (n, m, c2,
# sigma): ``_certify`` evaluates it on Python ints and ``certain_passes``
# on int64 arrays.  Each is one exact integer over one true division,
# which rounds the exact rational correctly, at most wrapped in a square
# root or added to sigma/n or 1 - delta.
_COUNT_SIDES: dict[str, Callable] = {
    MCCLELLAND: lambda n, m, c2, s: _root((n * (m + c2 + 2 * s) - 2 * s * s) / 2),
    RHO_LOWER: lambda n, m, c2, s: (c2 + s) / n,
    ENERGY_LOWER_C2: lambda n, m, c2, s: 2 * c2 / n,
    RHO_UPPER: lambda n, m, c2, s: s / n + _root(
        (n - 1) * (n * (m + c2 + 2 * s) - 2 * s * s) / (2 * n * n)),
    COMPONENT_GAP: lambda n, m, c2, s: 2 * s,
    COMPLEMENT_RHO_LOWER: lambda n, m, c2, s: (
        (1 - delta_sigma(s)) * n + c2 + _complement_c2(n, m, c2)) / n,
    COMPLEMENT_RHO_UPPER: lambda n, m, c2, s: 1 - delta_sigma(s) + _root(
        (n - 1) * (n * n * (n - 1) + 4 * s * (n - s) + n * (c2 + _complement_c2(n, m, c2)))
        / (n * n)),
    COMPLEMENT_ENERGY_SUM: lambda n, m, c2, s: _root(
        n * (n * n - n + c2 + _complement_c2(n, m, c2) + 4 * s) - 4 * s * s),
    POWER_SUM_MODULUS: lambda n, m, c2, s: m + s,
    POWER_SUM_REAL: lambda n, m, c2, s: (m + c2 + 2 * s) / 2,
    POWER_SUM_IMAG: lambda n, m, c2, s: (m - c2) / 2,
}
# The lower bounds, whose count side is the lhs; every other is the rhs.
_COUNT_ON_LEFT = frozenset({RHO_LOWER, ENERGY_LOWER_C2, COMPLEMENT_RHO_LOWER})


def _sides(bound_id: str, count, spectral) -> tuple:
    """(lhs, rhs) of the bound from its count side and its spectral side."""
    return (count, spectral) if bound_id in _COUNT_ON_LEFT else (spectral, count)


def _certify(bound_id: str, facts: GraphFacts, spectral: Callable[[bool], float],
             witness: Callable[[GraphFacts], str] | None = None) -> BoundCertificate:
    """The certificate of ``bound_id`` on the graph, its count side read
    from _COUNT_SIDES and its spectral side from ``spectral(verified)``; a
    near-boundary slack triggers the exact-root recomputation before flags
    are set.  ``witness`` names the structure of an equality."""
    count = float(_COUNT_SIDES[bound_id](facts.n, facts.m, facts.c2, facts.sigma))
    tol = equality_tol()
    lhs, rhs = recheck(lambda verified: _sides(bound_id, count, spectral(verified)),
                       RECHECK_BAND * tol)
    slack, holds, equality, _, _ = slack_verdict(lhs, rhs, tol)
    return BoundCertificate(
        bound_id=bound_id, lhs=lhs, rhs=rhs, holds=holds, slack=slack,
        equality=equality,
        witness=witness(facts) if equality and witness is not None else None)


def mcclelland(d: FactsLike) -> BoundCertificate:
    """E <= sqrt(n (m + c2 + 2 sigma - 2 sigma^2 / n) / 2)."""
    facts = as_facts(d)
    return _certify(MCCLELLAND, facts, facts.energy_value,
                    lambda f: _family(mcclelland_equality_family(f)))


def _family(tag: Optional[str]) -> str:
    return f"family: {tag}" if tag else FAMILY_UNRECOGNIZED


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

    def witness(f: GraphFacts) -> str:
        if rho_lower_equality_structure(f):
            return "pruned graph is a symmetric (c2+sigma)/n-regular symmetrization"
        return STRUCTURE_UNRECOGNIZED

    return _certify(RHO_LOWER, facts, facts.rho, witness)


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
    return r is not None and facts.c2 + facts.sigma == r * facts.n


def energy_lower_c2(d: FactsLike) -> BoundCertificate:
    """2 c2 / n <= E."""
    facts = as_facts(d)
    return _certify(ENERGY_LOWER_C2, facts, facts.energy_value,
                    lambda f: _family(energy_lower_equality_family(f)))


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
    return _certify(RHO_UPPER, facts, facts.rho)


def component_gap(d: FactsLike) -> BoundCertificate:
    """|E - sum of strong-component energies| <= 2 sigma."""
    facts = as_facts(d)

    def gap(verified: bool) -> float:
        total, parts = facts.energy_and_parts(verified)
        return abs(total - parts)

    return _certify(COMPONENT_GAP, facts, gap)


def complement_rho_sum(d: FactsLike) -> tuple[BoundCertificate, BoundCertificate]:
    """Two-sided bound on rho + rho(complement)."""
    facts = as_facts(d)

    def rho_sum(verified: bool) -> float:
        return facts.rho(verified) + facts.complement_facts.rho(verified)

    return (_certify(COMPLEMENT_RHO_LOWER, facts, rho_sum),
            _certify(COMPLEMENT_RHO_UPPER, facts, rho_sum))


def complement_energy_sum(d: FactsLike) -> BoundCertificate:
    """E + E(complement) <= sqrt(n (n^2 - n + c2 + c2_bar + 4 sigma - 4 sigma^2/n))."""
    facts = as_facts(d)

    def energy_sum(verified: bool) -> float:
        return facts.energy_value(verified) + facts.complement_facts.energy_value(verified)

    return _certify(COMPLEMENT_ENERGY_SUM, facts, energy_sum)


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

    return (_certify(POWER_SUM_MODULUS, facts, lambda v: sum(sums(v))),
            _certify(POWER_SUM_REAL, facts, lambda v: sums(v)[0]),
            _certify(POWER_SUM_IMAG, facts, lambda v: sums(v)[1]))


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
    other row (near or inside the re-check band, violated, or with a
    failed spectrum) is left to the certifier.  At n = 1 the spectrum is
    sigma exactly and every certificate is an equality, so no row is
    marked, not even for ``rho_upper``, which is undefined there.  The
    count sides come from the certifiers' own table, evaluated on int64
    arrays, so they equal the certifiers' values to the bit.  The spectral
    sides add their n nonnegative terms with ``np.sum`` where the
    certifiers use ``math.fsum``; the totals differ by at most (n + 1) eps
    of the larger, which the margin's eps term covers at any tol.
    """
    k = len(adj)
    a = adj.astype(np.int64)
    sigma = np.einsum("kii->k", a)
    m = a.sum(axis=(1, 2)) - sigma
    c2 = np.einsum("kij,kji->k", a, a) - sigma
    failed = (complex("nan"),) * n
    z = np.array([s.values if isinstance(s, Spectrum) else failed for s in spectra],
                 dtype=complex).reshape(k, n)
    energy = np.abs(z.real - (sigma / n)[:, None]).sum(axis=1)
    rho = np.abs(z).max(axis=1)
    re2 = (z.real * z.real).sum(axis=1)
    im2 = (z.imag * z.imag).sum(axis=1)
    spectral = {MCCLELLAND: energy, RHO_LOWER: rho, ENERGY_LOWER_C2: energy, RHO_UPPER: rho,
                POWER_SUM_MODULUS: re2 + im2, POWER_SUM_REAL: re2, POWER_SUM_IMAG: im2}
    margin = certain_margin(n, tol)

    def clear(bound_ids: tuple[str, ...]) -> np.ndarray:
        ok = np.ones(k, dtype=bool)
        for bound_id in bound_ids:
            count = _COUNT_SIDES[bound_id](n, m, c2, sigma)
            lhs, rhs = _sides(bound_id, count, spectral[bound_id])
            ok &= rhs - lhs > margin * np.maximum(1.0, np.abs(rhs))
        return ok

    return {certify.__name__: clear(ids) for certify, ids in _CERTIFIERS
            if spectral.keys() >= set(ids)}
