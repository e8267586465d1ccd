"""Energy, spectral radius, trace identities, and regular-complement maps.

The energy of a loop-digraph is the total deviation of eigenvalue real
parts from sigma/n, the mean diagonal entry.  ``GraphFacts`` memoizes the
derived data (spectrum, strong components, complement, exact polynomial,
component analysis) that several consumers would otherwise recompute, once
per distinct matrix: a strongly connected graph is its own component, and
a graph whose arcs all lie on cycles is its own pruned form.  Facts share
one table with the facts of their strong components (and of any other
graph reached through ``derived``), which the table keeps by exact
labeled digraph, up to order 4: many graphs that share a small component
then analyse it once.  A sweep keeps one table per chunk of graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Union

from . import scc
from .errors import CounterexampleError, NotRegular
from .graphs import (Digraph, complement, count_two_cycles, delta_sigma,
                     is_acyclic, regularity)
from .linalg import (CharPoly, Spectrum, adjacency, char_poly_exact, eigenvalues,
                     linear_subdigraph_charpoly, poly_roots)
from .tolerances import (SPECTRUM_MATCH_TOL, TRACE_TOL, ZERO_ENERGY_TOL, agrees,
                         perron_attained, threshold_side)

if TYPE_CHECKING:
    from .decomposition import ComponentAnalysis


@dataclass(frozen=True)
class EnergyReport:
    """Energy together with the per-eigenvalue deviations that sum to it."""

    energy: float
    center: float
    deviations: tuple[float, ...]
    rho: float


@dataclass(frozen=True)
class TraceIdentityReport:
    sum_ok: bool
    sumsq_ok: bool
    re_im_ok: bool
    eigen_sum: float
    eigen_sum_sq: float
    re_im_diff: float
    expected_sum: int
    expected_sum_sq: int


# Order of the largest derived graph a facts table keeps.  There are 2**16
# labeled digraphs of order 4, and a chunk of graphs repeats them often;
# a larger component or loopless form is all but never met twice, so
# keeping its facts would only hold memory.
_TABLE_MAX_ORDER = 4


class GraphFacts:
    """Lazily computed, cached analysis data for one digraph.

    Everything is derived from the immutable graph, so instances are safe
    to share.  ``with_residuals=False`` skips eigenvalue backward-error
    estimates, which bulk sweeps do not need.  ``known`` presets cached
    fields computed elsewhere, as a sweep's batch stage computes a stack's
    spectra for every graph and each other stacked field for the graphs
    whose selected checks read it;
    ``complement`` presets those of ``complement_facts`` in the same way.
    ``table`` maps digraphs to the facts that ``derived`` returns for
    them; without one, the facts start a table of their own.
    """

    def __init__(self, d: Digraph, *, with_residuals: bool = False,
                 table: dict[Digraph, "GraphFacts"] | None = None,
                 complement: dict | None = None, **known):
        self.d = d
        self.with_residuals = with_residuals
        self.table = {} if table is None else table
        self.complement_known = complement or {}
        self.__dict__.update(known)

    def derived(self, d: Digraph) -> "GraphFacts":
        """Facts of a graph derived from this one: the table's entry for
        ``d``, made on the first request and kept if ``d`` has at most
        _TABLE_MAX_ORDER vertices."""
        facts = self.table.get(d)
        if facts is None:
            facts = GraphFacts(d, with_residuals=self.with_residuals, table=self.table)
            if d.n <= _TABLE_MAX_ORDER:
                self.table[d] = facts
        return facts

    @property
    def n(self) -> int:
        return self.d.n

    @property
    def m(self) -> int:
        return self.d.m

    @property
    def sigma(self) -> int:
        return self.d.sigma

    @cached_property
    def c2(self) -> int:
        return count_two_cycles(self.d)

    @cached_property
    def adjacency(self):
        return adjacency(self.d)

    @cached_property
    def charpoly(self) -> CharPoly:
        return char_poly_exact(self.adjacency)

    @cached_property
    def cycle_cover_charpoly(self) -> CharPoly:
        """Independent route: the charpoly from signed cycle-cover counts."""
        return linear_subdigraph_charpoly(self.d)

    @cached_property
    def spectrum(self) -> Spectrum:
        return eigenvalues(self.adjacency, with_residuals=self.with_residuals)

    @cached_property
    def verified_spectrum(self) -> Spectrum:
        """Independent route: roots of the exact characteristic polynomial."""
        return poly_roots(self.charpoly)

    def spectrum_for(self, verified: bool) -> Spectrum:
        return self.verified_spectrum if verified else self.spectrum

    @cached_property
    def partition(self) -> scc.SccPartition:
        return scc.strong_components(self.d)

    @cached_property
    def components(self) -> list[Digraph]:
        return scc.component_digraphs(self.d, self.partition)

    @cached_property
    def component_facts(self) -> list["GraphFacts"]:
        """One facts object per strong component; a strongly connected
        graph is its own single component."""
        if self.partition.k == 1:
            return [self]
        return [self.derived(c) for c in self.components]

    @cached_property
    def pruned(self) -> Digraph:
        return scc.prune_non_cycle_arcs(self.d, self.partition)

    @cached_property
    def pruned_charpoly(self) -> CharPoly:
        """Charpoly of ``pruned``, which is ``d`` itself when every arc
        lies on a cycle."""
        if self.pruned is self.d:
            return self.charpoly
        return char_poly_exact(adjacency(self.pruned))

    @cached_property
    def complement_digraph(self) -> Digraph:
        return complement(self.d)

    @cached_property
    def complement_facts(self) -> "GraphFacts":
        return GraphFacts(self.complement_digraph, with_residuals=self.with_residuals,
                          table=self.table, **self.complement_known)

    @cached_property
    def regularity(self):
        return regularity(self.d)

    @cached_property
    def analysis(self) -> ComponentAnalysis:
        """``decomposition.analyze`` of this graph, shared by the
        implication checks."""
        from . import decomposition   # decomposition builds on this module
        return decomposition.analyze(self)

    def energy_report(self, verified: bool = False) -> EnergyReport:
        key = "_energy_verified" if verified else "_energy_plain"
        if key not in self.__dict__:
            self.__dict__[key] = _energy_from(self.spectrum_for(verified), self.sigma / self.n)
        return self.__dict__[key]

    def energy_value(self, verified: bool = False) -> float:
        return self.energy_report(verified).energy

    def energy_and_parts(self, verified: bool = False) -> tuple[float, float]:
        """E and the sum of the strong components' energies, both from the
        QR spectra or both from the exact roots (``verified``)."""
        return (self.energy_value(verified),
                math.fsum(f.energy_value(verified) for f in self.component_facts))

    def rho(self, verified: bool = False) -> float:
        return self.spectrum_for(verified).rho()


FactsLike = Union[Digraph, GraphFacts]


def as_facts(d: FactsLike) -> GraphFacts:
    return d if isinstance(d, GraphFacts) else GraphFacts(d, with_residuals=True)


def _energy_from(spectrum: Spectrum, center: float) -> EnergyReport:
    deviations = tuple(abs(z.real - center) for z in spectrum.values)
    return EnergyReport(
        energy=math.fsum(deviations),
        center=center,
        deviations=deviations,
        rho=spectrum.rho(),
    )


def energy(d: FactsLike) -> EnergyReport:
    """E = sum of |Re(lambda_i) - sigma/n| over the spectrum."""
    return as_facts(d).energy_report()


def energy_positive_part(d: FactsLike) -> float:
    """Twice the sum of deviations above the center.

    Equals the energy because the real parts sum to sigma, so deviations
    above and below the center balance exactly.
    """
    facts = as_facts(d)
    c = facts.sigma / facts.n
    return 2.0 * math.fsum(
        z.real - c for z in facts.spectrum.values if threshold_side(z.real, c) > 0
    )


def spectral_radius(d: FactsLike) -> float:
    """Largest eigenvalue modulus.

    Asserts the nonnegative-matrix invariant: the maximum modulus is
    attained by an essentially real, essentially nonnegative eigenvalue.
    """
    facts = as_facts(d)
    values = facts.spectrum.values
    rho = max(abs(z) for z in values)
    if not perron_attained(values, rho):
        raise CounterexampleError(
            f"spectral radius {rho} not attained by a nonnegative real "
            f"eigenvalue in {values}", graph=facts.d)
    return rho


def trace_identities(d: FactsLike) -> TraceIdentityReport:
    """Check sum(lambda) = sigma and sum(lambda^2) = c2 + sigma.

    The squared identity is also checked in its real form
    sum(Re^2 - Im^2) = c2 + sigma; for a conjugate-closed spectrum the two
    agree up to rounding.
    """
    facts = as_facts(d)
    values = facts.spectrum.values
    tol = TRACE_TOL * facts.n
    eigen_sum = math.fsum(z.real for z in values)
    sum_sq = sum(z * z for z in values)
    re_im = math.fsum(z.real * z.real - z.imag * z.imag for z in values)
    expected_sq = facts.c2 + facts.sigma
    imag_ok = agrees(math.fsum(z.imag for z in values), 0.0, tol)
    return TraceIdentityReport(
        sum_ok=agrees(eigen_sum, facts.sigma, tol) and imag_ok,
        sumsq_ok=agrees(sum_sq.real, expected_sq, tol) and agrees(sum_sq.imag, 0.0, tol),
        re_im_ok=agrees(re_im, expected_sq, tol),
        eigen_sum=eigen_sum,
        eigen_sum_sq=sum_sq.real,
        re_im_diff=re_im - expected_sq,
        expected_sum=facts.sigma,
        expected_sum_sq=expected_sq,
    )


def complement_spectrum_regular(d: FactsLike) -> Spectrum:
    """Spectrum of the complement of an r-regular digraph, computed from the
    spectrum of the digraph itself.

    The all-ones eigenvector gives n - r - delta; every eigenvalue on the
    complementary invariant subspace maps to -delta - lambda.
    """
    facts = as_facts(d)
    r = facts.regularity
    if r is None:
        raise NotRegular("complement spectrum map needs a regular digraph")
    delta = delta_sigma(facts.sigma)
    values = list(facts.spectrum.values)
    perron = min(range(len(values)), key=lambda i: abs(values[i] - r))
    if not agrees(values[perron], r, SPECTRUM_MATCH_TOL):
        raise CounterexampleError(
            f"regular digraph of degree {r} lacks eigenvalue r", graph=facts.d)
    values.pop(perron)
    mapped = [complex(facts.n - r - delta, 0.0)]
    mapped.extend(-delta - z for z in values)
    return Spectrum(tuple(sorted(mapped, key=lambda z: (-z.real, -z.imag))))


def regular_energy_sum(d: FactsLike) -> float:
    """Closed form for E(digraph) + E(complement) of a regular digraph.

    Evaluated from the digraph's own spectrum by classifying real parts
    against the thresholds sigma/n, -sigma/n, and -(n - sigma)/n.  Which of
    the two published branches applies depends on whether sigma >= n/2.
    """
    facts = as_facts(d)
    r = facts.regularity
    if r is None:
        raise NotRegular("closed-form energy sum needs a regular digraph")
    n, sigma = facts.n, facts.sigma
    center = sigma / n
    shift = (n - sigma) / n
    s1: list[float] = []
    s2_nonpos: list[float] = []
    s3: list[float] = []
    s3_nonpos: list[float] = []
    for z in facts.spectrum.values:
        x = z.real
        if threshold_side(x, center) >= 0:
            s1.append(x)
        elif threshold_side(x, -center) > 0:
            if threshold_side(x + shift, 0.0) <= 0:
                s2_nonpos.append(x)
        else:
            s3.append(x)
            if threshold_side(x + shift, 0.0) <= 0:
                s3_nonpos.append(x)
    if 2 * sigma >= n:
        spread = math.fsum(abs(x) for x in s1 + s2_nonpos + s3)
        low_count = len(s2_nonpos) + len(s3)
        return (2.0 * (n - r - 1)
                + 2.0 * spread
                + (2.0 * sigma / n) * (low_count - len(s1) + 1)
                - 2.0 * low_count)
    spread = math.fsum(abs(x) for x in s1 + s3_nonpos)
    return (2.0 * (n - r - 1)
            + 2.0 * spread
            + (2.0 * sigma / n) * (len(s3_nonpos) - len(s1) + 1)
            - 2.0 * len(s3_nonpos))


def zero_energy_check(d: FactsLike) -> bool:
    """True iff the energy vanishes.

    Asserts the characterization: zero energy happens exactly for acyclic
    digraphs with no loops or with a loop at every vertex.
    """
    facts = as_facts(d)
    is_zero = agrees(facts.energy_value(), 0.0, ZERO_ENERGY_TOL)
    expected = is_acyclic(facts.d) and facts.sigma in (0, facts.n)
    if is_zero != expected:
        raise CounterexampleError(
            f"zero-energy characterization failed: energy={facts.energy_value()}, "
            f"acyclic={is_acyclic(facts.d)}, sigma={facts.sigma}", graph=facts.d)
    return is_zero
