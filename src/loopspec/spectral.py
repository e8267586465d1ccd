"""Energy, spectral radius, trace identities, and regular-complement maps.

The energy of a loop-digraph is the total deviation of eigenvalue real
parts from sigma/n, the mean diagonal entry.  ``GraphFacts`` memoizes the
derived data (spectrum, strong components, complement, exact polynomial,
component analysis) that several consumers would otherwise recompute, once
per distinct matrix: a strongly connected graph is its own component, and
a graph whose arcs all lie on cycles is its own pruned form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Union

from . import scc
from .errors import CounterexampleError, NotRegular
from .graphs import (Digraph, complement, count_two_cycles, delta_sigma,
                     is_acyclic, regularity)
from .linalg import (CharPoly, Spectrum, adjacency, char_poly_exact, eigenvalues,
                     poly_roots)
from .tolerances import (SPECTRUM_MATCH_TOL, TRACE_TOL, at_least, at_most,
                         strictly_greater)

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


class GraphFacts:
    """Lazily computed, cached analysis data for one digraph.

    Everything is derived from the immutable graph, so instances are safe
    to share.  ``with_residuals=False`` skips eigenvalue backward-error
    estimates, which bulk sweeps do not need.  ``known`` presets cached
    fields (``spectrum``, ``charpoly``, ``verified_spectrum``) computed
    elsewhere, as a sweep computes them for a chunk of graphs at once.
    """

    def __init__(self, d: Digraph, *, with_residuals: bool = False, **known):
        self.d = d
        self.with_residuals = with_residuals
        self.__dict__.update(known)

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
    def center(self) -> Fraction:
        return Fraction(self.sigma, self.n)

    @cached_property
    def adjacency(self):
        return adjacency(self.d)

    @cached_property
    def charpoly(self) -> CharPoly:
        return char_poly_exact(self.adjacency)

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
        return [GraphFacts(c, with_residuals=self.with_residuals)
                for c in self.components]

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
        return GraphFacts(self.complement_digraph,
                          with_residuals=self.with_residuals)

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
        if verified:
            if "_energy_verified" not in self.__dict__:
                self._energy_verified = _energy_from(self.spectrum_for(True), self.center)
            return self._energy_verified
        if "_energy_plain" not in self.__dict__:
            self._energy_plain = _energy_from(self.spectrum_for(False), self.center)
        return self._energy_plain

    def energy_value(self, verified: bool = False) -> float:
        return self.energy_report(verified).energy

    def rho(self, verified: bool = False) -> float:
        return self.spectrum_for(verified).rho()


FactsLike = Union[Digraph, GraphFacts]


def as_facts(d: FactsLike) -> GraphFacts:
    return d if isinstance(d, GraphFacts) else GraphFacts(d, with_residuals=True)


def _energy_from(spectrum: Spectrum, center: Fraction) -> EnergyReport:
    c = float(center)
    deviations = tuple(abs(z.real - c) for z in spectrum.values)
    return EnergyReport(
        energy=math.fsum(deviations),
        center=c,
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
    c = float(facts.center)
    return 2.0 * math.fsum(
        z.real - c for z in facts.spectrum.values if strictly_greater(z.real, c)
    )


def spectral_radius(d: FactsLike) -> float:
    """Largest eigenvalue modulus.

    Asserts the nonnegative-matrix invariant: the maximum modulus is
    attained by an essentially real, essentially nonnegative eigenvalue.
    """
    facts = as_facts(d)
    values = facts.spectrum.values
    rho = max(abs(z) for z in values)
    tol = 1e-8
    if not any(abs(abs(z) - rho) <= tol and abs(z.imag) <= tol and z.real >= -tol
               for z in values):
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
    imag_ok = abs(math.fsum(z.imag for z in values)) <= tol
    return TraceIdentityReport(
        sum_ok=abs(eigen_sum - facts.sigma) <= tol and imag_ok,
        sumsq_ok=abs(sum_sq.real - expected_sq) <= tol and abs(sum_sq.imag) <= tol,
        re_im_ok=abs(re_im - expected_sq) <= tol,
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
    delta = delta_sigma(facts.d)
    values = list(facts.spectrum.values)
    perron = min(range(len(values)), key=lambda i: abs(values[i] - r))
    if abs(values[perron] - r) > SPECTRUM_MATCH_TOL:
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
        if at_least(x, center):
            s1.append(x)
        elif strictly_greater(x, -center):
            if at_most(x + shift, 0.0):
                s2_nonpos.append(x)
        else:
            s3.append(x)
            if at_most(x + shift, 0.0):
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
    is_zero = facts.energy_value() <= 1e-7
    expected = is_acyclic(facts.d) and facts.sigma in (0, facts.n)
    if is_zero != expected:
        raise CounterexampleError(
            f"zero-energy characterization failed: energy={facts.energy_value()}, "
            f"acyclic={is_acyclic(facts.d)}, sigma={facts.sigma}", graph=facts.d)
    return is_zero
