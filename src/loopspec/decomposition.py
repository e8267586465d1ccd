"""Component-wise energy analysis.

The energy of a loop-digraph and the energies of its strong components use
different centering constants (sigma/n versus sigma_i/n_i), so they need
not agree.  This module computes both, the threshold sets

    A_i = { j : Re(lambda_ij) > sigma/n }      (global center)
    B_i = { j : Re(lambda_ij) > sigma_i/n_i }  (component center)

and the two implication theorems relating the set-weighted loop-ratio
inequalities to E <= sum E(D_i).  Components are reordered so those with
sigma_i/n_i above the global ratio come first; the reordering permutation
is recorded.  All ratio arithmetic is exact, in integers over one common
denominator, so the antecedent of the first theorem and the consequent of
the second are decided exactly.
The threshold sets and the energy comparison go through ``tolerances``,
which holds their margins and the exact-root re-check rule.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .linalg import Spectrum
from .spectral import FactsLike, as_facts
from .tolerances import (ENERGY_CERTAINTY, ENERGY_RECHECK_BAND, recheck, slack_verdict,
                         threshold_side)


class ImplicationStatus(enum.Enum):
    APPLIED = "applied"
    DEGENERATE = "degenerate"           # every component ratio equals sigma/n
    NOT_APPLICABLE = "not_applicable"   # single strong component


@dataclass(frozen=True)
class ComponentData:
    """One strong component in the analysis ordering."""

    n: int
    sigma: int
    ratio: Fraction
    spectrum: Spectrum
    energy: float
    a_indices: tuple[int, ...]   # eigenvalue positions with Re > sigma/n
    b_indices: tuple[int, ...]   # eigenvalue positions with Re > sigma_i/n_i


@dataclass(frozen=True)
class ComponentAnalysis:
    components: tuple[ComponentData, ...]
    total_energy: float
    sum_component_energy: float
    l: int                               # components with ratio > sigma/n
    permutation: tuple[int, ...]         # analysis order -> condensation order
    center: Fraction

    @property
    def k(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class ImplicationRecord:
    """Outcome of one implication theorem on one graph.

    ``antecedent``/``consequent`` hold the two sides of the respective
    inequalities as floats for reporting; holds/strict flags are computed
    exactly where the quantity is rational.
    """

    status: ImplicationStatus
    antecedent_lhs: Optional[float]
    antecedent_rhs: Optional[float]
    antecedent_holds: bool
    antecedent_strict: bool
    consequent_lhs: Optional[float]
    consequent_rhs: Optional[float]
    consequent_holds: bool
    consequent_strict: bool
    implication_ok: bool

    def to_json_dict(self) -> dict:
        out: dict = {"status": self.status.value}
        for side in ("antecedent", "consequent"):
            out[side] = {key: getattr(self, f"{side}_{key}")
                         for key in ("lhs", "rhs", "holds", "strict")}
        out["implication_ok"] = self.implication_ok
        return out


def analyze(d: FactsLike) -> ComponentAnalysis:
    """Per-component spectra, energies, and threshold sets."""
    facts = as_facts(d)
    center = Fraction(facts.sigma, facts.n)
    center_f = facts.sigma / facts.n
    entries = []
    for pos, comp_facts in enumerate(facts.component_facts):
        ratio = Fraction(comp_facts.sigma, comp_facts.n)
        spectrum = comp_facts.spectrum
        report = comp_facts.energy_report()
        a_idx = tuple(j for j, z in enumerate(spectrum.values)
                      if threshold_side(z.real, center_f) > 0)
        b_idx = tuple(j for j, z in enumerate(spectrum.values)
                      if threshold_side(z.real, float(ratio)) > 0)
        entries.append((ratio, pos, ComponentData(
            n=comp_facts.n, sigma=comp_facts.sigma, ratio=ratio,
            spectrum=spectrum, energy=report.energy,
            a_indices=a_idx, b_indices=b_idx)))
    # Ratios above the global center first, descending, stable by
    # condensation position.
    entries.sort(key=lambda item: (-item[0], item[1]))
    components = tuple(item[2] for item in entries)
    permutation = tuple(item[1] for item in entries)
    l = sum(1 for c in components if c.ratio > center)
    # Membership sanity from the definitions: B inside A above the center,
    # A inside B at or below it.
    for i, c in enumerate(components):
        if c.ratio > center:
            assert set(c.b_indices) <= set(c.a_indices)
        else:
            assert set(c.a_indices) <= set(c.b_indices)
    total_energy, sum_component_energy = facts.energy_and_parts()
    return ComponentAnalysis(
        components=components,
        total_energy=total_energy,
        sum_component_energy=sum_component_energy,
        l=l,
        permutation=permutation,
        center=center,
    )


def _ratio_inequality(analysis: ComponentAnalysis, use_b: bool) -> tuple[int, int, int]:
    """Exact sides of sum_{i<=l} (ratio_i - center) |S_i| <=
    sum_{i>l} (center - ratio_i) |S_i| with S in {A, B}, as integers over
    one common denominator of the center and every ratio, returned third."""
    denom = math.lcm(analysis.center.denominator, *(c.n for c in analysis.components))
    center = analysis.center.numerator * (denom // analysis.center.denominator)
    lhs = rhs = 0
    for i, c in enumerate(analysis.components):
        size = len(c.b_indices if use_b else c.a_indices)
        gap = c.sigma * (denom // c.n) - center
        if i < analysis.l:
            lhs += gap * size
        else:
            rhs -= gap * size
    return lhs, rhs, denom


def _implication(facts, energy_antecedent: bool) -> ImplicationRecord:
    """The implication between the A-set inequality and E <= sum E(D_i),
    or between E <= sum E(D_i) and the B-set inequality.  Close energies
    are recomputed from the roots of the exact characteristic polynomials,
    which are accurate to ~1e-12 even at defective eigenvalues."""
    analysis = facts.analysis
    if analysis.k == 1:
        return ImplicationRecord(ImplicationStatus.NOT_APPLICABLE,
                                 *(None, None, False, False) * 2, True)
    status = ImplicationStatus.APPLIED if analysis.l else ImplicationStatus.DEGENERATE
    total, parts = recheck(facts.energy_and_parts, ENERGY_RECHECK_BAND)
    _, holds, _, strict, violated = slack_verdict(total, parts, ENERGY_CERTAINTY)
    energy = (total, parts, holds, strict)
    ratio_lhs, ratio_rhs, denom = _ratio_inequality(analysis, use_b=energy_antecedent)
    ratio_holds, ratio_strict = ratio_lhs <= ratio_rhs, ratio_lhs < ratio_rhs
    # int / int rounds correctly, as float(Fraction) does.
    ratio = (ratio_lhs / denom, ratio_rhs / denom, ratio_holds, ratio_strict)
    if energy_antecedent:
        return ImplicationRecord(status, *energy, *ratio, not strict or ratio_strict)
    # A holding antecedent fails only on a certainly violated energy
    # inequality, never on a rounding artifact.
    ok = (not ratio_holds or not violated) and (not ratio_strict or strict)
    return ImplicationRecord(status, *ratio, *energy, ok)


def sufficient_condition(d: FactsLike) -> ImplicationRecord:
    """If the A-set inequality holds then E <= sum E(D_i); a strict
    antecedent forces a strict consequent.

    Needs at least two strong components; a degenerate ratio partition
    (every sigma_i/n_i equal to sigma/n) is reported as such with the
    trivially true data.  The antecedent is exact rational, so
    ``implication_ok`` fails only when the float consequent is violated by
    more than the certainty margin, never on a rounding artifact.
    """
    return _implication(as_facts(d), energy_antecedent=False)


def necessary_condition(d: FactsLike) -> ImplicationRecord:
    """If E <= sum E(D_i) then the B-set inequality holds; a strict
    antecedent forces a strict consequent.

    The antecedent is a float comparison; it is treated as established
    only when the energy difference clears the certainty margin, so a
    genuinely ambiguous equality never produces a spurious failure.  The
    consequent is exact rational.
    """
    return _implication(as_facts(d), energy_antecedent=True)


def ab_remark_check(d: FactsLike) -> bool:
    """The A-set form of the signed ratio expression dominates the B-set
    form; exact comparison over one common denominator."""
    analysis = as_facts(d).analysis
    a_lhs, a_rhs, _ = _ratio_inequality(analysis, use_b=False)
    b_lhs, b_rhs, _ = _ratio_inequality(analysis, use_b=True)
    return (a_lhs - a_rhs) >= (b_lhs - b_rhs)
