"""Component-wise energy analysis.

The energy of a loop-digraph and the energies of its strong components use
different centering constants (sigma/n versus sigma_i/n_i), so they need
not agree.  This module computes both, the threshold sets

    A_i = { j : Re(lambda_ij) > sigma/n }      (global center)
    B_i = { j : Re(lambda_ij) > sigma_i/n_i }  (component center)

and the two implication theorems relating the set-weighted loop-ratio
inequalities to E <= sum E(D_i).  Components are reordered so those with
sigma_i/n_i above the global ratio come first; the reordering permutation
is recorded.  ``analyze`` computes the sides of both ratio inequalities
once, exactly, in integers over one common denominator lcm(n, n_1, ...,
n_k), so the antecedent of the first theorem and the consequent of the
second are decided exactly; the records and ``ab_remark_check`` read
those sides.  The ratios and the center are floats, sigma_i/n_i and
sigma/n correctly rounded, for the thresholds and for reporting.
The threshold sets and the energy comparison go through ``tolerances``,
which holds their margins and the exact-root re-check rule.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
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
    ratio: float                 # sigma/n of this component, correctly rounded
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
    center: float                        # sigma/n, correctly rounded
    a_sides: tuple[int, int]             # (lhs, rhs) of the A-set inequality, times denom
    b_sides: tuple[int, int]             # (lhs, rhs) of the B-set inequality, times denom
    denom: int                           # lcm(n, n_1, ..., n_k)

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
    """Per-component spectra, energies and threshold sets, and the sides
    of both ratio inequalities."""
    facts = as_facts(d)
    center = facts.sigma / facts.n
    denom = math.lcm(facts.n, *(c.n for c in facts.component_facts))
    scaled_center = facts.sigma * (denom // facts.n)
    entries = []
    a_sides, b_sides = [0, 0], [0, 0]
    for pos, comp_facts in enumerate(facts.component_facts):
        # (sigma_i/n_i - sigma/n) * denom, exactly.
        gap = comp_facts.sigma * (denom // comp_facts.n) - scaled_center
        ratio = comp_facts.sigma / comp_facts.n
        values = comp_facts.spectrum.values
        a_idx = tuple(j for j, z in enumerate(values) if threshold_side(z.real, center) > 0)
        b_idx = tuple(j for j, z in enumerate(values) if threshold_side(z.real, ratio) > 0)
        # Membership sanity from the definitions: B inside A above the
        # center, A inside B at or below it.
        assert set(b_idx) <= set(a_idx) if gap > 0 else set(a_idx) <= set(b_idx)
        # A component above the center weighs on the left side of each
        # inequality, one below it on the right.
        a_sides[gap <= 0] += abs(gap) * len(a_idx)
        b_sides[gap <= 0] += abs(gap) * len(b_idx)
        entries.append((-gap, pos, ComponentData(
            n=comp_facts.n, sigma=comp_facts.sigma, ratio=ratio,
            spectrum=comp_facts.spectrum, energy=comp_facts.energy_report().energy,
            a_indices=a_idx, b_indices=b_idx)))
    # Ratios above the global center first, descending, stable by
    # condensation position.
    entries.sort(key=lambda item: item[:2])
    total_energy, sum_component_energy = facts.energy_and_parts()
    return ComponentAnalysis(
        components=tuple(item[2] for item in entries),
        total_energy=total_energy,
        sum_component_energy=sum_component_energy,
        l=sum(1 for neg_gap, _, _ in entries if neg_gap < 0),
        permutation=tuple(item[1] for item in entries),
        center=center,
        a_sides=tuple(a_sides),
        b_sides=tuple(b_sides),
        denom=denom,
    )


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
    ratio_lhs, ratio_rhs = analysis.b_sides if energy_antecedent else analysis.a_sides
    ratio_holds, ratio_strict = ratio_lhs <= ratio_rhs, ratio_lhs < ratio_rhs
    # int / int rounds correctly, to the nearest float of the exact side.
    ratio = (ratio_lhs / analysis.denom, ratio_rhs / analysis.denom,
             ratio_holds, ratio_strict)
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
    (a_lhs, a_rhs), (b_lhs, b_rhs) = analysis.a_sides, analysis.b_sides
    return a_lhs - a_rhs >= b_lhs - b_rhs
