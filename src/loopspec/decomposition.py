"""Component-wise energy analysis.

The energy of a loop-digraph and the energies of its strong components use
different centering constants (sigma/n versus sigma_i/n_i), so they need
not agree.  This module computes both, the threshold sets

    A_i = { j : Re(lambda_ij) > sigma/n }      (global center)
    B_i = { j : Re(lambda_ij) > sigma_i/n_i }  (component center)

and the two implication theorems relating the set-weighted loop-ratio
inequalities to E <= sum E(D_i).  Components are reordered so those with
sigma_i/n_i above the global ratio come first; the reordering permutation
is recorded.  All ratio arithmetic is exact rational, so the antecedent of
the first theorem and the consequent of the second are decided exactly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .linalg import Spectrum
from .spectral import FactsLike, as_facts
from .tolerances import strictly_greater


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
        return {
            "status": self.status.value,
            "antecedent": {
                "lhs": self.antecedent_lhs,
                "rhs": self.antecedent_rhs,
                "holds": self.antecedent_holds,
                "strict": self.antecedent_strict,
            },
            "consequent": {
                "lhs": self.consequent_lhs,
                "rhs": self.consequent_rhs,
                "holds": self.consequent_holds,
                "strict": self.consequent_strict,
            },
            "implication_ok": self.implication_ok,
        }


def analyze(d: FactsLike) -> ComponentAnalysis:
    """Per-component spectra, energies, and threshold sets."""
    facts = as_facts(d)
    center = facts.center
    center_f = float(center)
    entries = []
    for pos, comp_facts in enumerate(facts.component_facts):
        ratio = Fraction(comp_facts.sigma, comp_facts.n)
        spectrum = comp_facts.spectrum
        report = comp_facts.energy_report()
        a_idx = tuple(j for j, z in enumerate(spectrum.values)
                      if strictly_greater(z.real, center_f))
        b_idx = tuple(j for j, z in enumerate(spectrum.values)
                      if strictly_greater(z.real, float(ratio)))
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
    return ComponentAnalysis(
        components=components,
        total_energy=facts.energy_value(),
        sum_component_energy=math.fsum(c.energy for c in components),
        l=l,
        permutation=permutation,
        center=center,
    )


def _ratio_inequality(analysis: ComponentAnalysis, use_b: bool) -> tuple[Fraction, Fraction]:
    """Exact sides of sum_{i<=l} (ratio_i - center) |S_i| <=
    sum_{i>l} (center - ratio_i) |S_i| with S in {A, B}."""
    lhs = Fraction(0)
    rhs = Fraction(0)
    for i, c in enumerate(analysis.components):
        size = len(c.b_indices if use_b else c.a_indices)
        if i < analysis.l:
            lhs += (c.ratio - analysis.center) * size
        else:
            rhs += (analysis.center - c.ratio) * size
    return lhs, rhs


# Energy differences inside this band (after the exact-root refinement)
# cannot be signed reliably; implications are not enforced there.
_ENERGY_CERTAINTY = 1e-9


def _energy_difference(facts) -> tuple[float, float, float]:
    """(E, sum E(D_i), certainty scale).

    When the difference is small the energies are recomputed from the
    roots of the exact characteristic polynomials, which are accurate to
    ~1e-12 even at defective eigenvalues.
    """
    total = facts.energy_value(False)
    parts = math.fsum(f.energy_value(False) for f in facts.component_facts)
    scale = max(1.0, abs(parts))
    if abs(total - parts) <= 1e-6 * scale:
        total = facts.energy_value(True)
        parts = math.fsum(f.energy_value(True) for f in facts.component_facts)
        scale = max(1.0, abs(parts))
    return total, parts, scale


def _vacuous(status: ImplicationStatus) -> ImplicationRecord:
    return ImplicationRecord(
        status=status,
        antecedent_lhs=None, antecedent_rhs=None,
        antecedent_holds=False, antecedent_strict=False,
        consequent_lhs=None, consequent_rhs=None,
        consequent_holds=False, consequent_strict=False,
        implication_ok=True)


def sufficient_condition(d: FactsLike) -> ImplicationRecord:
    """If the A-set inequality holds then E <= sum E(D_i); a strict
    antecedent forces a strict consequent.

    Needs at least two strong components; a degenerate ratio partition
    (every sigma_i/n_i equal to sigma/n) is reported as such with the
    trivially true data.  The antecedent is exact rational, so
    ``implication_ok`` fails only when the float consequent is violated by
    more than the certainty margin, never on a rounding artifact.
    """
    facts = as_facts(d)
    analysis = facts.analysis
    if analysis.k == 1:
        return _vacuous(ImplicationStatus.NOT_APPLICABLE)
    status = ImplicationStatus.APPLIED if analysis.l else ImplicationStatus.DEGENERATE
    ant_lhs, ant_rhs = _ratio_inequality(analysis, use_b=False)
    ant_holds = ant_lhs <= ant_rhs
    ant_strict = ant_lhs < ant_rhs
    total, parts, scale = _energy_difference(facts)
    diff = total - parts
    margin = _ENERGY_CERTAINTY * scale
    cons_holds = diff <= margin
    cons_strict = diff <= -margin
    ok = ((not ant_holds or diff < margin)       # certainly-violated <= fails
          and (not ant_strict or cons_strict))   # strictness must survive
    return ImplicationRecord(
        status=status,
        antecedent_lhs=float(ant_lhs), antecedent_rhs=float(ant_rhs),
        antecedent_holds=ant_holds, antecedent_strict=ant_strict,
        consequent_lhs=total, consequent_rhs=parts,
        consequent_holds=cons_holds, consequent_strict=cons_strict,
        implication_ok=ok)


def necessary_condition(d: FactsLike) -> ImplicationRecord:
    """If E <= sum E(D_i) then the B-set inequality holds; a strict
    antecedent forces a strict consequent.

    The antecedent is a float comparison; it is treated as established
    only when the energy difference clears the certainty margin, so a
    genuinely ambiguous equality never produces a spurious failure.  The
    consequent is exact rational.
    """
    facts = as_facts(d)
    analysis = facts.analysis
    if analysis.k == 1:
        return _vacuous(ImplicationStatus.NOT_APPLICABLE)
    status = ImplicationStatus.APPLIED if analysis.l else ImplicationStatus.DEGENERATE
    total, parts, scale = _energy_difference(facts)
    diff = total - parts
    margin = _ENERGY_CERTAINTY * scale
    ant_holds = diff <= margin
    ant_strict = diff <= -margin
    cons_lhs, cons_rhs = _ratio_inequality(analysis, use_b=True)
    cons_holds = cons_lhs <= cons_rhs
    cons_strict = cons_lhs < cons_rhs
    # Enforce only on a certainly-established antecedent: a strict energy
    # drop demands a strict B-inequality, anything within the uncertainty
    # band demands nothing.
    ok = not ant_strict or cons_strict
    if diff <= -margin:
        ok = ok and cons_holds
    return ImplicationRecord(
        status=status,
        antecedent_lhs=total, antecedent_rhs=parts,
        antecedent_holds=ant_holds, antecedent_strict=ant_strict,
        consequent_lhs=float(cons_lhs), consequent_rhs=float(cons_rhs),
        consequent_holds=cons_holds, consequent_strict=cons_strict,
        implication_ok=ok)


def ab_remark_check(d: FactsLike) -> bool:
    """The A-set form of the signed ratio expression dominates the B-set
    form; exact rational comparison."""
    analysis = as_facts(d).analysis
    a_lhs, a_rhs = _ratio_inequality(analysis, use_b=False)
    b_lhs, b_rhs = _ratio_inequality(analysis, use_b=True)
    return (a_lhs - a_rhs) >= (b_lhs - b_rhs)
