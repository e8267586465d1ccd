"""loopspec: spectra, energy, and certified inequalities for directed
graphs with self-loops.

The library models digraphs whose distinguished vertices carry one loop
each, computes their exact characteristic polynomials and floating-point
spectra through two independent routes, evaluates the energy
E = sum |Re(lambda_i) - sigma/n|, certifies every supported inequality
with explicit slack, and fuzzes the whole theory over all small graphs.
"""

from .errors import (BadPartition, CounterexampleError, FormatError,
                     IdOutOfRange, LoopspecError, NoConvergence, NotRegular,
                     OrderTooSmall, SelfPairInArcList, SizeLimit)
from .graphs import (DegreeProfile, Digraph, complement, complete,
                     complete_bipartite, complete_multipartite,
                     count_two_cycles, degrees, directed_cycle,
                     disjoint_union, empty_digraph, generate, is_acyclic,
                     new_digraph, regularity)
from .formats import dumps_json, from_json_dict, from_text, load_path, loads, to_json_dict, to_text
from .scc import (SccPartition, component_digraphs, induced_subdigraph,
                  non_cycle_arcs, prune_non_cycle_arcs, strong_components)
from .linalg import (CharPoly, Spectrum, adjacency, char_poly_exact,
                     charpoly_product, eigenvalues, linear_subdigraph_charpoly,
                     matching_distance, poly_roots)
from .spectral import (EnergyReport, GraphFacts, complement_spectrum_regular,
                       energy, energy_positive_part, regular_energy_sum,
                       spectral_radius, trace_identities, zero_energy_check)
from .bounds import (ALL_BOUND_IDS, BoundCertificate, all_certificates,
                     complement_energy_sum, complement_rho_sum,
                     component_gap, energy_lower_c2, mcclelland,
                     mcclelland_equality_family, power_sum_bounds, rho_lower,
                     rho_lower_equality_structure, rho_upper)
from .decomposition import (ComponentAnalysis, ImplicationRecord,
                            ImplicationStatus, ab_remark_check, analyze,
                            necessary_condition, sufficient_condition)
# The function ``sweep`` is not re-exported, so ``loopspec.sweep`` stays
# the submodule; import it as ``from loopspec.sweep import sweep``.
from .sweep import SweepReport, census_findings, random_digraph, THEOREM_CHECKS

__version__ = "0.1.0"
