"""Exhaustive and randomized theorem fuzzing over small loop-digraphs.

A graph on n labeled vertices is an adjacency bit pattern (diagonal bits
are loops).  Every property under test is invariant under relabeling, so
an exhaustive sweep checks one graph per relabeling class: the class's
least bit pattern, in ascending order.  Each class counts with its orbit
size n!/|Aut|, so ``graphs_checked`` and every pass/fail/na tally equal
those of a walk over all 2**(n*n) labeled graphs.  The least pattern of a
class is also the first of its graphs in bit-pattern order, so the census
entries and witnesses are the ones a labeled walk would report.  A sampled
sweep checks seeded random bit patterns, each with weight 1.  The
equality census deduplicates by a sorted-degree plus
characteristic-polynomial signature.

Both modes run the same loop.  An input source yields chunks of (bit
pattern, weight) pairs; one chunk runner checks each chunk, serially or
in a worker process, and ``sweep`` merges the chunks in order.

Before any check runs, a batch stage computes the chunk's spectra on
stacks of adjacency matrices.  From them ``bounds.certain_passes``
decides, in numpy, every certificate check on a graph's own spectrum
that certainly passes without equality; such a check is tallied as a
pass without running, and a graph whose selected checks are all decided
builds no facts at all.  One rule then fills each other stacked field
(the complement's spectrum, the cycle-cover charpoly, the exact charpoly
and its roots) with one call per stack: on every graph when a selected
check reads it on every graph, else on the graphs left undecided when
their certificates' exact-root re-check reads it.  Each graph's
``GraphFacts`` starts with these fields filled.  A graph whose batch row
fails gets the field unfilled, so its own lazy call raises at the same
point of the check order as it would alone, and only if the sweep
reaches it.

The graphs of a chunk share one facts table (see ``spectral``), keyed by
the exact labeled digraph: each distinct strong component of order 4 or
less, and each such loopless form that the loop-shift check compares
with, is analysed once per chunk, however many graphs contain it.  The
table lives as long as its chunk, so every chunk, in whatever process,
computes the same values.

A failed check is a counterexample to a published statement; the sweep
stops, serializes the witness graph, and the report carries it.  A sweep
that stops counts the weighted graphs checked up to and including the
failing one; in an exhaustive sweep that graph is the least labeling of
its class.
"""

from __future__ import annotations

import collections
import itertools
import json
import math
import random
import sys
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import bounds, decomposition, spectral
from .decomposition import ImplicationStatus
from .errors import CounterexampleError, LoopspecError, OrderTooSmall, SizeLimit
from .formats import to_json_dict
from .graphs import Digraph, complement, degrees, delta_sigma
from .linalg import (MAX_ENUMERATION_ORDER, char_poly_exact_many, charpoly_product,
                     eigenvalues_many, linear_subdigraph_charpoly_many, poly_roots_many)
from .spectral import GraphFacts
from .tolerances import (CLOSED_FORM_RTOL, TRACE_TOL, agrees, equality_tol, scaled,
                         spectra_match)

MAX_EXHAUSTIVE_ORDER = 5


@dataclass(frozen=True)
class CheckOutcome:
    status: str                      # "pass" | "fail" | "na"
    detail: Optional[str] = None
    certificates: tuple[bounds.BoundCertificate, ...] = ()


def digraph_from_bits(n: int, mask: int) -> Digraph:
    """Bit k of ``mask`` is entry (k // n, k % n); diagonal bits are loops."""
    arcs = []
    loops = []
    for k in range(n * n):
        if mask >> k & 1:
            i, j = divmod(k, n)
            if i == j:
                loops.append(i)
            else:
                arcs.append((i, j))
    return Digraph(n, frozenset(arcs), frozenset(loops))


_ORBIT_CHUNK = 1 << 14   # masks relabeled at once; bounds the numpy temporaries


def orbit_classes(n: int) -> tuple[list[int], list[int]]:
    """The least mask of every relabeling class on n vertices, ascending,
    and the class's orbit size n!/|Aut|; the sizes sum to 2**(n*n).

    Each chunk of masks is relabeled under every non-identity permutation
    by per-row lookup tables.  A mask drops out as soon as one image is
    smaller, and the images equal to it count its automorphisms.
    """
    if n > MAX_EXHAUSTIVE_ORDER:
        raise SizeLimit(f"exhaustive enumeration capped at n = {MAX_EXHAUSTIVE_ORDER}")
    row_mask = (1 << n) - 1
    patterns = np.arange(1 << n, dtype=np.int32)
    relabelings = list(itertools.permutations(range(n)))[1:]
    # tables[t, i, r]: where row i with bit pattern r lands under relabeling t
    tables = np.zeros((len(relabelings), n, 1 << n), dtype=np.int32)
    for t, p in enumerate(relabelings):
        for i in range(n):
            for j in range(n):
                tables[t, i] |= ((patterns >> j) & 1) << (p[i] * n + p[j])
    masks: list[int] = []
    fixed: list[int] = []
    total = 1 << (n * n)
    for lo in range(0, total, _ORBIT_CHUNK):
        least = np.arange(lo, min(lo + _ORBIT_CHUNK, total), dtype=np.int32)
        aut = np.ones(len(least), dtype=np.int32)
        for table in tables:
            image = table[0][least & row_mask]
            for i in range(1, n):
                image |= table[i][(least >> (i * n)) & row_mask]
            keep = image >= least
            least, image, aut = least[keep], image[keep], aut[keep]
            aut += image == least
        masks += least.tolist()
        fixed += aut.tolist()
    order = math.factorial(n)
    return masks, [order // a for a in fixed]


def random_digraph(n: int, arc_prob: float, loop_prob: float, seed: int) -> Digraph:
    """Independent Bernoulli arcs and loops; reproducible from the seed."""
    return digraph_from_bits(n, _sample_mask(n, arc_prob, loop_prob, seed))


def _sample_mask(n: int, arc_prob: float, loop_prob: float, seed: int) -> int:
    """One uniform draw per adjacency entry in row-major order; an entry is
    set when its draw falls below its probability (``loop_prob`` on the
    diagonal, ``arc_prob`` off it)."""
    if not (0.0 <= arc_prob <= 1.0 and 0.0 <= loop_prob <= 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    rng = random.Random(seed)
    return sum(1 << k for k in range(n * n)
               if rng.random() < (loop_prob if k % (n + 1) == 0 else arc_prob))


# ---------------------------------------------------------------------------
# Individual theorem checks

def _cert_outcome(*certs: bounds.BoundCertificate) -> CheckOutcome:
    bad = [c for c in certs if not c.holds]
    if bad:
        detail = "; ".join(f"{c.bound_id}: lhs={c.lhs!r} rhs={c.rhs!r}" for c in bad)
        return CheckOutcome("fail", detail, certs)
    return CheckOutcome("pass", None, certs)


def _certified(bound: str) -> Callable[[GraphFacts], CheckOutcome]:
    """The check that every certificate ``bounds.<bound>`` returns holds;
    "na" where the bound is undefined at the graph's order.

    The bound is looked up by name on each call, so whatever is bound to
    that name at the time (a tracing wrapper, say) sees the call.
    """
    def check(facts: GraphFacts) -> CheckOutcome:
        try:
            certs = getattr(bounds, bound)(facts)
        except OrderTooSmall as exc:
            return CheckOutcome("na", str(exc))
        return _cert_outcome(*(certs if isinstance(certs, tuple) else (certs,)))
    check.bound = bound   # what the batch stage's array pass knows it by
    return check


def check_trace_identities(facts: GraphFacts) -> CheckOutcome:
    report = spectral.trace_identities(facts)
    if report.sum_ok and report.sumsq_ok and report.re_im_ok:
        return CheckOutcome("pass")
    return CheckOutcome("fail", f"trace identities off: {report}")


def check_charpoly_invariance(facts: GraphFacts) -> CheckOutcome:
    """Pruning non-cycle arcs and splitting into strong components both
    preserve the exact characteristic polynomial."""
    own = facts.charpoly
    pruned = facts.pruned_charpoly
    if own != pruned:
        return CheckOutcome("fail", f"pruned charpoly differs: {own} vs {pruned}")
    product = charpoly_product(f.charpoly for f in facts.component_facts)
    if own != product:
        return CheckOutcome("fail", f"component product differs: {own} vs {product}")
    return CheckOutcome("pass")


def check_zero_energy(facts: GraphFacts) -> CheckOutcome:
    spectral.zero_energy_check(facts)
    return CheckOutcome("pass")


def check_complement_involution(facts: GraphFacts) -> CheckOutcome:
    """Complement is an involution below sigma = n; a fully looped graph
    maps through a loopless complement back to its loopless projection."""
    twice = complement(facts.complement_digraph)
    expected = facts.d if facts.sigma < facts.n else facts.d.loopless()
    if twice != expected:
        return CheckOutcome("fail", "double complement mismatch")
    return CheckOutcome("pass")


def _implication_outcome(record) -> CheckOutcome:
    if not record.implication_ok:
        return CheckOutcome("fail", json.dumps(record.to_json_dict()))
    if record.status is not ImplicationStatus.APPLIED:
        return CheckOutcome("na", record.status.value)
    return CheckOutcome("pass")


def check_sufficient_condition(facts: GraphFacts) -> CheckOutcome:
    return _implication_outcome(decomposition.sufficient_condition(facts))


def check_necessary_condition(facts: GraphFacts) -> CheckOutcome:
    return _implication_outcome(decomposition.necessary_condition(facts))


def check_ab_remark(facts: GraphFacts) -> CheckOutcome:
    if decomposition.ab_remark_check(facts):
        return CheckOutcome("pass")
    return CheckOutcome("fail", "A-set expression below B-set expression")


def check_regular_complement_spectrum(facts: GraphFacts) -> CheckOutcome:
    if facts.regularity is None:
        return CheckOutcome("na", "not regular")
    match, dist = spectra_match(spectral.complement_spectrum_regular(facts),
                                facts.complement_facts.spectrum)
    if not match:
        return CheckOutcome("fail", f"complement spectrum map off by {dist:.3e}")
    return CheckOutcome("pass")


def check_regular_energy_sum(facts: GraphFacts) -> CheckOutcome:
    if facts.regularity is None:
        return CheckOutcome("na", "not regular")
    closed = spectral.regular_energy_sum(facts)
    direct = facts.energy_value() + facts.complement_facts.energy_value()
    if not agrees(closed, direct, scaled(CLOSED_FORM_RTOL, direct)):
        return CheckOutcome("fail", f"closed form {closed} vs direct {direct}")
    return CheckOutcome("pass")


def check_oracle_roots(facts: GraphFacts) -> CheckOutcome:
    match, dist = spectra_match(facts.spectrum, facts.verified_spectrum)
    if not match:
        return CheckOutcome("fail", f"QR vs charpoly roots off by {dist:.3e}")
    return CheckOutcome("pass")


def check_oracle_charpoly(facts: GraphFacts) -> CheckOutcome:
    if facts.n > MAX_ENUMERATION_ORDER:
        return CheckOutcome(
            "na", f"cycle-cover enumeration capped at n = {MAX_ENUMERATION_ORDER}")
    combinatorial = facts.cycle_cover_charpoly
    if combinatorial != facts.charpoly:
        return CheckOutcome(
            "fail", f"{facts.charpoly} vs cycle covers {combinatorial}")
    return CheckOutcome("pass")


def check_perron(facts: GraphFacts) -> CheckOutcome:
    spectral.spectral_radius(facts)
    return CheckOutcome("pass")


def check_energy_positive_part(facts: GraphFacts) -> CheckOutcome:
    direct = facts.energy_value()
    doubled = spectral.energy_positive_part(facts)
    if not agrees(direct, doubled, TRACE_TOL * facts.n):
        return CheckOutcome("fail", f"energy {direct} vs positive part {doubled}")
    return CheckOutcome("pass")


def check_loop_shift(facts: GraphFacts) -> CheckOutcome:
    """With a loop at every vertex the energy matches the loopless graph
    (the no-loop half of the statement is vacuous)."""
    if facts.sigma != facts.n:
        return CheckOutcome("na", "needs sigma = n")
    bare = facts.derived(facts.d.loopless())
    if not agrees(facts.energy_value(), bare.energy_value(), TRACE_TOL * facts.n):
        return CheckOutcome("fail", "full-loop energy differs from loopless energy")
    return CheckOutcome("pass")


THEOREM_CHECKS: dict[str, Callable[[GraphFacts], CheckOutcome]] = {
    "mcclelland": _certified("mcclelland"),
    "rho_lower": _certified("rho_lower"),
    "energy_lower_c2": _certified("energy_lower_c2"),
    "rho_upper": _certified("rho_upper"),
    "component_gap": _certified("component_gap"),
    "complement_rho_sum": _certified("complement_rho_sum"),
    "complement_energy_sum": _certified("complement_energy_sum"),
    "power_sums": _certified("power_sum_bounds"),
    "trace_identities": check_trace_identities,
    "charpoly_invariance": check_charpoly_invariance,
    "zero_energy": check_zero_energy,
    "complement_involution": check_complement_involution,
    "sufficient_condition": check_sufficient_condition,
    "necessary_condition": check_necessary_condition,
    "ab_remark": check_ab_remark,
    "regular_complement_spectrum": check_regular_complement_spectrum,
    "regular_energy_sum": check_regular_energy_sum,
    "oracle_roots": check_oracle_roots,
    "oracle_charpoly": check_oracle_charpoly,
    "perron": check_perron,
    "energy_positive_part": check_energy_positive_part,
    "loop_shift": check_loop_shift,
}


def resolve_theorems(names: Sequence[str] | str) -> list[str]:
    if isinstance(names, str):
        names = [names]
    if len(names) == 1 and names[0] == "all":
        return list(THEOREM_CHECKS)
    unknown = [name for name in names if name not in THEOREM_CHECKS]
    if unknown:
        raise ValueError(f"unknown theorems: {', '.join(unknown)}; "
                         f"known: {', '.join(THEOREM_CHECKS)}")
    return list(names)


# ---------------------------------------------------------------------------
# Sweep driver

def _census_signature(facts: GraphFacts) -> str:
    """Sorted (out, in, loop) degree triples plus the exact charpoly.

    Relabelings share a signature; distinct structures essentially never
    collide at these orders.
    """
    prof = degrees(facts.d)
    triples = sorted(zip(prof.out_deg, prof.in_deg,
                         (v in facts.d.loops for v in range(facts.n))))
    return json.dumps({"degrees": [[o, i, int(l)] for o, i, l in triples],
                       "charpoly": list(facts.charpoly.coeffs)})


@dataclass(slots=True)
class _Tally:
    passed: int = 0
    failed: int = 0
    na: int = 0


@dataclass
class SweepReport:
    n: int
    mode: str
    theorems: list[str]
    graphs_checked: int
    checks: dict[str, _Tally]
    # bound id -> the bit masks, census signatures and witnesses of its
    # census entries, as three lists in entry order, so that a report holds
    # no object per entry but its mask
    census_entries: dict[str, tuple[list[int], list[str], list[Optional[str]]]]
    counterexamples: list[dict]
    census_findings: list[dict]
    params: dict
    wall_time: float = 0.0

    @property
    def equality_census(self) -> dict[str, list[dict]]:
        """The census by bound id as JSON dicts, built on each read."""
        return {
            bound_id: [{"graph": to_json_dict(digraph_from_bits(self.n, mask)),
                        "signature": signature, "witness": witness}
                       for mask, signature, witness in zip(*columns)]
            for bound_id, columns in self.census_entries.items()
        }

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "mode": self.mode,
            "theorems": self.theorems,
            "graphs_checked": self.graphs_checked,
            "checks": {
                name: {"pass": t.passed, "fail": t.failed, "na": t.na}
                for name, t in self.checks.items()
            },
            "equality_census": self.equality_census,
            "counterexamples": self.counterexamples,
            "census_findings": self.census_findings,
            "params": self.params,
            "wall_time": self.wall_time,
        }

    @property
    def ok(self) -> bool:
        return not self.counterexamples and not self.census_findings


def _new_report(n: int, mode: str, theorems: list[str], params: dict) -> SweepReport:
    return SweepReport(
        n=n, mode=mode, theorems=theorems, graphs_checked=0,
        checks={name: _Tally() for name in theorems},
        census_entries={}, counterexamples=[], census_findings=[],
        params=params)


def census_findings(report: SweepReport) -> list[dict]:
    """Compare the equality census against the published equality
    characterizations.

    A McClelland-equality graph outside the family list, or a rho-lower
    equality graph whose pruned form is not a symmetric regular
    symmetrization, is a finding: a concrete gap in a published equality
    characterization.  Each census entry's certificate witness already
    records that verdict, so only the findings are decoded.  (The n = 4
    sweep does produce one: the directed triangle together with a looped
    isolated vertex attains the McClelland bound yet is none of the
    published families.)
    """
    findings: list[dict] = []
    for bound_id, gap, reason in (
            (bounds.MCCLELLAND, bounds.FAMILY_UNRECOGNIZED,
             "equality attained outside the published family list"),
            (bounds.RHO_LOWER, bounds.STRUCTURE_UNRECOGNIZED,
             "equality without the symmetric bidegree structure")):
        for mask, _, witness in zip(*report.census_entries.get(bound_id, ())):
            if witness == gap:
                findings.append({
                    "bound_id": bound_id,
                    "graph": to_json_dict(digraph_from_bits(report.n, mask)),
                    "reason": reason})
    return findings


def _check_graph(report: SweepReport, mask: int, theorems: list[str],
                 weight: int, known: dict, decided: frozenset[str], table: dict) -> bool:
    """Run the selected checks on the graph with bit pattern ``mask``, which
    stands for ``weight`` labeled graphs, with the ``GraphFacts`` fields
    ``known`` already computed and the chunk's facts ``table``; returns
    False when a counterexample stops the sweep.  A check in
    ``decided`` is known to pass without equality and is tallied without
    running; the graph's facts are built only when a check runs.  Each
    equality certificate adds a census entry; the merge keeps the first
    one per signature."""
    report.graphs_checked += weight
    facts = None
    signature = None
    for name in theorems:
        tally = report.checks[name]
        if name in decided:
            tally.passed += weight
            continue
        if facts is None:
            facts = GraphFacts(digraph_from_bits(report.n, mask), with_residuals=False,
                               table=table, **known)
        try:
            outcome = THEOREM_CHECKS[name](facts)
        except CounterexampleError as exc:
            outcome = CheckOutcome("fail", str(exc))
        if outcome.status == "pass":
            tally.passed += weight
        elif outcome.status == "na":
            tally.na += weight
        else:
            tally.failed += weight
            report.counterexamples.append({
                "check": name,
                "graph": to_json_dict(facts.d),
                "detail": outcome.detail,
            })
            return False
        for cert in outcome.certificates:
            if cert.equality:
                # Interned, as is the witness, so the reports a process
                # keeps share these strings.
                signature = signature or sys.intern(_census_signature(facts))
                witness = cert.witness and sys.intern(cert.witness)
                _add_census_entry(report, cert.bound_id, mask, signature, witness)
    return True


def _add_census_entry(report: SweepReport, bound_id: str, *entry) -> None:
    """Append (bit mask, census signature, witness) to the bound's census."""
    for column, value in zip(report.census_entries.setdefault(bound_id, ([], [], [])), entry):
        column.append(value)


def _adjacency_stack(n: int, masks: Sequence[int]) -> np.ndarray:
    """The 0/1 adjacency matrices of the bit patterns as a (k, n, n) stack,
    unpacked from each pattern's little-endian bytes, so that patterns of
    64 bits and more (n >= 8) need no int64."""
    width = (n * n + 7) // 8
    packed = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks),
                           dtype=np.uint8).reshape(len(masks), width)
    return np.unpackbits(packed, axis=1, count=n * n,
                         bitorder="little").reshape(len(masks), n, n)


# One row per GraphFacts field that the batch stage fills on a stack: the
# field, the checks that read it on every graph, whether an undecided
# certificate's exact-root re-check reads it, the field its kernel reads
# per graph (None: the adjacency matrix), and the kernel, one call per
# stack.  The regular-complement checks read the complement's spectrum of
# regular graphs only, so they get the preset when another check has the
# stack built, and compute their own otherwise.  Each kernel names its
# call when it runs, so that whatever is bound to the name then (a
# counting wrapper, say) sees the call.
_PRESETS = (
    ("complement", frozenset({"complement_rho_sum", "complement_energy_sum"}), False, None,
     lambda adj: [s if isinstance(s, LoopspecError) else {"spectrum": s}
                  for s in eigenvalues_many(_complement_stack(adj), with_residuals=False)]),
    ("cycle_cover_charpoly", frozenset({"oracle_charpoly"}), False, None,
     lambda adj: linear_subdigraph_charpoly_many(adj)),
    ("charpoly", frozenset({"charpoly_invariance", "oracle_charpoly", "oracle_roots"}),
     True, None, lambda adj: char_poly_exact_many(adj)),
    ("verified_spectrum", frozenset({"oracle_roots"}), True, "charpoly",
     lambda charpolys: poly_roots_many(charpolys)),
)
_STACK = 256   # graphs per stack of the batch stage; bounds the memory it holds


def _batch_facts(n: int, masks: Sequence[int],
                 theorems: list[str]) -> Iterator[tuple[frozenset[str], dict]]:
    """For each graph of a chunk, the selected checks that certainly pass
    and the ``GraphFacts`` fields already computed, worked out on stacks
    of up to _STACK graphs as the chunk's checks reach them.

    Every stack gets its spectra, and ``bounds.certain_passes`` decides
    the certificate checks it can from them.  Then one rule fills each
    field of _PRESETS: on every graph when a selected check reads it on
    every graph, else on the graphs that some certificate check leaves
    undecided when their exact-root re-check reads it, else on none; a
    field computed from another goes only to the graphs that got that
    one.  A kernel that fails for the whole stack fills nothing, and a
    graph whose own result is an error gets no field, so that its own
    lazy call raises the error at the point of the check order where it
    always did."""
    reads = set(theorems)
    if n > MAX_ENUMERATION_ORDER:
        reads.discard("oracle_charpoly")   # "na" on every graph: it reads nothing
    certified = [(name, THEOREM_CHECKS[name].bound) for name in theorems
                 if hasattr(THEOREM_CHECKS[name], "bound")]
    for lo in range(0, len(masks), _STACK):
        adj = _adjacency_stack(n, masks[lo:lo + _STACK])
        spectra = eigenvalues_many(adj, with_residuals=False)
        known = [{} if isinstance(s, LoopspecError) else {"spectrum": s} for s in spectra]
        decided = [frozenset()] * len(adj)
        columns = []
        if certified:
            passes = bounds.certain_passes(n, adj, spectra, equality_tol())
            columns = [(name, passes[bound].tolist()) for name, bound in certified
                       if bound in passes]
            decided = [frozenset(name for name, column in columns if column[i])
                       for i in range(len(adj))]
        undecided = [i for i, names in enumerate(decided) if len(names) < len(columns)]
        for field, readers, recheck, source, kernel in _PRESETS:
            rows = range(len(adj)) if readers & reads else undecided if recheck else []
            if source is not None:
                rows = [i for i in rows if source in known[i]]
            if not rows:
                continue
            try:
                values = kernel(adj[list(rows)] if source is None
                                else [known[i][source] for i in rows])
            except LoopspecError:
                continue   # past the kernel's size cap: each graph raises on its own
            for i, value in zip(rows, values):
                if not isinstance(value, LoopspecError):
                    known[i][field] = value
        yield from zip(decided, known)


def _complement_stack(adj: np.ndarray) -> np.ndarray:
    """The adjacency matrices of the complements of a 0/1 stack, as
    ``graphs.complement`` makes them: J - A - delta I."""
    delta = delta_sigma(adj.trace(axis1=1, axis2=2))
    return 1 - adj - delta[:, None, None] * np.eye(adj.shape[1], dtype=np.int64)


def _run_chunk(args: tuple) -> SweepReport:
    """Check a chunk of graphs, given by bit pattern and weight, until the
    first counterexample."""
    n, masks, weights, theorems = args
    report = _new_report(n, "", theorems, {})
    table: dict = {}
    for mask, weight, (decided, known) in zip(masks, weights,
                                              _batch_facts(n, masks, theorems)):
        if not _check_graph(report, mask, theorems, weight, known, decided, table):
            break
    return report


def _merge_reports(into: SweepReport, part: SweepReport,
                   census_seen: dict[str, set[str]]) -> None:
    """Add ``part`` to ``into``; the census keeps the first entry of each
    signature, so parts must arrive in sweep order."""
    into.graphs_checked += part.graphs_checked
    for name, tally in part.checks.items():
        target = into.checks[name]
        target.passed += tally.passed
        target.failed += tally.failed
        target.na += tally.na
    into.counterexamples.extend(part.counterexamples)
    for bound_id, columns in part.census_entries.items():
        seen = census_seen.setdefault(bound_id, set())
        for entry in zip(*columns):
            if entry[1] not in seen:
                seen.add(entry[1])
                _add_census_entry(into, bound_id, *entry)


_PART_CLASSES = 4096   # graphs per unit of work handed to one worker


def _parts(total: int, jobs: int) -> Iterator[range]:
    """Consecutive index ranges over ``total`` graphs, small enough that
    ``jobs`` workers all get some."""
    step = max(1, min(_PART_CLASSES, -(-total // jobs)))
    return (range(lo, min(lo + step, total)) for lo in range(0, total, step))


def _class_source(n: int, jobs: int) -> Iterator[tuple[list[int], list[int]]]:
    """Chunks of the least mask of every relabeling class, with orbit sizes."""
    masks, weights = orbit_classes(n)
    return ((masks[r.start:r.stop], weights[r.start:r.stop])
            for r in _parts(len(masks), jobs))


def _sample_source(n: int, samples: int, seed: int, arc_prob: float,
                   loop_prob: float, jobs: int) -> Iterator[tuple[list[int], list[int]]]:
    """Chunks of sample masks, drawn as they are needed: sample i is
    ``random_digraph(n, arc_prob, loop_prob, seed + i)`` and counts once."""
    return (([_sample_mask(n, arc_prob, loop_prob, seed + i) for i in r], [1] * len(r))
            for r in _parts(samples, jobs))


def _map_ahead(pool, fn: Callable, items: Iterable, ahead: int) -> Iterator:
    """``map(fn, items)`` on the pool, in order, with at most ``ahead``
    items submitted and not yet read."""
    pending: collections.deque = collections.deque()
    for item in items:
        pending.append(pool.submit(fn, item))
        if len(pending) == ahead:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def sweep(n: int,
          theorems: Sequence[str] | str = "all",
          *,
          samples: int | None = None,
          seed: int = 0,
          arc_prob: float = 0.5,
          loop_prob: float = 0.5,
          jobs: int = 1) -> SweepReport:
    """Run the selected theorem checks over many graphs.

    Without ``samples`` the sweep is exhaustive: it covers all 2**(n*n)
    labeled graphs (n <= 5) by checking one graph per relabeling class,
    weighted by its orbit size.  With ``samples`` it checks that many
    seeded random graphs instead.  Either way ``jobs`` worker processes
    share the chunks, which merge in order, so every ``jobs`` value gives
    the serial report.  The sweep stops at the first counterexample and
    serializes the witness in the report.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, not {n}")
    if samples is not None and samples < 1:
        raise ValueError(f"samples must be at least 1, not {samples}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, not {jobs}")
    selected = resolve_theorems(theorems)
    start_time = time.perf_counter()
    if samples is None:
        report = _new_report(n, "exhaustive", selected, {"exhaustive": True})
        source = _class_source(n, jobs)
    else:
        params = {"exhaustive": False, "samples": samples, "seed": seed,
                  "arc_prob": arc_prob, "loop_prob": loop_prob}
        report = _new_report(n, "random", selected, params)
        source = _sample_source(n, samples, seed, arc_prob, loop_prob, jobs)
    work = ((n, masks, weights, selected) for masks, weights in source)
    census_seen: dict[str, set[str]] = {}
    pool = None
    if jobs > 1:
        # Imported here, so that only a parallel sweep loads the pool.
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=jobs)
    try:
        parts = _map_ahead(pool, _run_chunk, work, 2 * jobs) if pool else map(_run_chunk, work)
        for part in parts:
            _merge_reports(report, part, census_seen)
            if part.counterexamples:
                break
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    report.census_findings = census_findings(report)
    report.wall_time = time.perf_counter() - start_time
    return report
