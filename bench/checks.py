"""Output checks for the benchmark, computed apart from the program.

Nothing here imports loopspec.  The references come from the benchmark's
own adjacency matrices and reachability, exact integer and rational
arithmetic, sympy for characteristic polynomials, square-free factors and
real-root counts, and numpy's ``eigvals`` only on normal matrices, where
it is accurate to rounding.  Every ``check_*`` function returns a list of
problems; an empty list means the output is correct.

Graphs are plain dicts in the program's JSON form:
``{"n": int, "arcs": [[u, v], ...], "loops": [v, ...]}``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

# The 22 checks of ``sweep(n, "all")``.  Only these five can report "na";
# each has its own gate below.
ALL_CHECK_COUNT = 22
GATED_CHECKS = ("loop_shift", "regular_complement_spectrum", "regular_energy_sum",
                "sufficient_condition", "necessary_condition")

# Program floats are printed with 12 significant digits.  On the graphs of
# the cli-cold pools of seeds 0..119, under all four commands, the
# program's energies and eigenvalues agree with the references below to
# 5e-12 relative; these bounds leave room for that and catch an error of
# 1e-6.
ENERGY_TOL = 1e-9
EIGEN_TOL = 1e-8
RHS_TOL = 1e-10

CENSUS_N = 4
CENSUS_CHECKS = ("mcclelland", "rho_lower")


# ---------------------------------------------------------------------------
# Matrices and structure

def adjacency(graph: dict) -> np.ndarray:
    n = graph["n"]
    a = np.zeros((n, n), dtype=np.int64)
    for u, v in graph["arcs"]:
        a[u, v] = 1
    for v in graph["loops"]:
        a[v, v] = 1
    return a


def matrices_from_masks(n: int, masks: np.ndarray) -> np.ndarray:
    """Bit k of each mask is entry (k // n, k % n)."""
    bits = (masks[:, None] >> np.arange(n * n)) & 1
    return bits.reshape(-1, n, n).astype(np.int64)


def graph_counts(a: np.ndarray) -> tuple[int, int, int, int]:
    """(n, m, sigma, c2) of one adjacency matrix; c2 counts each digon twice."""
    off = a - np.diag(np.diag(a))
    return (a.shape[0], int(off.sum()), int(np.trace(a)),
            int((off * off.T).sum()))


def mutual_reachability(mats: np.ndarray) -> np.ndarray:
    """Boolean (B, n, n): i and j lie in the same strong component."""
    n = mats.shape[-1]
    reach = (mats != 0) | np.eye(n, dtype=bool)
    for _ in range(n.bit_length()):
        reach = (reach.astype(np.int64) @ reach.astype(np.int64)) > 0
    return reach & np.swapaxes(reach, -1, -2)


def gate_counts(n: int, mats: np.ndarray) -> dict[str, int]:
    """How many of the graphs each gated check must report as "na"."""
    sigma = np.trace(mats, axis1=1, axis2=2)
    rows = mats.sum(axis=2)
    cols = mats.sum(axis=1)
    r = rows[:, :1]
    regular = (rows == r).all(axis=1) & (cols == r).all(axis=1)
    mutual = mutual_reachability(mats)
    sizes = mutual.sum(axis=2)
    loops_in_comp = (mutual * np.diagonal(mats, axis1=1, axis2=2)[:, None, :]).sum(axis=2)
    single = (sizes == n).all(axis=1)
    same_ratio = (loops_in_comp * n == sigma[:, None] * sizes).all(axis=1)
    no_split = int((single | same_ratio).sum())
    return {
        "loop_shift": int((sigma != n).sum()),
        "regular_complement_spectrum": int((~regular).sum()),
        "regular_energy_sum": int((~regular).sum()),
        "sufficient_condition": no_split,
        "necessary_condition": no_split,
    }


def exhaustive_reference(n: int) -> dict:
    masks = np.arange(1 << (n * n), dtype=np.int64)
    return {"graphs": len(masks), "na": gate_counts(n, matrices_from_masks(n, masks))}


# ---------------------------------------------------------------------------
# Sweep reports

def _tally_problems(report: dict, total: int, expected_na: dict[str, int]) -> list[str]:
    problems = []
    if report["graphs_checked"] != total:
        problems.append(f"graphs_checked {report['graphs_checked']} != {total}")
    for name, tally in report["checks"].items():
        if tally["pass"] + tally["fail"] + tally["na"] != total:
            problems.append(f"{name}: pass + fail + na = "
                            f"{tally['pass'] + tally['fail'] + tally['na']} != {total}")
        if tally["fail"]:
            problems.append(f"{name}: {tally['fail']} failed")
        want = expected_na.get(name)
        if want is not None and tally["na"] != want:
            problems.append(f"{name}: na {tally['na']} != {want}")
    if report["counterexamples"]:
        problems.append(f"{len(report['counterexamples'])} counterexamples")
    return problems


def check_exhaustive(report: dict, reference: dict) -> list[str]:
    """``sweep(n, "all")``: every check covers every graph, none fails, and
    the gated checks skip exactly the graphs their gates exclude."""
    names = set(report["checks"])
    problems = []
    if len(names) != ALL_CHECK_COUNT:
        problems.append(f"{len(names)} checks, not {ALL_CHECK_COUNT}")
    missing = set(GATED_CHECKS) - names
    if missing:
        problems.append(f"gated checks missing: {sorted(missing)}")
    expected_na = {name: 0 for name in names}
    expected_na.update(reference["na"])
    return problems + _tally_problems(report, reference["graphs"], expected_na)


def check_sampled(report: dict, samples: int) -> list[str]:
    """``sweep(n, "all", samples=...)``: tallies sum to the sample count and
    no check fails."""
    problems = []
    if len(report["checks"]) != ALL_CHECK_COUNT:
        problems.append(f"{len(report['checks'])} checks, not {ALL_CHECK_COUNT}")
    return problems + _tally_problems(report, samples, {})


# ---------------------------------------------------------------------------
# The n = 4 equality census

def canonical_codes(mats: np.ndarray) -> np.ndarray:
    """Smallest bit code over all relabelings: equal iff isomorphic."""
    n = mats.shape[-1]
    weights = (1 << np.arange(n * n, dtype=np.int64)).reshape(n, n)
    best = None
    for perm in itertools.permutations(range(n)):
        p = list(perm)
        codes = (mats[:, p][:, :, p] * weights).sum(axis=(1, 2))
        best = codes if best is None else np.minimum(best, codes)
    return best


def _principal_minor_charpolys(mats: np.ndarray) -> list[tuple[int, ...]]:
    """Lower coefficients (ascending, leading 1 implicit) of det(xI - A):
    the coefficient of x^(n-k) is (-1)^k times the sum of k x k principal
    minors."""
    n = mats.shape[-1]
    out = np.zeros((len(mats), n), dtype=np.int64)
    if not len(mats):
        return []
    for k in range(1, n + 1):
        total = np.zeros(len(mats))
        for idx in itertools.combinations(range(n), k):
            sub = mats[:, idx][:, :, idx].astype(float)
            total += np.linalg.det(sub)
        exact = np.rint(total)
        if np.abs(total - exact).max() > 1e-6:
            raise ArithmeticError("principal minors are not integral")
        out[:, n - k] = (-1) ** k * exact.astype(np.int64)
    return [tuple(int(c) for c in row) for row in out]


def degree_signature(a: np.ndarray, charpoly: tuple[int, ...]) -> tuple:
    """Sorted (out, in, loop) triples, loops counted in both degrees, plus
    the characteristic polynomial."""
    triples = sorted(zip(a.sum(axis=1).tolist(), a.sum(axis=0).tolist(),
                         np.diag(a).tolist()))
    return tuple(triples), charpoly


def _rho_equals(charpoly: tuple[int, ...], q: Fraction) -> bool:
    """rho = q exactly: q is a root and no real root exceeds it.  The
    Perron root is the largest real eigenvalue of a nonnegative matrix."""
    import sympy

    full = list(charpoly) + [1]
    if sum(c * q ** j for j, c in enumerate(full)) != 0:
        return False
    x = sympy.Symbol("x")
    poly = sympy.Poly(list(reversed(full)), x)
    return poly.count_roots(sympy.Rational(q.numerator, q.denominator)) == 1


def census_reference() -> dict:
    """Isomorphism classes of n = 4 graphs where each bound is tight.

    McClelland: E <= sqrt(n sum (Re l - sigma/n)^2) <= the bound; the first
    step is tight iff every |Re l - sigma/n| is equal, the second iff A is
    normal.  rho lower: decided exactly on the characteristic polynomial.
    """
    n = CENSUS_N
    mats = matrices_from_masks(n, np.arange(1 << (n * n), dtype=np.int64))
    classes, first = np.unique(canonical_codes(mats), return_index=True)
    reps = mats[first]
    normal = (reps @ np.swapaxes(reps, 1, 2) == np.swapaxes(reps, 1, 2) @ reps).all(axis=(1, 2))
    mcclelland = set()
    for code, a in zip(classes[normal], reps[normal]):
        dev = np.abs(np.linalg.eigvals(a.astype(float)).real - np.trace(a) / n)
        if dev.max() - dev.min() <= 1e-9:
            mcclelland.add(int(code))
    charpolys = _principal_minor_charpolys(reps)
    rho_classes = set()
    rho_signatures = set()
    for code, a, cp in zip(classes, reps, charpolys):
        _, _, sigma, c2 = graph_counts(a)
        if _rho_equals(cp, Fraction(c2 + sigma, n)):
            rho_classes.add(int(code))
            rho_signatures.add(degree_signature(a, cp))
    return {"classes": len(classes), "mcclelland": mcclelland,
            "rho_lower": rho_classes, "rho_signatures": rho_signatures}


def is_triangle_plus_looped_vertex(graph: dict) -> bool:
    """Directed 3-cycle on three vertices, one looped isolated fourth."""
    if graph["n"] != 4 or len(graph["loops"]) != 1 or len(graph["arcs"]) != 3:
        return False
    looped = graph["loops"][0]
    succ = {u: v for u, v in graph["arcs"]}
    rest = {0, 1, 2, 3} - {looped}
    if set(succ) != rest or set(succ.values()) != rest:
        return False
    start = next(iter(rest))
    return succ[succ[succ[start]]] == start and succ[start] != start


def check_census(report: dict, reference: dict) -> list[str]:
    """``sweep(4, ["mcclelland", "rho_lower"])``: all graphs pass, the
    McClelland census is exactly the reference classes, every rho-lower
    entry is tight and every tight class's signature has an entry, and the
    one finding is the directed triangle plus a looped isolated vertex."""
    total = 1 << (CENSUS_N * CENSUS_N)
    problems = _tally_problems(report, total, {name: 0 for name in CENSUS_CHECKS})
    if sorted(report["checks"]) != sorted(CENSUS_CHECKS):
        problems.append(f"checks {sorted(report['checks'])}")
    census = report["equality_census"]

    mats = {bound: np.array([adjacency(e["graph"]) for e in census.get(bound, [])],
                            dtype=np.int64).reshape(-1, CENSUS_N, CENSUS_N)
            for bound in CENSUS_CHECKS}
    codes = [int(c) for c in canonical_codes(mats["mcclelland"])]
    if len(set(codes)) != len(codes):
        problems.append("mcclelland census repeats a class")
    if set(codes) != reference["mcclelland"]:
        problems.append(f"mcclelland census has {len(set(codes))} classes, "
                        f"{len(set(codes) - reference['mcclelland'])} not tight, "
                        f"{len(reference['mcclelland'] - set(codes))} tight ones missing")

    rho = mats["rho_lower"]
    untight = [int(c) for c in canonical_codes(rho) if int(c) not in reference["rho_lower"]]
    if untight:
        problems.append(f"{len(untight)} rho_lower entries are not tight")
    signatures = [degree_signature(a, cp)
                  for a, cp in zip(rho, _principal_minor_charpolys(rho))]
    if len(set(signatures)) != len(signatures):
        problems.append("rho_lower census repeats a signature")
    uncovered = reference["rho_signatures"] - set(signatures)
    if uncovered:
        problems.append(f"{len(uncovered)} tight rho_lower signatures have no entry")

    findings = report["census_findings"]
    if (len(findings) != 1 or findings[0]["bound_id"] != "mcclelland"
            or not is_triangle_plus_looped_vertex(findings[0]["graph"])):
        problems.append(f"census findings {findings} are not exactly the "
                        "directed triangle plus a looped isolated vertex")
    return problems


# ---------------------------------------------------------------------------
# CLI calls

def _energy(roots: list, mults: list[int], center) -> float:
    import sympy

    return float(sum(m * abs(sympy.re(r) - center) for r, m in zip(roots, mults)))


def _induced(a: np.ndarray, vertices: tuple[int, ...]) -> dict:
    sub = a[np.ix_(vertices, vertices)]
    k = len(vertices)
    return {"n": k,
            "arcs": [[i, j] for i in range(k) for j in range(k) if i != j and sub[i, j]],
            "loops": [i for i in range(k) if sub[i, i]]}


def spectrum_reference(graph: dict) -> dict:
    """Exact charpoly (sympy's Berkowitz), its roots to 30 digits from the
    square-free factors, and the energies of the graph and its strong
    components."""
    import sympy

    a = adjacency(graph)
    n, m, sigma, c2 = graph_counts(a)
    x = sympy.Symbol("x")
    charpoly = sympy.Matrix(a.tolist()).charpoly(x)
    roots, mults = [], []
    for factor, mult in sympy.sqf_list(charpoly.as_expr(), x)[1]:
        for r in sympy.Poly(factor, x).nroots(n=30, maxsteps=200):
            roots.append(r)
            mults.append(mult)
    energy = _energy(roots, mults, sympy.Rational(sigma, n))
    mutual = mutual_reachability(a[None])[0]
    comps = sorted({tuple(np.flatnonzero(row).tolist()) for row in mutual})
    component_energy = energy
    if len(comps) > 1:
        component_energy = math.fsum(
            spectrum_reference(_induced(a, comp))["energy"] for comp in comps)
    return {
        "input": {"n": n, "m": m, "sigma": sigma, "c2": c2},
        "charpoly": [int(c) for c in reversed(charpoly.all_coeffs())],
        "eigenvalues": [complex(r) for r, k in zip(roots, mults) for _ in range(k)],
        "energy": energy,
        "component_energy": component_energy,
        "mcclelland_rhs": math.sqrt(n * (m + c2 + 2 * sigma - 2 * sigma ** 2 / n) / 2),
    }


def _close(value: float, want: float, tol: float) -> bool:
    return abs(value - want) <= tol * max(1.0, abs(want))


def eigen_mismatch(values: list[complex], want: list[complex]) -> float:
    """Largest distance in a greedy nearest match of two multisets."""
    if len(values) != len(want):
        return math.inf
    left = list(values)
    worst = 0.0
    for z in want:
        j = min(range(len(left)), key=lambda k: abs(left[k] - z))
        worst = max(worst, abs(left.pop(j) - z) / max(1.0, abs(z)))
    return worst


def check_cli_call(command: str, returncode: int, stdout: str, ref: dict) -> list[str]:
    """One ``loopspec <command> <file>`` call against the graph's reference."""
    if returncode != 0:
        return [f"{command}: exit code {returncode}"]
    lines = stdout.strip().splitlines()
    if len(lines) != 1:
        return [f"{command}: {len(lines)} output lines, not one JSON envelope"]
    import json

    try:
        env = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        return [f"{command}: output is not JSON ({exc})"]
    if set(env) != {"command", "input", "payload", "version", "timestamp"}:
        return [f"{command}: envelope keys {sorted(env)}"]
    problems = []
    if env["command"] != command:
        problems.append(f"{command}: envelope command {env['command']!r}")
    if env["input"] != ref["input"]:
        problems.append(f"{command}: input {env['input']} != {ref['input']}")
    payload = env["payload"]
    if command == "energy":
        if not _close(payload["energy"], ref["energy"], ENERGY_TOL):
            problems.append(f"energy {payload['energy']!r} != {ref['energy']!r}")
    elif command == "decompose":
        if not _close(payload["total_energy"], ref["energy"], ENERGY_TOL):
            problems.append(f"total_energy {payload['total_energy']!r} != {ref['energy']!r}")
        if not _close(payload["sum_component_energy"], ref["component_energy"], ENERGY_TOL):
            problems.append(f"sum_component_energy {payload['sum_component_energy']!r} "
                            f"!= {ref['component_energy']!r}")
    elif command == "spectrum":
        if payload["charpoly"] != ref["charpoly"]:
            problems.append(f"charpoly {payload['charpoly']} != {ref['charpoly']}")
        got = [complex(re, im) for re, im in payload["eigenvalues"]]
        off = eigen_mismatch(got, ref["eigenvalues"])
        if off > EIGEN_TOL:
            problems.append(f"eigenvalues off by {off:.3e}")
    elif command == "bounds":
        if payload["all_hold"] is not True:
            problems.append("bounds: all_hold is not true")
        rhs = [c["rhs"] for c in payload["certificates"] if c["bound_id"] == "mcclelland"]
        if len(rhs) != 1 or not _close(rhs[0], ref["mcclelland_rhs"], RHS_TOL):
            problems.append(f"mcclelland rhs {rhs} != {ref['mcclelland_rhs']!r}")
    else:
        problems.append(f"unknown command {command!r}")
    return problems
