"""Exact characteristic polynomials, eigensolvers, and root finding.

Two independent eigenvalue routes keep floating-point results honest:

* ``eigenvalues`` runs LAPACK's Hessenberg + shifted-QR solver on the
  matrix, then coalesces clusters that a defective (Jordan-block)
  eigenvalue splits apart, judged from the QR values alone, and restores
  exact conjugate pairing.
* ``poly_roots`` works purely from the exact integer characteristic
  polynomial: a square-free decomposition in integers (Yun's algorithm
  with primitive pseudo-remainder gcds) assigns multiplicities, then
  Aberth-Ehrlich simultaneous iteration locates the simple roots of each
  square-free factor.

``char_poly_exact`` (Faddeev-LeVerrier on a numpy object array of
arbitrary-precision Python ints) and ``linear_subdigraph_charpoly``
(signed cycle-cover counts, by a depth-first search over the digraph's
cycles) give the same dual-route treatment to the polynomial itself.
"""

from __future__ import annotations

import cmath
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import LoopspecError, NoConvergence, SizeLimit
from .graphs import Digraph
from .tolerances import EIGEN_RESIDUAL_TOL, ROOT_RESIDUAL_TOL

# Computed eigenvalues within CLUSTER_RTOL * max(1, ||A||_F) of each other
# (single linkage) may be one multiple eigenvalue that QR split.  A split of
# multiplicity k spreads by about eps**(1/k) (at most 1.23 * scale *
# eps**(1/k) on every class with n <= 4 and 40,000 random graphs with
# n = 5..7), while distinct eigenvalues came as close as 3.5e-4 * scale.  So
# a k-value cluster collapses to its mean, which is accurate to machine
# precision, only if it lies within SPLIT_SPREAD * scale * eps**(1/k) of it.
CLUSTER_RTOL = 1e-3
SPLIT_SPREAD = 16.0

MAX_EXACT_ORDER = 64
MAX_ENUMERATION_ORDER = 8


def adjacency(d: Digraph) -> np.ndarray:
    """0/1 adjacency matrix; diagonal entries mark loops."""
    a = np.zeros((d.n, d.n), dtype=np.int64)
    for u, v in d.arcs:
        a[u, v] = 1
    for v in d.loops:
        a[v, v] = 1
    return a


def _as_int_matrix(mat) -> np.ndarray:
    """The square integer matrix ``mat`` as a numpy array of Python ints."""
    a = np.asarray(mat)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise LoopspecError("matrix must be square")
    if a.dtype.kind == "f":
        if not np.all(a == np.round(a)):
            raise LoopspecError("matrix entries must be integers")
        a = a.astype(np.int64)
    elif a.dtype == object:
        rows = a.tolist()
        ints = [[int(x) for x in row] for row in rows]
        if ints != rows:
            raise LoopspecError("matrix entries must be integers")
        return np.array(ints, dtype=object).reshape(a.shape)
    elif a.dtype.kind not in "iu":
        raise LoopspecError("matrix entries must be integers")
    return a.astype(object)


def _as_float_matrix(mat) -> np.ndarray:
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise LoopspecError("matrix must be square")
    if not np.all(np.isfinite(a)):
        raise LoopspecError("matrix entries must be finite")
    return a


# ---------------------------------------------------------------------------
# Exact characteristic polynomials

@dataclass(frozen=True)
class CharPoly:
    """Monic integer polynomial det(lambda*I - A).

    ``coeffs`` holds the n coefficients below the leading term in ascending
    order: coeffs[0] is the constant term and coeffs[n-1] multiplies
    lambda^(n-1).  The leading 1 is implicit.
    """

    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    def full(self) -> tuple[int, ...]:
        """All coefficients ascending, leading 1 included."""
        return self.coeffs + (1,)

    def __call__(self, z: complex) -> complex:
        acc = 0j
        for c in reversed(self.full()):
            acc = acc * z + c
        return acc


def char_poly_exact(mat) -> CharPoly:
    """Faddeev-LeVerrier over arbitrary-precision integers.

    The products A M_k run on a numpy object array of Python ints, so no
    entry can overflow.  Every trace division by the step index is exact
    for integer matrices and checked so.  Supports n <= 64; the big-integer
    cost grows fast beyond that.
    """
    a = _as_int_matrix(mat)
    n = len(a)
    if n > MAX_EXACT_ORDER:
        raise SizeLimit(f"exact characteristic polynomial capped at n = {MAX_EXACT_ORDER}")
    coeffs = [0] * n
    am = a.copy()   # A M_1 with M_1 = I; copied, as the diagonal update is in place
    for k in range(1, n + 1):
        trace_am = am.trace()
        if trace_am % k:
            raise LoopspecError("non-exact division in Faddeev-LeVerrier")
        c = -(trace_am // k)
        coeffs[n - k] = c
        if k < n:
            am.flat[::n + 1] += c   # M_(k+1) = A M_k + c I
            am = a.dot(am)
    return CharPoly(tuple(coeffs))


def digraph_charpoly(d: Digraph) -> CharPoly:
    return char_poly_exact(adjacency(d))


def charpoly_product(polys: Iterable[CharPoly]) -> CharPoly:
    """Product of monic polynomials, exact."""
    acc = [1]
    for p in polys:
        q = list(p.full())
        out = [0] * (len(acc) + len(q) - 1)
        for i, x in enumerate(acc):
            if x:
                for j, y in enumerate(q):
                    out[i + j] += x * y
        acc = out
    assert acc[-1] == 1
    return CharPoly(tuple(acc[:-1]))


def linear_subdigraph_charpoly(d: Digraph) -> CharPoly:
    """Characteristic polynomial from signed cycle-cover counts.

    The coefficient of lambda^(n-i) is the sum over all unions L of
    vertex-disjoint directed cycles covering exactly i vertices (loops count
    as 1-cycles) of (-1) raised to the number of cycles in L.  A depth-first
    search reaches each union once: it adds cycles in increasing order of
    their least vertex s, growing each from s along existing arcs through
    uncovered vertices above s until an arc returns to s.  Exponential in
    the worst case; the independent oracle for ``char_poly_exact``.
    """
    n = d.n
    if n > MAX_ENUMERATION_ORDER:
        raise SizeLimit(f"cycle-cover enumeration capped at n = {MAX_ENUMERATION_ORDER}")
    succ = [[w for w in range(n) if (v, w) in d.arcs] + [v] * (v in d.loops)
            for v in range(n)]
    totals = [0] * (n + 1)   # totals[i] = a_i, the coefficient of lambda^(n-i)

    def add_cycles(first: int, covered: int, size: int, sign: int) -> None:
        # Count the union so far, then start its next cycle at some s >= first.
        totals[size] += sign
        for s in range(first, n):
            if not covered >> s & 1:
                grow(s, s, covered | 1 << s, size + 1, -sign)

    def grow(s: int, v: int, covered: int, size: int, sign: int) -> None:
        # A path s -> ... -> v through ``covered``; close it or extend it.
        for w in succ[v]:
            if w == s:
                add_cycles(s + 1, covered, size, sign)
            elif w > s and not covered >> w & 1:
                grow(s, w, covered | 1 << w, size + 1, sign)

    add_cycles(0, 0, 0, 1)
    return CharPoly(tuple(reversed(totals[1:])))


# ---------------------------------------------------------------------------
# Spectra

@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in canonical order (descending real part, then
    descending imaginary part) with per-value backward-error estimates.

    ``residuals`` may be empty when the caller skipped their computation.
    """

    values: tuple[complex, ...]
    residuals: tuple[float, ...] = ()

    def __len__(self) -> int:
        return len(self.values)

    def rho(self) -> float:
        return max(abs(z) for z in self.values)


def _canonical(values: Iterable[complex]) -> tuple[complex, ...]:
    return tuple(sorted(values, key=lambda z: (-z.real, -z.imag)))


def _coalesce_clusters(values: list[complex], scale: float) -> list[complex]:
    """Single-linkage clusters under CLUSTER_RTOL * scale; each cluster
    whose spread fits a split multiple eigenvalue is replaced by its mean."""
    tol = CLUSTER_RTOL * scale
    k = len(values)
    parent = list(range(k))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(k):
        for j in range(i + 1, k):
            if abs(values[i] - values[j]) <= tol:
                parent[find(i)] = find(j)
    groups: dict[int, list[complex]] = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(values[i])
    out: list[complex] = []
    for members in groups.values():
        k = len(members)
        mean = sum(members) / k
        if k > 1 and max(abs(z - mean) for z in members) > (
                SPLIT_SPREAD * scale * sys.float_info.epsilon ** (1 / k)):
            out.extend(members)   # distinct eigenvalues, only close together
        else:
            out.extend([mean] * k)
    return out


def _conjugate_symmetrize(values: list[complex], tol: float) -> list[complex]:
    """Average matched conjugate pairs to exactly x +/- iy; unpaired
    near-real values drop their imaginary dust."""
    idx_pos = [i for i, z in enumerate(values) if z.imag > 0]
    idx_neg = [i for i, z in enumerate(values) if z.imag < 0]
    out = list(values)
    paired: set[int] = set()
    for i in sorted(idx_pos, key=lambda i: (values[i].real, values[i].imag)):
        best = None
        best_dist = tol
        for j in idx_neg:
            if j in paired:
                continue
            dist = abs(values[i].conjugate() - values[j])
            if dist <= best_dist:
                best, best_dist = j, dist
        if best is not None:
            paired.update((i, best))
            x = 0.5 * (values[i].real + values[best].real)
            y = 0.5 * (values[i].imag - values[best].imag)
            out[i] = complex(x, y)
            out[best] = complex(x, -y)
    for i in itertools.chain(idx_pos, idx_neg):
        if i not in paired and abs(out[i].imag) <= tol:
            out[i] = complex(out[i].real, 0.0)
    return out


def eigenvalues(mat, *, with_residuals: bool = True) -> Spectrum:
    """Spectrum of a real square matrix.

    LAPACK values are polished in two steps: clusters closer than
    CLUSTER_RTOL * max(1, ||A||_F) whose spread fits a split multiple
    eigenvalue collapse to their mean (recovering defective multiple
    eigenvalues to machine precision), and conjugate pairs are averaged to
    exact conjugates.  The residual reported for each value is
    sigma_min(A - lambda*I), the smallest perturbation of A that makes the
    value exact; the contract caps it at 1e-10 * max(1, ||A||_F).

    ``with_residuals=False`` skips the residual computation for bulk
    sweeps; values are identical.
    """
    a = _as_float_matrix(mat)
    scale = max(1.0, float(np.linalg.norm(a)))
    try:
        raw = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"QR iteration failed: {exc}") from exc
    polished = _coalesce_clusters([complex(z) for z in raw], scale)
    polished = _conjugate_symmetrize(polished, CLUSTER_RTOL * scale)
    values = _canonical(polished)
    residuals: tuple[float, ...] = ()
    if with_residuals:
        res = []
        eye = np.eye(len(a))
        for z in values:
            shifted = a - z * eye
            res.append(float(np.linalg.svd(shifted, compute_uv=False)[-1]))
        residuals = tuple(res)
        if residuals and max(residuals) > EIGEN_RESIDUAL_TOL * scale:
            raise NoConvergence(
                f"eigenvalue backward error {max(residuals):.3e} exceeds "
                f"{EIGEN_RESIDUAL_TOL:.0e} * {scale:.3e}")
    return Spectrum(values, residuals)


def digraph_spectrum(d: Digraph, *, with_residuals: bool = True) -> Spectrum:
    return eigenvalues(adjacency(d), with_residuals=with_residuals)


# ---------------------------------------------------------------------------
# Exact square-free decomposition (integer arithmetic throughout)
#
# Polynomials are ascending integer coefficient lists; the zero polynomial
# is [0].  Every gcd taken below divides a monic integer polynomial, so by
# Gauss's lemma its primitive part has leading coefficient +-1: it is monic
# up to sign, and every division is by a monic divisor.

def _int_normalize(p: list[int]) -> list[int]:
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _int_deriv(p: Sequence[int]) -> list[int]:
    return _int_normalize([p[i] * i for i in range(1, len(p))] or [0])


def _primitive(p: list[int]) -> list[int]:
    """p divided by the gcd of its coefficients, leading coefficient > 0."""
    g = math.gcd(*p)
    if p[-1] < 0:
        g = -g
    return [c // g for c in p] if g not in (0, 1) else p


def _pseudo_remainder(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """A remainder of lc(b)^e * a by b, for some e >= 0, in integers."""
    r = list(a)
    lead_b = b[-1]
    while len(r) >= len(b) and r != [0]:
        lead, shift = r[-1], len(r) - len(b)
        r = [lead_b * c for c in r]
        for i, bc in enumerate(b):
            r[shift + i] -= lead * bc
        r.pop()   # the leading term cancels
        r = _int_normalize(r or [0])
    return r


def _monic_gcd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """gcd of two integer polynomials by the primitive pseudo-remainder
    sequence (Brown 1971); monic, since it divides a monic polynomial."""
    a, b = _primitive(list(a)), list(b)
    while b != [0]:
        b = _primitive(b)
        a, b = b, _pseudo_remainder(a, b)
    if a[-1] != 1:
        raise LoopspecError("factor of a monic integer polynomial must be monic")
    return a


def _divide_monic(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Exact quotient a / b for monic b; a nonzero remainder is an error."""
    r = list(a)
    q = [0] * max(1, len(a) - len(b) + 1)
    for shift in range(len(a) - len(b), -1, -1):
        c = r[shift + len(b) - 1]
        q[shift] = c
        if c:
            for i, bc in enumerate(b):
                r[shift + i] -= c * bc
    if any(r[:len(b) - 1]):
        raise LoopspecError("non-exact polynomial division")
    return _int_normalize(q)


def _minus_deriv(y: list[int], w: list[int]) -> list[int]:
    """y - w' (Yun's d_i)."""
    return _int_normalize([yc - wc for yc, wc in
                           itertools.zip_longest(y, _int_deriv(w), fillvalue=0)])


def square_free_decomposition(coeffs: Sequence[int]) -> list[tuple[list[int], int]]:
    """Yun's algorithm on a monic integer polynomial, in integers.

    Returns (factor, multiplicity) pairs with monic integer square-free
    factors whose multiplicity-weighted product reproduces the input.
    Raises ``LoopspecError`` on a non-monic input, or if a division that
    must be exact leaves a remainder.
    """
    p = _int_normalize([int(c) for c in coeffs])
    if len(p) < 2:
        return []
    if p[-1] != 1:
        raise LoopspecError("polynomial must be monic")
    d = _int_deriv(p)
    g = _monic_gcd(p, d)
    if len(g) == 1:
        return [(p, 1)]
    w = _divide_monic(p, g)
    z = _minus_deriv(_divide_monic(d, g), w)
    out: list[tuple[list[int], int]] = []
    k = 1
    while len(w) > 1:
        g = _monic_gcd(w, z)
        if len(g) > 1:
            out.append((g, k))
        w = _divide_monic(w, g)
        z = _minus_deriv(_divide_monic(z, g), w)
        k += 1
    return out


# ---------------------------------------------------------------------------
# Aberth-Ehrlich root finding

def _horner_pair(coeffs: Sequence[float], z: complex) -> tuple[complex, complex]:
    """(p(z), p'(z)) in one pass."""
    p = 0j
    dp = 0j
    for c in reversed(coeffs):
        dp = dp * z + p
        p = p * z + c
    return p, dp


def _rounding_scale(coeffs: Sequence[float], mag: float) -> float:
    """sum |a_k| mag^k: at |z| = mag, Horner's rounding error in p(z) stays
    below 2 deg eps times this."""
    size = 0.0
    for c in reversed(coeffs):
        size = size * mag + abs(c)
    return size


def _aberth_roots(coeffs: Sequence[float], max_iter: int) -> list[complex]:
    """All roots of a monic square-free polynomial (ascending coeffs).

    Stops once no root moves by 1e-14 relative, or once every |p(z_i)| is
    within Horner's rounding bound 2 deg eps sum |a_k| |z_i|^k: a root next
    to another can then alternate between two doubles forever.
    """
    deg = len(coeffs) - 1
    if deg == 1:
        return [complex(-coeffs[0])]
    noise = 2 * deg * sys.float_info.epsilon
    radius = 1.0 + max(abs(c) for c in coeffs[:-1])
    roots = [radius * cmath.exp(2j * cmath.pi * (k + 0.25) / deg + 0.35j)
             for k in range(deg)]
    for _ in range(max_iter):
        shift = 0.0
        at_noise = True
        new_roots = list(roots)
        for i, z in enumerate(roots):
            p, dp = _horner_pair(coeffs, z)
            at_noise = at_noise and abs(p) <= noise * _rounding_scale(coeffs, abs(z))
            if p == 0:
                continue
            if dp == 0:
                new_roots[i] = z * (1 + 1e-6) + 1e-6
                shift = float("inf")
                continue
            w = p / dp
            s = sum(1 / (z - roots[j]) for j in range(deg) if j != i)
            denom = 1 - w * s
            step = w / denom if denom != 0 else w
            new_roots[i] = z - step
            shift = max(shift, abs(step) / (1 + abs(z)))
        roots = new_roots
        if shift <= 1e-14 or at_noise:
            break
    else:
        raise NoConvergence(f"Aberth iteration cap {max_iter} reached")
    for i, z in enumerate(roots):  # final Newton polish
        for _ in range(2):
            p, dp = _horner_pair(coeffs, z)
            if dp == 0 or p == 0:
                break
            z = z - p / dp
        roots[i] = z
    return roots


def poly_roots(p: CharPoly | Sequence[int]) -> Spectrum:
    """All complex roots of a monic integer polynomial, with exact
    multiplicities.

    Roots at zero deflate exactly off the low-order coefficients; the rest
    is split into square-free factors in exact integer arithmetic, so
    Aberth iteration only ever sees simple roots.  The stored residuals are
    relative polynomial residuals |p(z)| / sum |a_k z^k|.
    """
    full = list(p.full()) if isinstance(p, CharPoly) else list(p)
    if len(full) < 2:
        raise LoopspecError("polynomial must have degree >= 1")
    if full[-1] != 1:
        raise LoopspecError("polynomial must be monic")
    zero_mult = 0
    while full[0] == 0 and len(full) > 1:
        full.pop(0)
        zero_mult += 1
    roots: list[complex] = [0j] * zero_mult
    if len(full) > 1:
        cap = 100 * (len(full) - 1)
        for factor, mult in square_free_decomposition(full):
            found = _aberth_roots([float(c) for c in factor], cap)
            found = _conjugate_symmetrize(found, 1e-6 * (1 + max(abs(z) for z in found)))
            roots.extend(z for z in found for _ in range(mult))
    values = _canonical(roots)
    target = [float(c) for c in (p.full() if isinstance(p, CharPoly) else p)]
    residuals = tuple(
        abs(_horner_pair(target, z)[0]) / max(1.0, _rounding_scale(target, abs(z)))
        for z in values)
    if residuals and max(residuals) > ROOT_RESIDUAL_TOL:
        raise NoConvergence(
            f"root residual {max(residuals):.3e} exceeds {ROOT_RESIDUAL_TOL:.0e}")
    return Spectrum(values, residuals)


# ---------------------------------------------------------------------------
# Spectrum comparison

def matching_distance(a: Spectrum | Sequence[complex],
                      b: Spectrum | Sequence[complex]) -> float:
    """Optimal bipartite matching distance (max matched pair separation).

    Greedy nearest-neighbour matching is returned when it is certifiably
    tight; otherwise (only possible for ambiguous clusters) small instances
    fall back to exhaustive assignment.
    """
    xs = list(a.values if isinstance(a, Spectrum) else a)
    ys = list(b.values if isinstance(b, Spectrum) else b)
    if len(xs) != len(ys):
        return float("inf")
    if not xs:
        return 0.0
    remaining = list(ys)
    worst = 0.0
    for x in sorted(xs, key=lambda z: (-z.real, -z.imag)):
        best = min(range(len(remaining)), key=lambda j: abs(x - remaining[j]))
        worst = max(worst, abs(x - remaining[best]))
        remaining.pop(best)
    if worst > 1e-9 and len(xs) <= 8:
        best_perm = min(
            max(abs(x - y) for x, y in zip(xs, perm))
            for perm in itertools.permutations(ys))
        return min(worst, best_perm)
    return worst
