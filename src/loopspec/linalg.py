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

``char_poly_exact`` (Faddeev-LeVerrier) and ``linear_subdigraph_charpoly``
(signed cycle-cover counts, by a depth-first search over the digraph's
cycles) give the same dual-route treatment to the polynomial itself.

Each route has a batch form that pays numpy's per-call cost once per
stack of matrices instead of once per matrix: ``eigenvalues_many`` makes
one stacked LAPACK call and polishes each matrix's values,
``char_poly_exact_many`` runs Faddeev-LeVerrier on an int64 stack, and
``poly_roots_many`` runs one Aberth iteration over the square-free factors
of all its polynomials.  The one-matrix functions are these kernels on a
stack of one, so both give the same values.  The int64 products are
guarded once per stack: before the first one, a bound on the entries of
the last proves that nothing can overflow, and a stack for which it
cannot runs on numpy object arrays of Python ints throughout.  A batch
kernel reports a failed matrix or polynomial as its error in place of the
result, so one failure leaves the rest of the stack.
"""

from __future__ import annotations

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


def _square_stack(a: np.ndarray, stacked: bool) -> np.ndarray:
    """``a`` as a (k, n, n) stack: one matrix, or a stack of them."""
    if a.ndim != 2 + stacked or a.shape[-1] != a.shape[-2]:
        raise LoopspecError("matrix must be square")
    return a if stacked else a[None]


def _as_int_stack(mats, stacked: bool = True) -> np.ndarray:
    """The square integer matrices ``mats`` as a numpy integer stack, or,
    for float or object input, a stack of the Python ints they equal."""
    a = _square_stack(np.asarray(mats), stacked)
    if a.dtype.kind in "iu":
        return a
    if a.dtype.kind in "fO":
        cells = a.ravel().tolist()
        try:   # bools drop out, so that they fail the comparison
            ints = [int(x) for x in cells if not isinstance(x, (bool, np.bool_))]
        except (ValueError, OverflowError, TypeError):   # nan, inf, non-numbers
            ints = None
        if ints == cells:
            return np.array(ints, dtype=object).reshape(a.shape)
    raise LoopspecError("matrix entries must be integers")


def _raise_or_return(result):
    """The result of a batch kernel's row, raising it if it is an error."""
    if isinstance(result, LoopspecError):
        raise result
    return result


def _as_float_stack(mats, stacked: bool = True) -> np.ndarray:
    a = _square_stack(np.asarray(mats, dtype=float), stacked)
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


_INT64_MAX = 2 ** 63 - 1


def _fits_int64(bound: int, n: int) -> bool:
    """The overflow guard of one Faddeev-LeVerrier step.  If no entry of
    A M_k exceeds ``bound`` in magnitude, its trace (a sum of n entries) and
    M_(k+1) = A M_k + c I (|c| <= the trace) stay below (n + 1) * bound."""
    return (n + 1) * bound <= _INT64_MAX


def char_poly_exact(mat) -> CharPoly:
    """Faddeev-LeVerrier over the integers; see ``char_poly_exact_many``."""
    return _char_polys(_as_int_stack(mat, stacked=False))[0]


def char_poly_exact_many(mats) -> list[CharPoly]:
    """Faddeev-LeVerrier over a (k, n, n) stack of integer matrices.

    The guard decides once per stack, before the first product, whether it
    runs on int64 or on numpy object arrays of Python ints, which cannot
    overflow.  With e the largest absolute entry, no absolute row sum of A
    exceeds n e and |M_(k+1)| <= (n + 1) |A M_k|, so no entry of A M_k
    exceeds e (n e (n + 1))^(k - 1); int64 is chosen only if the bound on
    the last product, k = n, passes the guard.  A 0/1 stack stays on int64
    up to n = 9.  Every trace division by the step index is exact for
    integer matrices and checked so.  Supports n <= 64; the big-integer
    cost grows fast beyond that.
    """
    return _char_polys(_as_int_stack(mats))


def _char_polys(a: np.ndarray) -> list[CharPoly]:
    k, n = a.shape[0], a.shape[-1]
    if n > MAX_EXACT_ORDER:
        raise SizeLimit(f"exact characteristic polynomial capped at n = {MAX_EXACT_ORDER}")
    if a.size == 0:
        return [CharPoly(())] * k
    entry = max(int(a.max()), -int(a.min()))
    last = entry * (n * entry * (n + 1)) ** (n - 1)   # bounds the entries of A M_n
    a = a.astype(np.int64 if _fits_int64(last, n) else object)
    traces = []   # traces[step - 1] = tr(A M_step) = -step c_step
    am = a.copy()   # copied, as the diagonal update is in place
    for step in range(1, n + 1):
        diagonal = am.reshape(k, -1)[:, ::n + 1]
        traces.append(np.add.reduce(diagonal, axis=1))
        if step < n:
            diagonal += (traces[-1] // -step)[:, None]   # M_(step+1) = A M_step + c I
            am = a @ am
    steps = np.arange(n, 0, -1)
    traces = np.stack(traces[::-1], axis=1)   # the constant term's first
    if any((traces % steps).ravel().tolist()):
        raise LoopspecError("non-exact division in Faddeev-LeVerrier")
    return [CharPoly(tuple(row)) for row in (traces // -steps).tolist()]


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
    """Spectrum of a real square matrix; see ``eigenvalues_many``."""
    return _raise_or_return(_spectra(_as_float_stack(mat, stacked=False), with_residuals)[0])


def eigenvalues_many(mats, *, with_residuals: bool = True) -> list[Spectrum | NoConvergence]:
    """Spectra of a (k, n, n) stack of real matrices, by one stacked call
    of LAPACK's QR solver; a matrix whose solve fails holds its
    ``NoConvergence`` in place of a spectrum.

    The LAPACK values of each matrix are polished in two steps: clusters
    closer than CLUSTER_RTOL * max(1, ||A||_F) whose spread fits a split
    multiple eigenvalue collapse to their mean (recovering defective
    multiple eigenvalues to machine precision), and conjugate pairs are
    averaged to exact conjugates.  The residual reported for each value is
    sigma_min(A - lambda*I), the smallest perturbation of A that makes the
    value exact; the contract caps it at 1e-10 * max(1, ||A||_F).

    ``with_residuals=False`` skips the residual computation for bulk
    sweeps; values are identical.
    """
    return _spectra(_as_float_stack(mats), with_residuals)


def _spectra(a: np.ndarray, with_residuals: bool) -> list[Spectrum | NoConvergence]:
    scales = np.maximum(1.0, np.sqrt(np.einsum("kij,kij->k", a, a)))
    try:
        raw = np.linalg.eigvals(a).astype(complex)
    except np.linalg.LinAlgError:
        rows = [None] * len(a)   # solve one at a time to find the failure
        apart = [False] * len(a)
    else:
        rows = raw.tolist()
        # On one matrix the vectorised pair test costs more than it saves.
        apart = (_no_close_pair(raw, scales).tolist() if len(a) > 1 and not with_residuals
                 else [False] * len(a))
    out: list[Spectrum | NoConvergence] = []
    for mat, scale, values, alone in zip(a, scales.tolist(), rows, apart):
        if alone:
            # The polish would leave these values as they are, LAPACK's
            # conjugates being exact, but for adding each to 0, which
            # turns a -0.0 into 0.0.
            out.append(Spectrum(_canonical([z + 0.0 for z in values])))
            continue
        try:
            out.append(_polished_spectrum(mat, scale, values, with_residuals))
        except NoConvergence as exc:
            out.append(exc)
    return out


def _no_close_pair(raw: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """The rows of a (k, n) value stack with no two values within
    CLUSTER_RTOL * scale of each other, the pair test of
    ``_coalesce_clusters``; widened by 1e-9 relative, so that a last-bit
    difference between numpy's and Python's complex modulus cannot keep a
    close pair from the polish.  Each value is within that of itself."""
    near = np.abs(raw[:, :, None] - raw[:, None, :]) <= (
        CLUSTER_RTOL * (1 + 1e-9)) * scales[:, None, None]
    return near.sum(axis=(1, 2)) == raw.shape[1]


def _polished_spectrum(a: np.ndarray, scale: float, raw: list[complex] | None,
                       with_residuals: bool) -> Spectrum:
    if raw is None:
        try:
            raw = [complex(z) for z in np.linalg.eigvals(a)]
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"QR iteration failed: {exc}") from exc
    polished = _coalesce_clusters(raw, scale)
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


def _horner_many(coeffs: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p(z), p'(z)) for each row of polynomials (ascending coefficients,
    zero-padded above the degree, which leaves the values unchanged) at
    each of that row's points."""
    p = np.empty(z.shape, dtype=complex)
    p[:] = coeffs[:, -1:]
    dp = np.zeros(z.shape, dtype=complex)
    for c in coeffs.T[-2::-1, :, None]:
        dp *= z
        dp += p
        p *= z
        p += c
    return p, dp


def _aberth_many(factors: list[list[float]],
                 caps: list[int]) -> list[list[complex] | NoConvergence]:
    """All roots of each monic square-free polynomial of degree >= 2
    (ascending coeffs), by one Aberth-Ehrlich iteration over all of them.

    The polynomials are padded to one (k, D) array of root slots with a
    live-slot mask.  A row leaves the iteration once no root moves by 1e-14
    relative, or once every |p(z_i)| is within Horner's rounding bound
    2 deg eps sum |a_k| |z_i|^k: a root next to another can then alternate
    between two doubles forever.  A row that reaches its iteration cap
    holds a ``NoConvergence``.  Every root then takes two Newton steps.
    """
    k = len(factors)
    degree = np.array([len(c) - 1 for c in factors])
    top = int(degree.max())
    coeffs = np.zeros((k, top + 1))
    for row, c in zip(coeffs, factors):
        row[:len(c)] = c
    slots = np.arange(top) < degree[:, None]
    # Distinct live slots are pairs; the others get an infinite distance,
    # so that they add nothing to the sums of 1 / (z_i - z_j).
    apart = np.where(slots[:, :, None] & slots[:, None, :] & ~np.eye(top, dtype=bool),
                     0, np.inf).astype(complex)
    noise = np.where(slots, 2 * degree[:, None] * sys.float_info.epsilon, np.inf)
    radius = 1.0 + np.where(np.arange(top + 1) < degree[:, None], np.abs(coeffs), 0).max(axis=1)
    angle = 2 * np.pi * (np.arange(top) + 0.25) / degree[:, None] + 0.35
    roots = np.where(slots, radius[:, None] * np.exp(1j * angle), 0)
    cap = np.array(caps)
    failed = np.zeros(k, dtype=bool)
    live = np.arange(k)
    iterations = 0
    with np.errstate(all="ignore"):
        while live.size:
            # The live rows, and below them the rounding scale's
            # polynomials sum |a_k| x^k, evaluated at |z| in the same pass.
            z, m = roots[live], len(live)
            both = np.concatenate((coeffs[live], np.abs(coeffs[live])))
            row_apart, row_noise, row_slots = apart[live], noise[live], slots[live]
            limit = cap[live].min()
            while True:
                p, dp = _horner_many(both, np.concatenate((z, np.abs(z))))
                p, dp, size = p[:m], dp[:m], p[m:].real
                at_noise = (np.abs(p) <= row_noise * size).all(axis=1)
                s = (1 / (z[:, :, None] - z[:, None, :] + row_apart)).sum(axis=2)
                w = p / dp
                step = np.where(row_slots, w / (1 - w * s), 0)
                shift = (np.abs(step) / (1 + np.abs(z))).max(axis=1)
                if not np.isfinite(shift).all():
                    odd = ~np.isfinite(step)
                    # Aberth's denominator 1 - w s vanished: a Newton step.
                    step[odd] = np.where(np.isfinite(w[odd]), w[odd], np.nan)
                    # p'(z) = 0 away from a root: nudge the root off it.
                    stuck = ~np.isfinite(step) & (p != 0)
                    step[~np.isfinite(step)] = 0
                    step[stuck] = -(z[stuck] * 1e-6 + 1e-6)
                    shift = (np.abs(step) / (1 + np.abs(z))).max(axis=1)
                    shift[stuck.any(axis=1)] = np.inf
                z = z - step
                iterations += 1
                done = (shift <= 1e-14) | at_noise
                if done.any() or iterations >= limit:
                    break
            roots[live] = z
            over = ~done & (iterations >= cap[live])
            failed[live[over]] = True
            live = live[~done & ~over]
        for _ in range(2):   # final Newton polish
            p, dp = _horner_many(coeffs, roots)
            polishing = slots & (dp != 0) & (p != 0)
            roots = np.where(polishing, roots - p / dp, roots)
    return [NoConvergence(f"Aberth iteration cap {cap[i]} reached") if failed[i]
            else roots[i, :degree[i]].tolist() for i in range(k)]


def poly_roots(p: CharPoly | Sequence[int]) -> Spectrum:
    """All complex roots of a monic integer polynomial, with exact
    multiplicities; see ``poly_roots_many``."""
    return _raise_or_return(poly_roots_many([p])[0])


def poly_roots_many(polys: Sequence[CharPoly | Sequence[int]]) -> list[Spectrum | LoopspecError]:
    """The roots of each monic integer polynomial, with exact
    multiplicities; a polynomial that fails holds its error in place of a
    spectrum.

    Roots at zero deflate exactly off the low-order coefficients; the rest
    is split into square-free factors in exact integer arithmetic, so
    Aberth iteration only ever sees simple roots.  One iteration runs over
    the factors of all the polynomials, each capped at 100 times the
    degree of its deflated polynomial.  The stored residuals are relative
    polynomial residuals |p(z)| / sum |a_k z^k|.
    """
    out: list = [None] * len(polys)
    split: dict[int, tuple[int, list[tuple[list[int], int]]]] = {}   # zero roots, factors
    factors: list[list[float]] = []   # those of degree >= 2, for one Aberth run
    caps: list[int] = []
    for i, p in enumerate(polys):
        full = list(p.full()) if isinstance(p, CharPoly) else list(p)
        try:
            if len(full) < 2:
                raise LoopspecError("polynomial must have degree >= 1")
            if full[-1] != 1:
                raise LoopspecError("polynomial must be monic")
            zero_mult = 0
            while full[0] == 0 and len(full) > 1:
                full.pop(0)
                zero_mult += 1
            split[i] = (zero_mult, square_free_decomposition(full) if len(full) > 1 else [])
        except LoopspecError as exc:
            out[i] = exc
            continue
        for factor, _ in split[i][1]:
            if len(factor) > 2:
                factors.append([float(c) for c in factor])
                caps.append(100 * (len(full) - 1))
    found = iter(_aberth_many(factors, caps) if factors else ())
    for i, (zero_mult, pieces) in split.items():
        roots: list[complex] = [0j] * zero_mult
        for factor, mult in pieces:
            values = next(found) if len(factor) > 2 else [complex(-float(factor[0]))]
            if isinstance(values, NoConvergence):
                out[i] = out[i] or values
                continue
            values = _conjugate_symmetrize(values, 1e-6 * (1 + max(abs(z) for z in values)))
            roots.extend(z for z in values for _ in range(mult))
        if out[i] is None:
            out[i] = _checked_roots(polys[i], roots)
    return out


def _checked_roots(p: CharPoly | Sequence[int], roots: list[complex]) -> Spectrum | NoConvergence:
    """The roots in canonical order with their relative residuals, or a
    ``NoConvergence`` if one exceeds ROOT_RESIDUAL_TOL."""
    values = _canonical(roots)
    target = [float(c) for c in (p.full() if isinstance(p, CharPoly) else p)]
    residuals = tuple(
        abs(_horner_pair(target, z)[0]) / max(1.0, _rounding_scale(target, abs(z)))
        for z in values)
    if residuals and max(residuals) > ROOT_RESIDUAL_TOL:
        return NoConvergence(
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
