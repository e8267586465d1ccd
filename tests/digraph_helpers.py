"""Whole-graph shorthands the tests share: every labeled graph of an
order, a graph's exact characteristic polynomial and QR spectrum, and a
depth-first cycle-cover count, the reference for the stacked kernel."""

from __future__ import annotations

from typing import Iterator

from loopspec.graphs import Digraph
from loopspec.linalg import CharPoly, Spectrum, adjacency, char_poly_exact, eigenvalues
from loopspec.sweep import digraph_from_bits


def iterate_all(n: int) -> Iterator[Digraph]:
    """Every loop-digraph on n labeled vertices, in bit-pattern order."""
    for mask in range(1 << (n * n)):
        yield digraph_from_bits(n, mask)


def digraph_charpoly(d: Digraph) -> CharPoly:
    return char_poly_exact(adjacency(d))


def digraph_spectrum(d: Digraph, *, with_residuals: bool = True) -> Spectrum:
    return eigenvalues(adjacency(d), with_residuals=with_residuals)


def cycle_cover_charpoly_dfs(d: Digraph) -> CharPoly:
    """Characteristic polynomial from signed cycle-cover counts, one union
    of cycles at a time.  A depth-first search reaches each union once: it
    adds cycles in increasing order of their least vertex s, growing each
    from s along existing arcs through uncovered vertices above s until an
    arc returns to s (a loop is the 1-cycle)."""
    n = d.n
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
