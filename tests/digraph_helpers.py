"""Whole-graph shorthands the tests share: every labeled graph of an
order, and a graph's exact characteristic polynomial and QR spectrum."""

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
