"""Exception hierarchy shared across the package."""

from __future__ import annotations


class LoopspecError(Exception):
    """Base class for all errors raised by this package."""


class IdOutOfRange(LoopspecError):
    """A vertex id falls outside [0, n)."""


class SelfPairInArcList(LoopspecError):
    """A (v, v) pair was supplied as an arc; loops live in the loop set."""


class BadPartition(LoopspecError):
    """Multipartite parts do not partition the vertex set."""


class FormatError(LoopspecError):
    """A graph file could not be parsed."""


class SizeLimit(LoopspecError):
    """The requested order exceeds what the operation supports."""


class NotRegular(LoopspecError):
    """The operation requires an in/out regular digraph."""


class BadTolerance(LoopspecError, ValueError):
    """LOOPSPEC_TOL is not a finite positive number."""


class OrderTooSmall(LoopspecError):
    """The bound is only defined for n >= 2."""


class NoConvergence(LoopspecError):
    """An iterative solver exceeded its iteration cap or its residual
    contract.  This signals a solver bug, not bad input."""


class CounterexampleError(LoopspecError):
    """A published theorem failed on a concrete graph.

    Carries the offending graph so callers can serialize a witness.
    """

    def __init__(self, message: str, graph=None):
        super().__init__(message)
        self.graph = graph
