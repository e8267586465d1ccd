"""Loop-digraph data model, degree queries, complements, and family generators.

A ``Digraph`` stores arcs between distinct vertices separately from the set
of looped vertices; the adjacency matrix assembles both (diagonal entries
mark loops).  Vertex ids are dense 0-based integers.  All values are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import BadPartition, IdOutOfRange, LoopspecError, SelfPairInArcList

Arc = tuple[int, int]


@dataclass(frozen=True)
class Digraph:
    """Directed graph on vertices 0..n-1 with at most one loop per vertex."""

    n: int
    arcs: frozenset[Arc]
    loops: frozenset[int]

    def __post_init__(self):
        if self.n < 1:
            raise LoopspecError("vertex count must be positive")
        for u, v in self.arcs:
            if u == v:
                raise SelfPairInArcList(f"({u}, {v}) supplied as an arc")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise IdOutOfRange(f"arc ({u}, {v}) outside [0, {self.n})")
        for v in self.loops:
            if not (0 <= v < self.n):
                raise IdOutOfRange(f"loop at {v} outside [0, {self.n})")

    @property
    def m(self) -> int:
        """Number of arcs between distinct vertices."""
        return len(self.arcs)

    @property
    def sigma(self) -> int:
        """Number of self-loops."""
        return len(self.loops)

    def arc_list(self) -> list[Arc]:
        return sorted(self.arcs)

    def loop_list(self) -> list[int]:
        return sorted(self.loops)

    def out_neighbors(self) -> list[list[int]]:
        """Adjacency lists over arcs only (loops excluded), sorted."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in sorted(self.arcs):
            adj[u].append(v)
        return adj

    def is_symmetric(self) -> bool:
        return all((v, u) in self.arcs for u, v in self.arcs)

    def loopless(self) -> "Digraph":
        return Digraph(self.n, self.arcs, frozenset())


@dataclass(frozen=True)
class DegreeProfile:
    """Out/in degrees; a loop counts once in each."""

    out_deg: tuple[int, ...]
    in_deg: tuple[int, ...]


def new_digraph(n: int, arcs: Iterable[Arc] = (), loops: Iterable[int] = ()) -> Digraph:
    """Build a validated, deduplicated digraph.

    Raises SelfPairInArcList if a (v, v) pair appears among the arcs and
    IdOutOfRange if any id falls outside [0, n).
    """
    return Digraph(n, frozenset((int(u), int(v)) for u, v in arcs),
                   frozenset(int(v) for v in loops))


def degrees(d: Digraph) -> DegreeProfile:
    """Degree vectors of ``d``.

    Out/in degrees are the row/column sums of the adjacency matrix, so a
    loop contributes one to each.
    """
    out = [0] * d.n
    inn = [0] * d.n
    for u, v in d.arcs:
        out[u] += 1
        inn[v] += 1
    for v in d.loops:
        out[v] += 1
        inn[v] += 1
    return DegreeProfile(tuple(out), tuple(inn))


def regularity(d: Digraph) -> Optional[int]:
    """Common in/out degree r, or None when degrees differ."""
    prof = degrees(d)
    r = prof.out_deg[0]
    if all(o == r and i == r for o, i in zip(prof.out_deg, prof.in_deg)):
        return r
    return None


def complement(d: Digraph) -> Digraph:
    """Complement of ``d``.

    With at least one loop the adjacency matrices satisfy A + A_bar = J
    (every entry flips, loops included).  A loopless digraph keeps the
    classical convention A + A_bar = J - I, so no loops are created.
    """
    arcs = frozenset((u, v) for u in range(d.n) for v in range(d.n)
                     if u != v and (u, v) not in d.arcs)
    if delta_sigma(d.sigma):
        return Digraph(d.n, arcs, frozenset())
    loops = frozenset(v for v in range(d.n) if v not in d.loops)
    return Digraph(d.n, arcs, loops)


def delta_sigma(sigma):
    """Indicator switching the complement convention: 1 iff the loop count
    sigma is 0.  Elementwise on an integer array."""
    return 1 * (sigma == 0)


def disjoint_union(parts: Sequence[Digraph]) -> Digraph:
    """Disjoint union with vertex ids offset by running totals."""
    if not parts:
        raise LoopspecError("disjoint_union needs at least one part")
    arcs: set[Arc] = set()
    loops: set[int] = set()
    offset = 0
    for part in parts:
        arcs.update((u + offset, v + offset) for u, v in part.arcs)
        loops.update(v + offset for v in part.loops)
        offset += part.n
    return Digraph(offset, frozenset(arcs), frozenset(loops))


def count_two_cycles(d: Digraph) -> int:
    """Closed 2-walks avoiding loops: ordered pairs (u, v), u != v, with
    both arcs present.  Each digon therefore counts twice; this is the
    convention every bound in the package uses."""
    return sum(1 for (u, v) in d.arcs if (v, u) in d.arcs)


def is_acyclic(d: Digraph) -> bool:
    """True iff the loopless projection has no directed cycle.

    Loops do not spoil acyclicity.  Kahn peeling on the arc set.
    """
    indeg = [0] * d.n
    adj = d.out_neighbors()
    for u, v in d.arcs:
        indeg[v] += 1
    queue = [v for v in range(d.n) if indeg[v] == 0]
    seen = 0
    while queue:
        u = queue.pop()
        seen += 1
        for v in adj[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    return seen == d.n


# ---------------------------------------------------------------------------
# Named families

def empty_digraph(n: int, loops: Iterable[int] = ()) -> Digraph:
    return new_digraph(n, (), loops)


def complete(n: int, loops: Iterable[int] = ()) -> Digraph:
    """Symmetrized complete graph on n vertices with the given loop set."""
    arcs = [(u, v) for u in range(n) for v in range(n) if u != v]
    return new_digraph(n, arcs, loops)


def complete_multipartite(parts: Sequence[Sequence[int]],
                          loops: Iterable[int] = ()) -> Digraph:
    """Symmetrized complete multipartite graph.

    ``parts`` must partition [0, n) where n is the total number of listed
    vertices; arcs join every pair of vertices in different parts.
    """
    flat = [v for part in parts for v in part]
    n = len(flat)
    if any(len(part) == 0 for part in parts):
        raise BadPartition("empty part")
    if sorted(flat) != list(range(n)):
        raise BadPartition(f"parts do not partition [0, {n})")
    part_of = {}
    for idx, part in enumerate(parts):
        for v in part:
            part_of[v] = idx
    arcs = [(u, v) for u in range(n) for v in range(n)
            if u != v and part_of[u] != part_of[v]]
    return new_digraph(n, arcs, loops)


def complete_bipartite(a: int, b: int, loops: Iterable[int] = ()) -> Digraph:
    """Symmetrized K_{a,b}; the first part is [0, a), the second [a, a+b)."""
    if a < 1 or b < 1:
        raise BadPartition("part sizes must be positive")
    return complete_multipartite([list(range(a)), list(range(a, a + b))], loops)


def directed_cycle(n: int, loops: Iterable[int] = ()) -> Digraph:
    """Directed cycle 0 -> 1 -> ... -> n-1 -> 0 (no arcs when n = 1)."""
    arcs = [(i, (i + 1) % n) for i in range(n)] if n > 1 else []
    return new_digraph(n, arcs, loops)


FAMILIES = {
    "empty": empty_digraph,
    "complete": complete,
    "complete_multipartite": complete_multipartite,
    "complete_bipartite": complete_bipartite,
    "directed_cycle": directed_cycle,
}


def generate(family: str, **kwargs) -> Digraph:
    """Dispatch to a named family generator.

    Examples: ``generate("complete", n=2, loops=[0, 1])`` or
    ``generate("complete_bipartite", a=3, b=2, loops=range(3))``.
    """
    try:
        builder = FAMILIES[family]
    except KeyError:
        raise LoopspecError(f"unknown family {family!r}") from None
    return builder(**kwargs)

