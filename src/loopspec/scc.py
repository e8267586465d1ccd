"""Strong components, condensation order, and cycle-free arc pruning.

An arc lies on a directed cycle exactly when both endpoints share a strong
component, so the non-cycle arcs are the cross-component ones.  Deleting
them never changes the characteristic polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Digraph


@dataclass(frozen=True)
class SccPartition:
    """Partition of the vertices into strong components.

    ``components`` is ordered reverse-topologically: every component
    appears before any component with an arc into it, so sinks come first.
    Vertices inside a component are listed ascending.
    """

    component_of: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        return len(self.components)


def strong_components(d: Digraph) -> SccPartition:
    """Iterative Tarjan over the arc set (loops never matter here)."""
    n = d.n
    adj = d.out_neighbors()
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comp_of = [-1] * n
    components: list[tuple[int, ...]] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pointer = work[-1]
            if pointer == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while pointer < len(adj[v]):
                w = adj[v][pointer]
                pointer += 1
                if index[w] == -1:
                    work[-1] = (v, pointer)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp_of[w] = len(components)
                    comp.append(w)
                    if w == v:
                        break
                components.append(tuple(sorted(comp)))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])

    return SccPartition(tuple(comp_of), tuple(components))


def induced_subdigraph(d: Digraph, vertices: tuple[int, ...]) -> Digraph:
    """Sub-digraph on ``vertices`` (relabeled by ascending id), loops kept."""
    order = sorted(vertices)
    relabel = {v: i for i, v in enumerate(order)}
    keep = set(order)
    arcs = frozenset((relabel[u], relabel[v]) for u, v in d.arcs
                     if u in keep and v in keep)
    loops = frozenset(relabel[v] for v in d.loops if v in keep)
    return Digraph(len(order), arcs, loops)


def component_digraphs(d: Digraph, part: SccPartition | None = None) -> list[Digraph]:
    """Strong components as standalone digraphs, in condensation order."""
    part = part or strong_components(d)
    return [induced_subdigraph(d, comp) for comp in part.components]


def non_cycle_arcs(d: Digraph, part: SccPartition | None = None) -> frozenset[tuple[int, int]]:
    """Arcs lying on no directed cycle: exactly the cross-component arcs.

    Loops lie on a 1-cycle by definition and are never returned.
    """
    part = part or strong_components(d)
    return frozenset((u, v) for u, v in d.arcs
                     if part.component_of[u] != part.component_of[v])


def prune_non_cycle_arcs(d: Digraph, part: SccPartition | None = None) -> Digraph:
    """Delete every arc that lies on no cycle.

    The characteristic polynomial is unchanged: its coefficients are signed
    counts of unions of vertex-disjoint cycles, and every surviving cycle
    survives the deletion.
    """
    dead = non_cycle_arcs(d, part)
    if not dead:
        return d
    return Digraph(d.n, d.arcs - dead, d.loops)
