"""Claw detection, feasibility, minimality, reverse deletion.

A t-claw is an induced K_{1,t}; its degree-t vertex is the center. In a
bipartite graph only claws with the center on the A side count, so a
claw exists exactly when some surviving A-vertex keeps t or more
surviving neighbors. In a split graph every claw is centered at a
clique vertex and its t leaves must be pairwise nonadjacent, which
allows at most one clique vertex among them.

`DegreeState` keeps those surviving A-degrees as vertices are deleted
and put back, so the bipartite solvers, `reverse_delete` and
`is_minimal` test feasibility in O(degree) instead of rescanning every
edge; split graphs are rescanned with `find_claw_split`. A solver
that ends on a claw-free `DegreeState` runs `prune` on it directly.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

from .graphs import BipartiteGraph, SplitGraph, cross_edge_shadow


@dataclass(frozen=True)
class ClawWitness:
    """Center plus t leaves certifying that a deletion set is infeasible."""

    center: int
    leaves: tuple[int, ...]

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted((self.center, *self.leaves)))


def find_claw(g: BipartiteGraph, removed: Iterable[int] = ()) -> ClawWitness | None:
    """First one-sided claw surviving the removal of `removed`, if any.

    Deterministic: lowest-indexed center, then lowest-indexed leaves.
    """
    gone = set(removed)
    for a in g.a_side:
        if a in gone:
            continue
        alive = [b for b in g.adj[a] if b not in gone]
        if len(alive) >= g.t:
            return ClawWitness(a, tuple(alive[: g.t]))
    return None


def find_claw_split(h: SplitGraph, removed: Iterable[int] = ()) -> ClawWitness | None:
    """First claw surviving in the split graph, if any.

    A leaf set is either t independent-side neighbors of the center, or
    one other clique vertex plus t - 1 independent-side neighbors the
    clique leaf is not adjacent to. Deterministic: lowest center first,
    then the lexicographically smallest sorted leaf tuple. A clique leaf
    is below every independent id, so the lowest clique leaf that works
    wins over any all-independent leaf set.

    Only clique vertices with an edge can be centres, so the scan walks
    `h.touched`. A neighbour set is built only for a clique leaf that is
    tried, and an alive clique vertex without edges always works as one,
    so no clique leaf is tried past the first of those.
    """
    gone, t, adj = set(removed), h.t, h.adj
    nbrs: dict[int, set[int]] = {}
    for c in h.touched:
        if c > h.n_clique:
            break
        if c in gone:
            continue
        ind = [b for b in adj[c] if b not in gone]
        if len(ind) >= t - 1:
            for c2 in h.clique_side:
                if c2 == c or c2 in gone:
                    continue
                if c2 not in nbrs:
                    nbrs[c2] = set(adj[c2])
                avail = [b for b in ind if b not in nbrs[c2]]
                if len(avail) >= t - 1:
                    return ClawWitness(c, (c2, *avail[: t - 1]))
        if len(ind) >= t:
            return ClawWitness(c, tuple(ind[:t]))
    return None


def is_feasible(g: BipartiteGraph | SplitGraph, solution: Iterable[int]) -> bool:
    """True iff removing `solution` leaves the graph claw free."""
    if cross_edge_shadow(g) is g:
        return find_claw(g, solution) is None
    return find_claw_split(g, solution) is None


def centre_candidates(g: BipartiteGraph) -> list[int]:
    """The A-vertices with t or more neighbours, in id order.

    Only these can centre a claw, whatever is deleted. They are read
    off `_touched_a_side`, so the passes that start from this list cost
    O(|E|) and spend nothing on isolated vertices.
    """
    t, adj = g.t, g.adj
    return [a for a in _touched_a_side(g) if len(adj[a]) >= t]


def _touched_a_side(g: BipartiteGraph) -> tuple[int, ...]:
    """The A-vertices with an edge, ascending: the prefix of `g.touched` up to n_a."""
    return g.touched[:bisect_right(g.touched, g.n_a)]


class DegreeState:
    """Alive vertices of a bipartite graph and the alive degree of each A-vertex.

    `deg[a]` counts the alive B-neighbours of every A-vertex a, alive or
    not, and `centres` counts the alive A-vertices with degree >= t: a
    claw survives exactly while it is nonzero. Removing or restoring a
    vertex, and testing whether a removed one can come back without
    creating a claw, cost O(its degree). `candidates` lists the only
    A-vertices that can ever be centres (`centre_candidates`). Building
    the state fills two lists at C speed and takes one Python step for
    each A-vertex with an edge, none for an isolated one.
    """

    def __init__(self, g: BipartiteGraph, removed: Iterable[int] = ()) -> None:
        self.g = g
        adj = g.adj
        alive = self.alive = [True] * len(adj)
        alive[0] = False
        deg = self.deg = [0] * (g.n_a + 1)
        for a in _touched_a_side(g):  # every other A-vertex has no edge
            deg[a] = len(adj[a])
        end = len(alive)
        for v in removed:
            if 0 < v < end and alive[v]:
                alive[v] = False
                if v > g.n_a:
                    for a in g.adj[v]:
                        deg[a] -= 1
        self.candidates = centre_candidates(g)
        self.centres = sum(1 for a in self.candidates if alive[a] and deg[a] >= g.t)

    def is_centre(self, v: int) -> bool:
        return v <= self.g.n_a and self.alive[v] and self.deg[v] >= self.g.t

    def coefficients(self) -> list[int]:
        """dual_rank of each vertex's alive incident edges on the alive subgraph, by id.

        2 * (deg - t + 1) for a centre, 0 for any other A-vertex, and
        for a B-vertex twice its number of centre neighbours; their sum
        over the A-side is dual_rank of the alive edge set.
        """
        g, alive, deg, t = self.g, self.alive, self.deg, self.g.t
        out = [0] * (g.n_vertices + 1)
        for a in self.candidates:
            if alive[a] and deg[a] >= t:
                out[a] = 2 * (deg[a] - t + 1)
                for b in g.adj[a]:
                    if alive[b]:
                        out[b] += 2
        return out

    def remove(self, v: int) -> list[int]:
        """Delete alive vertex v and return the centres it touched.

        That is [v] for a centre, and for a B-vertex the A-neighbours
        that were centres: each lost one degree, and stopped being a
        centre if it is now down to t - 1.
        """
        g, alive, deg = self.g, self.alive, self.deg
        alive[v] = False
        if v <= g.n_a:
            if deg[v] < g.t:
                return []
            self.centres -= 1
            return [v]
        touched = []
        for a in g.adj[v]:
            deg[a] -= 1
            if alive[a] and deg[a] >= g.t - 1:
                touched.append(a)
                if deg[a] == g.t - 1:
                    self.centres -= 1
        return touched

    def restore(self, v: int) -> None:
        """Undo `remove(v)`; an id outside the graph is ignored."""
        g, alive, deg = self.g, self.alive, self.deg
        if not 0 < v < len(alive):
            return
        alive[v] = True
        if v <= g.n_a:
            self.centres += deg[v] >= g.t
            return
        for a in g.adj[v]:
            deg[a] += 1
            if alive[a] and deg[a] == g.t:
                self.centres += 1

    def can_restore(self, v: int) -> bool:
        """True iff bringing back removed v leaves a claw-free state claw free.

        An A-vertex needs alive degree below t; a B-vertex needs every
        alive A-neighbour below t - 1. An id outside the graph changes
        nothing and can always come back.
        """
        g = self.g
        if not 0 < v < len(self.alive):
            return True
        if v <= g.n_a:
            return self.deg[v] < g.t
        return all(self.deg[a] < g.t - 1 for a in g.adj[v] if self.alive[a])


def _restore_test(g: BipartiteGraph | SplitGraph, removed: set[int], infeasible: str):
    """`(can_restore, restore)` for the feasible deletion set `removed`.

    A bipartite graph answers from a `DegreeState`; a split graph
    rescans `removed` with `find_claw_split` on every test. Raises
    ValueError(infeasible) when `removed` leaves a claw.
    """
    if cross_edge_shadow(g) is g:
        state = DegreeState(g, removed)
        if state.centres:
            raise ValueError(infeasible)
        return state.can_restore, state.restore
    if find_claw_split(g, removed) is not None:
        raise ValueError(infeasible)
    return (lambda v: find_claw_split(g, removed - {v}) is None), removed.discard


def is_minimal(g: BipartiteGraph | SplitGraph, solution: Iterable[int]) -> bool:
    """True iff no proper subset of the feasible set `solution` is feasible.

    That is, reverse deletion keeps all of it. An infeasible `solution`
    raises ValueError.
    """
    sol = sorted(set(solution))
    return prune(sol, *_restore_test(g, set(sol), "solution is not feasible")) == sol


def prune(ordered: Sequence[int], can_restore, restore) -> list[int]:
    """Reverse deletion on a claw-free state in which exactly `ordered` is removed.

    Brings back, latest addition first, every vertex that `can_restore`
    allows; returns the rest in addition order.
    """
    kept = set(ordered)
    for v in reversed(ordered):
        if v in kept and can_restore(v):
            restore(v)
            kept.discard(v)
    return [v for v in ordered if v in kept]


def reverse_delete(g: BipartiteGraph | SplitGraph, ordered: Sequence[int]) -> list[int]:
    """Prune `ordered` (in addition order) down to a minimal feasible set.

    Raises ValueError when the input itself is infeasible.
    """
    msg = "reverse deletion requires a feasible input set"
    return prune(ordered, *_restore_test(g, set(ordered), msg))
