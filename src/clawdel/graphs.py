"""Core graph types: weighted bipartite graphs, split graphs, hypergraphs.

Vertex ids are 1-based. Bipartite graphs put the A side first (ids
1..nA) and the B side directly after it (ids nA+1..nA+nB); split graphs
do the same with the clique side first. Vertex weights are exact
nonnegative rationals; weight 1 is the default and is never stored.

Both graph kinds are one two-sided structure (a split graph leaves its
clique edges implicit) and share one validator and one set of helpers.
Adjacency `adj` is a list indexed by id with slot 0 empty; a negative
index would still read a slot, so callers bounds-check with
`v in g.vertices`.

All types are immutable after construction (`adj` is read-only by
convention) and safe to share across threads. Derived adjacency is
precomputed once, sorted, so every traversal in the package is
deterministic.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

Edge = tuple[int, int]

_ONE = Fraction(1)


def _canonical_weights(weights: Mapping[int, object] | None, n_total: int) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for v, raw in (weights or {}).items():
        if not 1 <= v <= n_total:
            raise ValueError(f"weight for unknown vertex {v}")
        w = Fraction(raw)
        if w < 0:
            raise ValueError(f"negative weight for vertex {v}")
        if w != 1:
            out[v] = w
    return out


def _sorted_adjacency(n_total: int, edges: Iterable[Edge]) -> list[tuple[int, ...]]:
    touched: defaultdict[int, list[int]] = defaultdict(list)
    for a, b in edges:
        touched[a].append(b)
        touched[b].append(a)
    adj: list[tuple[int, ...]] = [()] * (n_total + 1)
    for v, ns in touched.items():
        adj[v] = tuple(sorted(ns))
    return adj


class _TwoSided:
    """Validation, weights and adjacency shared by both two-sided graph kinds.

    A subclass is a frozen dataclass whose fields start with the two
    side sizes and the edge set, named in `_fields`, and go on with `t`,
    `weights` and `adj`; `_labels` names the two sides in error messages.
    """

    _fields: tuple[str, str, str]
    _labels: tuple[str, str]

    def __post_init__(self) -> None:
        size1, size2, edges_field = self._fields
        n1, n2 = getattr(self, size1), getattr(self, size2)
        if self.t < 3:
            raise ValueError(f"claw parameter t must be >= 3, got {self.t}")
        if n1 < 0 or n2 < 0:
            raise ValueError("side sizes must be nonnegative")
        n = n1 + n2
        edges = frozenset((int(u), int(v)) for u, v in getattr(self, edges_field))
        for u, v in edges:
            if not 1 <= u <= n1:
                raise ValueError(f"{self._labels[0]} index {u} out of range 1..{n1}")
            if not n1 < v <= n:
                raise ValueError(f"{self._labels[1]} index {v} out of range {n1 + 1}..{n}")
        object.__setattr__(self, edges_field, edges)
        object.__setattr__(self, "weights", _canonical_weights(self.weights, n))
        object.__setattr__(self, "adj", _sorted_adjacency(n, edges))

    @property
    def n_vertices(self) -> int:
        return len(self.adj) - 1

    @property
    def vertices(self) -> range:
        return range(1, len(self.adj))

    @property
    def sides(self) -> tuple[range, range]:
        """The first and the second side, as id ranges."""
        n1 = getattr(self, self._fields[0])
        return range(1, n1 + 1), range(n1 + 1, len(self.adj))

    def weight(self, v: int) -> Fraction:
        return self.weights.get(v, _ONE)

    def total_weight(self, vs: Iterable[int]) -> Fraction:
        return sum((self.weight(v) for v in vs), start=Fraction(0))


@dataclass(frozen=True)
class BipartiteGraph(_TwoSided):
    """Bipartite graph with A-side ids 1..n_a and B-side ids n_a+1..n_a+n_b.

    `edges` holds (a, b) pairs, `t` is the claw parameter (>= 3), and
    `weights` maps vertex ids to nonnegative rationals (missing = 1).
    """

    n_a: int
    n_b: int
    edges: frozenset[Edge]
    t: int
    weights: Mapping[int, object] | None = None
    adj: list[tuple[int, ...]] = field(init=False, repr=False, compare=False)

    _fields = ("n_a", "n_b", "edges")
    _labels = ("A-side", "B-side")

    @property
    def a_side(self) -> range:
        return range(1, self.n_a + 1)

    @property
    def b_side(self) -> range:
        return range(self.n_a + 1, len(self.adj))


@dataclass(frozen=True)
class SplitGraph(_TwoSided):
    """Split graph: clique side ids 1..n_clique, independent side after it.

    Only cross edges (clique id, independent id) are stored; every pair
    of clique vertices is implicitly adjacent and the independent side
    has no internal edges.
    """

    n_clique: int
    n_indep: int
    cross_edges: frozenset[Edge]
    t: int
    weights: Mapping[int, object] | None = None
    adj: list[tuple[int, ...]] = field(init=False, repr=False, compare=False)

    _fields = ("n_clique", "n_indep", "cross_edges")
    _labels = ("clique", "independent")

    @property
    def clique_side(self) -> range:
        return range(1, self.n_clique + 1)

    @property
    def indep_side(self) -> range:
        return range(self.n_clique + 1, len(self.adj))


@dataclass(frozen=True)
class Hypergraph:
    """t-uniform hypergraph on vertices 1..n.

    Hyperedges keep their list order; vertices inside each edge are
    stored ascending. Duplicate edges are rejected.
    """

    n: int
    t: int
    hyperedges: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.t < 2:
            raise ValueError(f"uniformity must be >= 2, got {self.t}")
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        seen: set[frozenset[int]] = set()
        normalized = []
        for e in self.hyperedges:
            vs = tuple(sorted(int(v) for v in e))
            if len(set(vs)) != self.t or len(vs) != self.t:
                raise ValueError(f"hyperedge {e} does not have exactly {self.t} distinct vertices")
            for v in vs:
                if not 1 <= v <= self.n:
                    raise ValueError(f"hyperedge vertex {v} out of range 1..{self.n}")
            key = frozenset(vs)
            if key in seen:
                raise ValueError(f"duplicate hyperedge {vs}")
            seen.add(key)
            normalized.append(vs)
        object.__setattr__(self, "hyperedges", tuple(normalized))

    @property
    def m(self) -> int:
        return len(self.hyperedges)

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)


def vertex_degrees(hy: Hypergraph) -> dict[int, int]:
    """Number of hyperedges each vertex of `hy` lies in."""
    deg = {v: 0 for v in hy.vertices}
    for e in hy.hyperedges:
        for v in e:
            deg[v] += 1
    return deg


def degree(g: BipartiteGraph, v: int) -> int:
    """Degree of `v`."""
    if v not in g.vertices:
        raise ValueError(f"vertex {v} out of range")
    return len(g.adj[v])


def incident_edges(g: BipartiteGraph, v: int) -> frozenset[Edge]:
    """All edges of `g` incident on `v`."""
    if v not in g.vertices:
        raise ValueError(f"vertex {v} out of range")
    if v <= g.n_a:
        return frozenset((v, b) for b in g.adj[v])
    return frozenset((a, v) for a in g.adj[v])


def incident_edges_within(g: BipartiteGraph, v: int, subset: Iterable[int]) -> frozenset[Edge]:
    """Edges from `v` to the rest of `subset`; `v` must lie in `subset`."""
    vs = set(subset)
    if v not in g.vertices:
        raise ValueError(f"vertex {v} out of range")
    if v not in vs:
        raise ValueError(f"vertex {v} not in the given subset")
    if v <= g.n_a:
        return frozenset((v, b) for b in g.adj[v] if b in vs)
    return frozenset((a, v) for a in g.adj[v] if a in vs)

