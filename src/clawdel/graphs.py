"""Core graph types: weighted bipartite graphs, split graphs, hypergraphs.

Vertex ids are 1-based. Bipartite graphs put the A side first (ids
1..nA) and the B side directly after it (ids nA+1..nA+nB); split graphs
do the same with the clique side first. Vertex weights are exact
nonnegative rationals; weight 1 is the default and is never stored.

Both graph kinds are one two-sided structure (a split graph leaves its
clique edges implicit) and share one validator and one set of helpers.
Adjacency `adj` is a list indexed by id with slot 0 empty; a negative
index would still read a slot, so callers bounds-check with
`v in g.vertices`. `touched` lists the ids that have an edge, so a pass
that only cares about those skips the isolated ones.

Public construction (`BipartiteGraph(...)`, `SplitGraph(...)`) validates
its arguments, checking that each edge is a pair of in-range `int` ids
and bucketing it under both endpoints in one loop; an id of another
type, such as 2.5 or "2", is refused rather than converted. The
parser builds graphs through the internal `_from_checked` constructor
instead, from parts it has already checked, so a parsed graph is not
validated twice. Both finish `adj` and `touched` through
`_finish_adjacency`.

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


def check_claw_parameter(t: int) -> None:
    """Raise ValueError unless `t` is a valid claw parameter (>= 3)."""
    if t < 3:
        raise ValueError(f"claw parameter t must be >= 3, got {t}")


def _finish_adjacency(
    n_total: int, buckets: Mapping[int, list[int]]
) -> tuple[list[tuple[int, ...]], tuple[int, ...]]:
    """Adjacency by id from neighbour buckets, and the ids with an edge, ascending.

    `buckets` maps each id with at least one edge to its neighbours in
    any order; the lists are sorted in place.
    """
    adj: list[tuple[int, ...]] = [()] * (n_total + 1)
    for v, ns in buckets.items():
        ns.sort()
        adj[v] = tuple(ns)
    return adj, tuple(sorted(buckets))


class _TwoSided:
    """Validation, weights and adjacency shared by both two-sided graph kinds.

    A subclass is a frozen dataclass whose fields start with the two
    side sizes and the edge set, named in `_fields`, and go on with `t`,
    `weights`, `adj` and `touched`, the ids with at least one edge in
    ascending order; `_labels` names the two sides in error messages.
    """

    _fields: tuple[str, str, str]
    _labels: tuple[str, str]

    def __post_init__(self) -> None:
        size1, size2, edges_field = self._fields
        n1, n2 = getattr(self, size1), getattr(self, size2)
        check_claw_parameter(self.t)
        if n1 < 0 or n2 < 0:
            raise ValueError("side sizes must be nonnegative")
        n = n1 + n2
        edges = frozenset(getattr(self, edges_field))
        buckets: defaultdict[int, list[int]] = defaultdict(list)
        for u, v in edges:
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"an id of edge ({u!r}, {v!r}) is not an int")
            if not 1 <= u <= n1:
                raise ValueError(f"{self._labels[0]} index {u} out of range 1..{n1}")
            if not n1 < v <= n:
                raise ValueError(f"{self._labels[1]} index {v} out of range {n1 + 1}..{n}")
            buckets[u].append(v)
            buckets[v].append(u)
        self._set_parts(edges, _canonical_weights(self.weights, n), buckets)

    @classmethod
    def _from_checked(
        cls, n1: int, n2: int, edges: frozenset[Edge], t: int,
        weights: dict[int, Fraction], buckets: Mapping[int, list[int]],
    ):
        """A graph from parts the caller has already checked, without `__post_init__`.

        The parser uses it: `edges` are distinct in-range (first, second)
        pairs, `t >= 3`, `weights` holds only non-unit nonnegative
        weights of existing ids, and `buckets` holds both endpoints of
        every edge, as `__post_init__` would have built them.
        """
        self = object.__new__(cls)
        size1, size2, _ = cls._fields
        object.__setattr__(self, size1, n1)
        object.__setattr__(self, size2, n2)
        object.__setattr__(self, "t", t)
        self._set_parts(edges, weights, buckets)
        return self

    def _set_parts(
        self, edges: frozenset[Edge], weights: dict[int, Fraction],
        buckets: Mapping[int, list[int]],
    ) -> None:
        """Store the edge set, the weights and the adjacency finished from `buckets`."""
        size1, size2, edges_field = self._fields
        adj, touched = _finish_adjacency(getattr(self, size1) + getattr(self, size2), buckets)
        object.__setattr__(self, edges_field, edges)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "adj", adj)
        object.__setattr__(self, "touched", touched)

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

    `edges` holds (a, b) pairs of ints, `t` is the claw parameter (>= 3), and
    `weights` maps vertex ids to nonnegative rationals (missing = 1).
    """

    n_a: int
    n_b: int
    edges: frozenset[Edge]
    t: int
    weights: Mapping[int, object] | None = None
    adj: list[tuple[int, ...]] = field(init=False, repr=False, compare=False)
    touched: tuple[int, ...] = field(init=False, repr=False, compare=False)

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
    touched: tuple[int, ...] = field(init=False, repr=False, compare=False)

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

