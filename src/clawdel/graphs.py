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

A graph is checked once, where it enters the program. Public
construction validates; an id that is not an `int`, such as 2.5 or
"2", is refused rather than converted. A two-sided edge is checked and
bucketed under both endpoints in one loop, a hyperedge by
`_check_hyperedge`. The parser, `to_split` and `cross_edge_shadow`
build through the internal `_from_checked` constructors instead, from
parts checked line by line or when the source graph was built.

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
        adj, touched = _finish_adjacency(n, buckets)
        self.__dict__.update({edges_field: edges, "weights": _canonical_weights(self.weights, n),
                              "adj": adj, "touched": touched})

    @classmethod
    def _from_checked(
        cls, n1: int, n2: int, edges: frozenset[Edge], t: int, weights: dict[int, Fraction],
        adj: list[tuple[int, ...]], touched: tuple[int, ...],
    ):
        """A graph from checked parts, stored as they are, without `__post_init__`.

        `edges` are distinct in-range (first, second) pairs, `t >= 3`,
        `weights` holds only non-unit nonnegative weights of existing
        ids, and `_finish_adjacency` made `adj` and `touched` from them.
        """
        self = object.__new__(cls)
        size1, size2, edges_field = cls._fields
        self.__dict__.update({size1: n1, size2: n2, edges_field: edges, "t": t,
                              "weights": weights, "adj": adj, "touched": touched})
        return self

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
        """The weight of `vs`: the stored weights, plus one for each other id."""
        weights, units, total = self.weights, 0, Fraction(0)
        for v in vs:
            w = weights.get(v)
            if w is None:
                units += 1
            else:
                total += w
        return total + units


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


def _check_hyperedge(e: Iterable[int], n: int, t: int, seen: set) -> tuple[int, ...]:
    """`e` sorted and added to `seen`; ValueError unless t distinct `int`s in 1..n, unseen."""
    vs = tuple(e)
    for v in vs:
        if type(v) is not int:
            raise ValueError(f"hyperedge vertex {v!r} is not an int")
    vs = tuple(sorted(vs))
    if len(vs) != t:
        raise ValueError(f"hyperedge needs exactly {t} vertex ids")
    if len(set(vs)) != t:
        raise ValueError("hyperedge vertices must be distinct")
    for v in vs:
        if not 1 <= v <= n:
            raise ValueError(f"vertex id {v} out of range 1..{n}")
    if vs in seen:
        raise ValueError(f"duplicate hyperedge {vs}")
    seen.add(vs)
    return vs


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
        seen: set[tuple[int, ...]] = set()
        self.__dict__["hyperedges"] = tuple(
            _check_hyperedge(e, self.n, self.t, seen) for e in self.hyperedges)

    @classmethod
    def _from_checked(cls, n: int, t: int, hyperedges: tuple[tuple[int, ...], ...]) -> Hypergraph:
        """A hypergraph from hyperedges `_check_hyperedge` has passed, without `__post_init__`."""
        self = object.__new__(cls)
        self.__dict__.update(n=n, t=t, hyperedges=hyperedges)
        return self

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

