"""Core graph types: weighted bipartite graphs, split graphs, hypergraphs.

Vertex ids are 1-based. Bipartite graphs put the A side first (ids
1..nA) and the B side directly after it (ids nA+1..nA+nB); split graphs
do the same with the clique side first. Vertex weights are exact
nonnegative rationals; weight 1 is the default and is never stored. A
weight is stored as an `int` when it is integral and as a `Fraction`
only when it is not, so integral instances do their weight arithmetic
in `int`, which is exact too and mixes exactly with `Fraction`.

Both graph kinds are one two-sided structure (a split graph leaves its
clique edges implicit) and share one validator and one set of helpers;
`cross_edge_shadow` is the one rule for what a deletion solver reads.
Adjacency `adj` is a list indexed by id with slot 0 empty; a negative
index would still read a slot, so callers bounds-check with
`v in g.vertices`. Edges are stored once, as the first-side rows of
`adj`, and `edges` (`cross_edges` on a split graph) builds a frozenset
from the rows on each access. `touched` lists the ids that have an
edge, so a pass that only cares about those skips the isolated ones.

Adjacency has one rule, `_finish_adjacency`: every builder hands over
ascending runs of consecutive first-side ids, each with one row of
second-side neighbours that all its ids share (a builder with a row
per id hands one-id runs). A row handed as a tuple is ascending by
contract and is stored as it is, as the parser hands the rows it has
checked ascending; any other row is sorted. The second-side lists are
derived from the runs in id order, so they come out sorted. Every
traversal in the package is therefore deterministic.

A graph is checked once, where it enters the program. Public
construction validates; an id that is not an `int`, such as 2.5 or
"2", is refused rather than converted, in an edge and as a weight key
alike. A two-sided edge is checked and put in its first-side row in
one loop, where a repeated pair is merged, a hyperedge by
`_check_hyperedge`. The parser, the generators and the cover
constructions build each two-sided graph through the internal
`_from_rows` from rows already checked (as the text is read, as the
sampler draws them, or when the source hypergraph was built), and only
t is checked. `to_split`, `cross_edge_shadow` and the hypergraph
builders store checked parts through the `_from_checked` constructors.
All types are immutable after construction (`adj` is read-only by
convention) and safe to share across threads.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

Edge = tuple[int, int]
Weight = int | Fraction  # an int when integral, a Fraction when not


def _canonical_weights(weights: Mapping[int, object] | None, n_total: int) -> dict[int, Weight]:
    out: dict[int, Weight] = {}
    for v, raw in (weights or {}).items():
        if type(v) is not int:
            raise ValueError(f"weight key {v!r} is not an int")
        if not 1 <= v <= n_total:
            raise ValueError(f"weight for unknown vertex {v}")
        w = raw if type(raw) is int else Fraction(raw)
        if w.denominator == 1:
            w = w.numerator
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
    n_total: int, runs: Iterable[tuple[int, int, Iterable[int]]]
) -> tuple[list[tuple[int, ...]], tuple[int, ...]]:
    """Adjacency by id from runs of first-side rows, and the ids with an edge, ascending.

    `runs` holds `(lo, hi, row)` triples: the consecutive first-side ids
    lo..hi-1 all have the second-side neighbours `row`, and at least one
    of them. A tuple row is ascending by contract and is stored as it
    is; any other row, in any order, such as a set row of public
    construction or of the parser's line loop, is sorted into one tuple.
    All ids of a run share their row, and a tuple handed for many one-id
    runs, as `vc-dense` hands each edge's row once per block, is stored
    once. The runs are ascending and disjoint; a builder that has one
    row per id passes one-id runs (hi = lo + 1). This is the one place a
    second-side list is made. Walking the runs in order puts each
    first-side id in its neighbours' lists, so they come out sorted
    without a sort. A longer run extends each neighbour's list from one
    list of its ids, so every list holds the same int objects.
    """
    adj: list[tuple[int, ...]] = [()] * (n_total + 1)
    columns: defaultdict[int, list[int]] = defaultdict(list)
    first: list[int] = []
    for lo, hi, row in runs:
        if type(row) is not tuple:  # a tuple row is ascending by contract
            row = tuple(sorted(row))
        if hi - lo == 1:
            adj[lo] = row
            first.append(lo)
            for v in row:
                columns[v].append(lo)
        else:
            adj[lo:hi] = [row] * (hi - lo)
            us = list(range(lo, hi))
            first += us
            for v in row:
                columns[v] += us
    for v, us in columns.items():
        adj[v] = tuple(us)
    return adj, (*first, *sorted(columns))


def _one_id_runs(rows: Mapping[int, Iterable[int]]) -> Iterator[tuple[int, int, Iterable[int]]]:
    """The rows of a map from first-side id to row, as ascending one-id runs."""
    return ((u, u + 1, rows[u]) for u in sorted(rows))


class _TwoSided:
    """Validation, weights and adjacency shared by both two-sided graph kinds.

    A subclass is a frozen dataclass whose fields are the two side sizes,
    named in `_fields`, the init-only edges, `t`, `weights`, `adj` and
    `touched`, the ids with at least one edge in ascending order;
    `_labels` names the two sides in error messages.
    """

    _fields: tuple[str, str]
    _labels: tuple[str, str]

    def __post_init__(self, edges: Iterable[Edge]) -> None:
        n1, n2 = (getattr(self, size) for size in self._fields)
        check_claw_parameter(self.t)
        if n1 < 0 or n2 < 0:
            raise ValueError("side sizes must be nonnegative")
        n = n1 + n2
        rows: defaultdict[int, set[int]] = defaultdict(set)
        for u, v in edges:
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"an id of edge ({u!r}, {v!r}) is not an int")
            if not 1 <= u <= n1:
                raise ValueError(f"{self._labels[0]} index {u} out of range 1..{n1}")
            if not n1 < v <= n:
                raise ValueError(f"{self._labels[1]} index {v} out of range {n1 + 1}..{n}")
            rows[u].add(v)
        adj, touched = _finish_adjacency(n, _one_id_runs(rows))
        self.__dict__.update(weights=_canonical_weights(self.weights, n), adj=adj, touched=touched)

    @classmethod
    def _from_checked(
        cls, n1: int, n2: int, t: int, weights: dict[int, Weight],
        adj: list[tuple[int, ...]], touched: tuple[int, ...],
    ):
        """A graph from checked parts, stored as they are, without `__post_init__`.

        `t >= 3`, `weights` holds only non-unit nonnegative weights of
        existing ids, each an `int` if integral, and `_finish_adjacency`
        made `adj` and `touched` from rows of distinct in-range ids.
        """
        self = object.__new__(cls)
        size1, size2 = cls._fields
        self.__dict__.update({size1: n1, size2: n2, "t": t, "weights": weights,
                              "adj": adj, "touched": touched})
        return self

    @classmethod
    def _from_rows(cls, n1: int, n2: int, t: int, weights: dict[int, Weight],
                   runs: Iterable[tuple[int, int, Iterable[int]]]):
        """A graph from `runs` of checked rows, as `_finish_adjacency` takes them, and
        `weights` as `_from_checked` does; only t is checked, before the adjacency is built."""
        check_claw_parameter(t)
        return cls._from_checked(n1, n2, t, weights, *_finish_adjacency(n1 + n2, runs))

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

    def weight(self, v: int) -> Weight:
        return self.weights.get(v, 1)

    def total_weight(self, vs: Iterable[int]) -> Fraction:
        """The weight of `vs`, as a `Fraction`: the stored weights, plus one for each other id.

        A `range`, such as `vertices` or a side, is weighed from its
        length and the stored weights in it, in O(|weights|).
        """
        weights = self.weights
        if type(vs) is range:
            inside = [w for v, w in weights.items() if v in vs]
            return Fraction(sum(inside) + len(vs) - len(inside))
        units = total = 0
        for v in vs:
            w = weights.get(v)
            if w is None:
                units += 1
            else:
                total += w
        return Fraction(total + units)


@dataclass(frozen=True)
class BipartiteGraph(_TwoSided):
    """Bipartite graph with A-side ids 1..n_a and B-side ids n_a+1..n_a+n_b.

    `edges` takes (a, b) pairs of ints, `t` is the claw parameter (>= 3), and
    `weights` maps vertex ids to nonnegative rationals (missing = 1).
    """

    n_a: int
    n_b: int
    edges: InitVar[Iterable[Edge]]
    t: int
    weights: Mapping[int, object] | None = None
    adj: list[tuple[int, ...]] = field(init=False, repr=False)
    touched: tuple[int, ...] = field(init=False, repr=False, compare=False)

    _fields = ("n_a", "n_b")
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
    cross_edges: InitVar[Iterable[Edge]]
    t: int
    weights: Mapping[int, object] | None = None
    adj: list[tuple[int, ...]] = field(init=False, repr=False)
    touched: tuple[int, ...] = field(init=False, repr=False, compare=False)

    _fields = ("n_clique", "n_indep")
    _labels = ("clique", "independent")

    @property
    def clique_side(self) -> range:
        return range(1, self.n_clique + 1)

    @property
    def indep_side(self) -> range:
        return range(self.n_clique + 1, len(self.adj))


# The edge pairs, read off the first-side rows. Attached after decoration, as a
# dataclass takes a class attribute named like an init field as its default.
BipartiteGraph.edges = SplitGraph.cross_edges = property(
    lambda g: frozenset((u, v) for u in g.sides[0] for v in g.adj[u]))


def cross_edge_shadow(g: BipartiteGraph | SplitGraph) -> BipartiteGraph:
    """What a deletion solver reads of g, in O(1): a bipartite graph itself, a split graph
    without its implicit clique edges, sharing its parts; TypeError for anything else."""
    if isinstance(g, BipartiteGraph):
        return g
    if not isinstance(g, SplitGraph):
        raise TypeError(f"expected a bipartite or split graph, got {type(g).__name__}")
    return BipartiteGraph._from_checked(g.n_clique, g.n_indep, g.t, g.weights, g.adj, g.touched)


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


def _without_disjoint_partner(hyperedges: Iterable[tuple[int, ...]]) -> Iterator[int]:
    """The index of each hyperedge that meets every hyperedge, in order, lazily."""
    for i, e in enumerate(hyperedges):
        mine = set(e)
        if not any(mine.isdisjoint(f) for f in hyperedges):
            yield i


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

