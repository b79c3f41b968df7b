"""The 2-polymatroid attached to one-sided claw deletion.

For an edge set F of a bipartite graph, the rank is

    rank(F) = 2 * sum over active A-vertices of min(t - 1, deg_F(v)),

where "active" means degree >= t in the graph under consideration:
lower-degree A-vertices can never center a claw, so their edges carry
no rank. The dual rank has the closed form

    dual_rank(F) = 2 * sum over active v of min(deg_F(v), deg(v) - t + 1)

which agrees with the textbook dual
sum_e rank({e}) - (rank(E) - rank(E \\ F)); both routes are exposed so
they can be checked against each other.

A matching (rank(F) = 2|F| over rank-carrying edges) is exactly an edge
set whose subgraph is claw free, and F is a matching iff its complement
is spanning in the dual. Evaluations on an induced subgraph G[S] use a
context built on S, with active degrees recomputed there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .graphs import BipartiteGraph, Edge, incident_edges_within


@dataclass(frozen=True)
class PolymatroidContext:
    """Rank evaluations over the subgraph of `graph` induced by `vertices`.

    `vertices=None` means the whole graph. Captures the induced edge
    set, induced degrees, and the active A-vertices (induced degree
    >= t).
    """

    graph: BipartiteGraph
    vertices: frozenset[int] | None = None
    edges: frozenset[Edge] = field(init=False, repr=False, compare=False)
    degrees: dict[int, int] = field(init=False, repr=False, compare=False)
    active_a: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        g = self.graph
        if self.vertices is None:
            vs = frozenset(g.vertices)
        else:
            vs = frozenset(self.vertices)
            bad = vs - set(g.vertices)
            if bad:
                raise ValueError(f"vertices {sorted(bad)} not in the graph")
        object.__setattr__(self, "vertices", vs)
        edges = frozenset((a, b) for a in g.a_side if a in vs for b in g.adj[a] if b in vs)
        object.__setattr__(self, "edges", edges)
        degrees = {v: 0 for v in vs}
        for a, b in edges:
            degrees[a] += 1
            degrees[b] += 1
        object.__setattr__(self, "degrees", degrees)
        active = frozenset(v for v in vs if v <= g.n_a and degrees[v] >= g.t)
        object.__setattr__(self, "active_a", active)

    @property
    def t(self) -> int:
        return self.graph.t


def _active_degrees(ctx: PolymatroidContext, edge_set: Iterable[Edge]) -> dict[int, int]:
    deg: dict[int, int] = {}
    for e in edge_set:
        if e not in ctx.edges:
            raise ValueError(f"foreign edge {e}")
        a = e[0]
        if a in ctx.active_a:
            deg[a] = deg.get(a, 0) + 1
    return deg


def rank(ctx: PolymatroidContext, edge_set: Iterable[Edge]) -> int:
    """Polymatroid rank of `edge_set` within the context."""
    cap = ctx.t - 1
    return 2 * sum(min(cap, d) for d in _active_degrees(ctx, edge_set).values())


def dual_rank(ctx: PolymatroidContext, edge_set: Iterable[Edge]) -> int:
    """Dual rank of `edge_set`, by the per-vertex closed form."""
    t = ctx.t
    deg = _active_degrees(ctx, edge_set)
    return 2 * sum(min(d, ctx.degrees[a] - t + 1) for a, d in deg.items())


def dual_rank_from_definition(ctx: PolymatroidContext, edge_set: Iterable[Edge]) -> int:
    """Dual rank straight from its definition, as an independent route.

    Computes sum_e rank({e}) - (rank(E) - rank(E minus F)). Slower than
    `dual_rank` but shares no arithmetic with it beyond `rank` itself.
    """
    fs = frozenset(edge_set)
    bad = fs - ctx.edges
    if bad:
        raise ValueError(f"foreign edge {min(bad)}")
    singletons = 2 * sum(1 for e in fs if e[0] in ctx.active_a)
    return singletons - (rank(ctx, ctx.edges) - rank(ctx, ctx.edges - fs))


def is_matching(ctx: PolymatroidContext, edge_set: Iterable[Edge]) -> bool:
    """True iff `edge_set` is a matching: every rank-carrying edge counts fully."""
    fs = frozenset(edge_set)
    carrying = sum(1 for e in fs if e[0] in ctx.active_a)
    return rank(ctx, fs) == 2 * carrying


def is_spanning_dual(ctx: PolymatroidContext, edge_set: Iterable[Edge]) -> bool:
    """True iff `edge_set` is spanning in the dual polymatroid."""
    return dual_rank(ctx, edge_set) == dual_rank(ctx, ctx.edges)


def dual_rank_incident(g: BipartiteGraph, v: int, within: Iterable[int] | None = None) -> int:
    """Dual rank of the edges from `v` into `within`, evaluated on G[within].

    This is the covering coefficient of vertex `v` for the subset
    `within`; `v` must be a member of `within`.
    """
    vs = frozenset(within) if within is not None else frozenset(g.vertices)
    sub = PolymatroidContext(g, vs)
    return dual_rank(sub, incident_edges_within(g, v, vs))


def incidence_dual_ranks(ctx: PolymatroidContext) -> dict[int, int]:
    """dual_rank of every vertex's incident edge set, in one sweep.

    Equals {v: dual_rank_incident(graph, v, ctx.vertices)} but computed
    in closed form: an active A-vertex contributes 2 * (deg - t + 1),
    an inactive one 0, and a B-vertex twice its number of active
    neighbors inside the context.
    """
    g, t = ctx.graph, ctx.t
    out: dict[int, int] = {}
    for v in sorted(ctx.vertices):
        if v <= g.n_a:
            out[v] = 2 * (ctx.degrees[v] - t + 1) if v in ctx.active_a else 0
        else:
            out[v] = 2 * sum(1 for a in g.adj[v] if a in ctx.active_a)
    return out
