"""Exact solvers at desk scale.

Branch and bound over violated structures: whenever the current choice
is infeasible, some claw (or uncovered hyperedge) survives, and every
solution must pick at least one of its vertices, so those vertices are
branched on in ascending id order (a claw witness and a hyperedge both
list theirs sorted) with earlier branches forbidden in later ones to
avoid revisiting states. Costs are exact rationals and pruning compares
them exactly, so results are optimal and runs are deterministic.

One rule certifies every exact answer: a search ends where its
incumbent costs a certified lower bound. `graphs.cross_edge_shadow`
tells the two graph kinds apart and refuses any other. A bipartite
search starts from primal-dual's solution, bounded by its dual. A split
one is bounded by the optimum of its cross-edge shadow, a relaxation
(every split-feasible set is shadow feasible), or by the shadow's dual
where that search refuses; it starts from that optimum if it leaves no
split claw, else from the cheaper side. A cover search is bounded by its
greedy packing of disjoint hyperedges. The search refuses
(OracleLimitError) where it would branch past DEFAULT_SEARCH_DEPTH
chosen vertices.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable

from .claws import find_claw, find_claw_split, is_feasible
from .graphs import BipartiteGraph, Hypergraph, SplitGraph, Weight, cross_edge_shadow
from .solvers import primal_dual_solve

DEFAULT_SEARCH_DEPTH = 12
ENUMERATION_VERTEX_LIMIT = 14


class OracleLimitError(RuntimeError):
    """The search would branch past DEFAULT_SEARCH_DEPTH chosen vertices."""


def _branch_and_bound(
    conflict: Callable[[set[int]], tuple[int, ...] | None],
    weight_of: Callable[[int], Weight],
    incumbent: Iterable[int],
    incumbent_cost: Fraction,
    lower: Fraction | int,
) -> tuple[tuple[int, ...], Fraction]:
    best_set = tuple(sorted(incumbent))
    best_cost = incumbent_cost

    def search(chosen: set[int], forbidden: frozenset[int], cost: Fraction) -> None:
        nonlocal best_set, best_cost
        if cost >= best_cost or best_cost == lower:
            return
        verts = conflict(chosen)
        if verts is None:
            best_set, best_cost = tuple(sorted(chosen)), cost
            return
        if len(chosen) >= DEFAULT_SEARCH_DEPTH:
            raise OracleLimitError(f"too large for oracle: search depth bound "
                                   f"{DEFAULT_SEARCH_DEPTH} exceeded")
        for i, v in enumerate(verts):
            if v not in forbidden:
                search(chosen | {v}, forbidden.union(verts[:i]), cost + weight_of(v))

    search(set(), frozenset(), Fraction(0))
    return best_set, best_cost


def _search(g: BipartiteGraph | SplitGraph, finder, incumbent: Iterable[int],
            lower: Fraction) -> tuple[tuple[int, ...], Fraction]:
    def conflict(chosen: set[int]) -> tuple[int, ...] | None:
        witness = finder(g, chosen)
        return None if witness is None else witness.vertices

    return _branch_and_bound(conflict, g.weight, incumbent, g.total_weight(incumbent), lower)


def exact_min_deletion_set(g: BipartiteGraph | SplitGraph) -> tuple[tuple[int, ...], Fraction]:
    """Minimum-weight deletion set leaving no claw, by the module's one rule.

    The search branches on the t + 1 vertices of a claw witness and ends where its
    incumbent costs a certified lower bound: primal-dual's dual bound on a bipartite
    graph, the optimum of the cross-edge shadow on a split graph.
    """
    shadow = cross_edge_shadow(g)
    report = primal_dual_solve(shadow)[0]
    if shadow is g:
        return _search(g, find_claw, report.solution, report.dual_lower_bound)
    side = min(g.sides, key=g.total_weight)  # either side is feasible
    try:
        solution, lower = _search(shadow, find_claw, report.solution, report.dual_lower_bound)
    except OracleLimitError:
        solution, lower = side, report.dual_lower_bound
    if find_claw_split(g, solution) is not None:
        solution = side
    return _search(g, find_claw_split, solution, lower)


def exact_min_vc_hypergraph(hy: Hypergraph) -> tuple[tuple[int, ...], int]:
    """Minimum vertex cover of a uniform hypergraph, by branch and bound."""
    greedy: set[int] = set()
    for e in hy.hyperedges:
        if not greedy.intersection(e):
            greedy.update(e)

    def conflict(chosen: set[int]) -> tuple[int, ...] | None:
        for e in hy.hyperedges:
            if not chosen.intersection(e):
                return e
        return None

    # greedy holds pairwise disjoint hyperedges, and a cover meets each of them
    cover, cost = _branch_and_bound(conflict, lambda v: Fraction(1), greedy, Fraction(len(greedy)),
                                    len(greedy) // hy.t)
    return cover, int(cost)


def exact_min_vc_graph(g: Hypergraph) -> tuple[tuple[int, ...], int]:
    """Minimum vertex cover of a simple graph given as a 2-uniform hypergraph."""
    if g.t != 2:
        raise ValueError(f"expected a 2-uniform hypergraph, got uniformity {g.t}")
    return exact_min_vc_hypergraph(g)


def exact_max_subgraph(g: BipartiteGraph | SplitGraph) -> tuple[tuple[int, ...], Fraction]:
    """Maximum-weight vertex set inducing a claw-free subgraph.

    The complement of a minimum-weight deletion set.
    """
    gone = set(exact_min_deletion_set(g)[0])
    kept = tuple(v for v in g.vertices if v not in gone)
    return kept, g.total_weight(kept)


def enumerate_minimal_deletion_sets(
    g: BipartiteGraph | SplitGraph,
) -> list[tuple[int, ...]]:
    """All inclusion-minimal feasible deletion sets, smallest first.

    Exhaustive over every vertex subset; guarded to graphs with at most
    14 vertices. Feasibility is monotone under adding vertices, so a
    feasible set is minimal exactly when no single removal stays
    feasible.
    """
    if g.n_vertices > ENUMERATION_VERTEX_LIMIT:
        raise ValueError(
            f"too large for enumeration: {g.n_vertices} vertices "
            f"(limit {ENUMERATION_VERTEX_LIMIT})"
        )
    out: list[tuple[int, ...]] = []
    vertices = list(g.vertices)
    for size in range(g.n_vertices + 1):
        for combo in combinations(vertices, size):
            subset = set(combo)
            if is_feasible(g, subset) and all(
                not is_feasible(g, subset - {v}) for v in combo
            ):
                out.append(combo)
    return out
