"""Exact solvers at desk scale.

Branch and bound over violated structures: whenever the current choice
is infeasible, some claw (or uncovered hyperedge) survives, and every
solution must pick at least one of its vertices, so those vertices are
branched on in ascending id order with earlier branches forbidden in
later ones to avoid revisiting states. Costs are exact rationals and
pruning compares them exactly, so results are optimal and runs are
deterministic.

One rule sets the oracle's reach: a cheaper certificate, then the
search. A bipartite instance is certified by primal-dual's bound when
its solution costs that bound. A split one is first solved on its
cross-edge shadow, a relaxation (every split-feasible set is shadow
feasible), whose optimum is returned when it leaves no split claw.
Otherwise the search refuses (OracleLimitError) where it would branch
past DEFAULT_SEARCH_DEPTH chosen vertices.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable

from .claws import find_claw, find_claw_split, is_feasible
from .graphs import BipartiteGraph, Hypergraph, SplitGraph, Weight
from .reductions import cross_edge_shadow
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
) -> tuple[tuple[int, ...], Fraction]:
    best_set = tuple(sorted(incumbent))
    best_cost = incumbent_cost

    def search(chosen: set[int], forbidden: frozenset[int], cost: Fraction) -> None:
        nonlocal best_set, best_cost
        if cost >= best_cost:
            return
        verts = conflict(chosen)
        if verts is None:
            best_set, best_cost = tuple(sorted(chosen)), cost
            return
        if len(chosen) >= DEFAULT_SEARCH_DEPTH:
            raise OracleLimitError(f"too large for oracle: search depth bound "
                                   f"{DEFAULT_SEARCH_DEPTH} exceeded")
        tried: set[int] = set()
        for v in sorted(verts):
            if v in forbidden:
                continue
            search(chosen | {v}, forbidden | frozenset(tried), cost + weight_of(v))
            tried.add(v)

    search(set(), frozenset(), Fraction(0))
    return best_set, best_cost


def _search(g: BipartiteGraph | SplitGraph, finder,
            incumbent: Iterable[int]) -> tuple[tuple[int, ...], Fraction]:
    def conflict(chosen: set[int]) -> tuple[int, ...] | None:
        witness = finder(g, chosen)
        return None if witness is None else witness.vertices

    return _branch_and_bound(conflict, g.weight, incumbent, g.total_weight(incumbent))


def _bipartite_min_deletion_set(g: BipartiteGraph) -> tuple[tuple[int, ...], Fraction]:
    report = primal_dual_solve(g)[0]
    if report.dual_lower_bound == report.cost:
        return report.solution, report.cost
    return _search(g, find_claw, report.solution)


def exact_min_deletion_set(g: BipartiteGraph | SplitGraph) -> tuple[tuple[int, ...], Fraction]:
    """Minimum-weight deletion set leaving no claw, within the module's reach rule.

    The search branches on the t + 1 vertices of a claw witness. It starts from
    primal-dual's solution on a bipartite graph and from a split graph's cheaper side.
    """
    if isinstance(g, BipartiteGraph):
        return _bipartite_min_deletion_set(g)
    if not isinstance(g, SplitGraph):
        raise TypeError(f"expected a bipartite or split graph, got {type(g).__name__}")
    try:
        solution, cost = _bipartite_min_deletion_set(cross_edge_shadow(g))
        if find_claw_split(g, solution) is None:
            return solution, cost
    except OracleLimitError:
        pass
    return _search(g, find_claw_split, min(g.sides, key=g.total_weight))  # either side is feasible


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

    cover, cost = _branch_and_bound(conflict, lambda v: Fraction(1), greedy, Fraction(len(greedy)))
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
