"""Families whose optimum is known in closed form, so the solvers' guarantees
can be checked at sizes no oracle reaches.

- Complete bipartite K_{nA,nB} with nB >= 2(t - 1) and unit weights: every
  A-vertex is a claw centre, so the optimum deletes all of A or all but
  t - 1 of B, min(nA, nB - t + 1). Where nA + nB <= 14 the oracle confirms it.
- Disjoint unions of complete t-uniform hypergraphs on n_i >= 2t vertices
  each, one alone included, through the `hvc-osbcd` construction: a
  component's minimum vertex cover is n_i - t + 1, so the union's is their
  sum, and that is the deletion optimum of the gadget graph. Every
  hyperedge has a disjoint counterpart in its own component, so the
  construction records no warning.
"""

from fractions import Fraction
from itertools import combinations

import pytest

from clawdel import (
    BipartiteGraph,
    Hypergraph,
    exact_min_deletion_set,
    from_hypergraph_cover,
    is_feasible,
    is_minimal,
    map_solution,
    solve,
)


def complete_bipartite(n_a, n_b, t):
    edges = frozenset((a, n_a + b) for a in range(1, n_a + 1) for b in range(1, n_b + 1))
    return BipartiteGraph(n_a, n_b, edges, t)


@pytest.mark.parametrize("t", [3, 4, 5])
def test_complete_bipartite_graphs(t):
    checked = 0
    for n_a in range(1, 9):
        for n_b in range(2 * (t - 1), 13):
            g = complete_bipartite(n_a, n_b, t)
            opt = min(n_a, n_b - t + 1)
            if n_a + n_b <= 14:
                assert exact_min_deletion_set(g, max_depth=g.n_vertices)[1] == opt
                checked += 1
            pd = solve(g, "primal-dual")[0]
            lr = solve(g, "local-ratio")[0]
            assert pd.cost <= 2 * opt  # dense: every A-vertex has degree >= 2(t - 1)
            assert lr.cost <= (t + 1) * opt
            for report in (pd, lr):
                assert is_feasible(g, report.solution) and is_minimal(g, report.solution)
                assert report.dual_lower_bound <= opt
                assert report.theta <= t
    assert checked > 0


@pytest.mark.parametrize(
    "t, sizes",
    [(3, (6,)), (3, (7,)), (3, (8,)), (4, (8,)), (4, (9,)), (4, (10,)),
     (3, (6, 6)), (3, (6, 7)), (3, (6, 7, 8)), (4, (8, 8)), (4, (8, 9))],
    ids=lambda value: "-".join(map(str, value)) if isinstance(value, tuple) else None,
)
def test_complete_hypergraphs_through_the_cover_construction(t, sizes):
    hyperedges, n = [], 0
    for size in sizes:
        hyperedges += combinations(range(n + 1, n + size + 1), t)
        n += size
    hy = Hypergraph(n, t, tuple(hyperedges))
    g, rmap = from_hypergraph_cover(hy)
    assert g.n_vertices == len(hy.hyperedges) * n + n
    assert rmap.warnings == ()
    opt = sum(size - t + 1 for size in sizes)
    for alg in ("primal-dual", "local-ratio"):
        report = solve(g, alg)[0]
        assert report.cost == opt
        assert is_feasible(g, report.solution)
        assert report.dual_lower_bound <= opt
        if alg == "primal-dual":
            assert report.dual_lower_bound == Fraction(n, t)
        assert 2 <= report.theta <= t
        cover = set(map_solution(rmap, "backward", report.solution))
        assert len(cover) == opt and all(cover.intersection(e) for e in hy.hyperedges)
