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

Below the oracle's reach the optimum is searched instead: a seeded hill
climb over desk-scale `bip-random` and `bip-dense` instances looks for
primal-dual cost/opt ratios near t, every step judged by the oracle.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from clawdel import (
    BipartiteGraph,
    GenSpec,
    Hypergraph,
    exact_min_deletion_set,
    from_hypergraph_cover,
    is_feasible,
    is_minimal,
    generate,
    map_solution,
    parse_auto,
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
                assert exact_min_deletion_set(g)[1] == opt
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


def oracle_ratio(g):
    """Primal-dual cost / opt, checked against the oracle; None on a claw-free graph."""
    report = solve(g, "primal-dual")[0]
    _, opt = exact_min_deletion_set(g)
    assert is_feasible(g, report.solution) and is_minimal(g, report.solution)
    assert report.dual_lower_bound <= opt and report.cost <= g.t * opt
    assert report.theta <= g.t
    return report.cost / opt if opt else None


def _step(g, rng):
    """g with one vertex reweighed (1..40 or a fraction) or one A-B pair toggled."""
    edges, weights = set(g.edges), dict(g.weights)
    if rng.random() < 0.5:
        choices = (rng.randint(1, 12), rng.randint(1, 40),
                   Fraction(rng.randint(1, 40), rng.randint(1, 5)))
        weights[rng.randint(1, g.n_vertices)] = rng.choice(choices)
    else:
        edges ^= {(rng.randint(1, g.n_a), g.n_a + rng.randint(1, g.n_b))}
    return BipartiteGraph(g.n_a, g.n_b, frozenset(edges), g.t, weights)


def climb(t, family, seed, steps):
    """Seeded hill climb from a generated 1:9 instance; returns (worst ratio, its graph).

    A step is kept when the oracle-judged ratio does not fall. Up to
    6 x 11 vertices, so the oracle stays at desk scale.
    """
    rng = random.Random(f"climb:{family}:{t}:{seed}")
    n_a, n_b = rng.randint(3, 6), rng.randint(2 * t, 11)
    sizes = {"na": n_a, "nb": n_b}
    if family == "bip-random":
        sizes["m"] = rng.randint(n_a * t, n_a * n_b)
    g = generate(GenSpec(family, t, rng.randrange(1 << 20), sizes, ("uniform", 1, 9)))
    ratio = oracle_ratio(g) or 0
    for _ in range(steps):
        h = _step(g, rng)
        r = oracle_ratio(h)
        if r is not None and r >= ratio:
            g, ratio = h, r
    return ratio, g


# The worst ratio found: climb(3, "bip-dense", 4, 2000), the worst of 24
# seeded 2,000-step climbs for each t in (3, 4) and each family (the worst
# at t = 4 was 80/47). Primal-dual deletes 1175/648 times the optimum.
WORST_RATIO = Fraction(1175, 648)
WORST_TEXT = b"""\
p bip 6 6 19 3
n 1 3
n 2 3
n 3 3
n 4 5
n 5 20/3
n 6 6
n 7 6
n 8 6
n 9 1/3
n 10 5
n 11 24/5
n 12 29/4
e 1 9
e 1 10
e 1 11
e 2 7
e 2 8
e 2 12
e 3 7
e 3 8
e 3 12
e 4 10
e 4 11
e 4 12
e 5 7
e 5 8
e 5 10
e 5 11
e 6 7
e 6 8
e 6 12
"""


@pytest.mark.parametrize("t", [3, 4])
@pytest.mark.parametrize("family", ["bip-random", "bip-dense"])
def test_ratio_search_stays_within_t(t, family):
    """A short climb is the start of a pinned search's climb, so it finds no worse."""
    ratio, _ = climb(t, family, 4, 150)
    assert 1 <= ratio <= WORST_RATIO < t


def test_the_worst_ratio_found_is_pinned():
    g = parse_auto(WORST_TEXT)
    assert (g.n_a, g.n_b, g.t) == (6, 6, 3)
    assert oracle_ratio(g) == WORST_RATIO
    assert climb(3, "bip-dense", 4, 2000) == (WORST_RATIO, g)
