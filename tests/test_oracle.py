import random
from fractions import Fraction
from itertools import chain, combinations

import pytest

from clawdel import (
    BipartiteGraph,
    GenSpec,
    Hypergraph,
    OracleLimitError,
    SplitGraph,
    enumerate_minimal_deletion_sets,
    exact_max_subgraph,
    exact_min_deletion_set,
    exact_min_vc_graph,
    exact_min_vc_hypergraph,
    generate,
    is_feasible,
    is_minimal,
    primal_dual_solve,
)
from clawdel.graphs import cross_edge_shadow
from conftest import random_bipartite, random_split, spy_on_search


def subsets(vs):
    return chain.from_iterable(combinations(vs, k) for k in range(len(vs) + 1))


def brute_force_min_deletion(g):
    best = None
    for s in subsets(list(g.vertices)):
        if is_feasible(g, s):
            cost = g.total_weight(s)
            if best is None or cost < best:
                best = cost
    return best


def test_exact_min_deletion_examples(g1):
    assert exact_min_deletion_set(g1) == ((1,), 1)
    weighted = BipartiteGraph(1, 4, g1.edges, 3, {1: 10})
    _, cost = exact_min_deletion_set(weighted)
    assert cost == 2
    claw_free = BipartiteGraph(1, 2, frozenset({(1, 2), (1, 3)}), 3)
    assert exact_min_deletion_set(claw_free) == ((), 0)


def test_exact_min_deletion_matches_enumeration():
    for seed in range(80):
        g = random_bipartite(seed, na_max=3, nb_max=6, weighted=True)
        if g.n_vertices > 12:
            continue
        _, cost = exact_min_deletion_set(g)
        assert cost == brute_force_min_deletion(g)


def test_exact_min_deletion_on_split_graphs():
    for seed in range(60):
        h = random_split(seed, nc_max=3, ni_max=5)
        if h.n_vertices > 12:
            continue
        solution, cost = exact_min_deletion_set(h)
        assert is_feasible(h, solution)
        assert cost == brute_force_min_deletion(h)


def disjoint_stars(k):
    edges = set()
    for j in range(k):
        a = j + 1
        base = k + 3 * j
        edges.update((a, base + i) for i in (1, 2, 3))
    return BipartiteGraph(k, 3 * k, frozenset(edges), 3)


def test_a_split_graph_is_searched_only_when_its_shadow_optimum_leaves_a_claw(monkeypatch):
    searches = spy_on_search(monkeypatch)

    def searched():  # the kind of graph each search ran on, and whether it visited a node
        return [(type(args[0].__self__), bool(nodes)) for args, nodes in searches]

    # the shadow's optimum is split feasible and costs the split search's
    # lower bound, so the split search ends at its root
    h = generate(GenSpec("split-random", 3, 11, {"nc": 10, "ni": 20, "m": 60}, ("uniform", 1, 9)))
    solution, cost = exact_min_deletion_set(h)
    assert cost == 28 and is_feasible(h, solution)
    assert searched() == [(BipartiteGraph, True), (SplitGraph, False)]
    # the shadow is claw free (certified at its root), and its empty optimum
    # leaves the split claw (1; 2, 3, 4)
    searches.clear()
    mismatch = SplitGraph(2, 2, frozenset({(1, 3), (1, 4)}), 3)
    assert exact_min_deletion_set(mismatch) == ((1,), 1)
    assert searched() == [(BipartiteGraph, False), (SplitGraph, True)]


def test_the_split_search_stops_at_its_first_set_costing_the_shadow_optimum(monkeypatch):
    searches = spy_on_search(monkeypatch)
    at_root = stopped = 0
    for seed in range(40):
        h = generate(GenSpec("split-random", 3, seed, {"nc": 6, "ni": 12, "m": 30}))
        _, lower = exact_min_deletion_set(cross_edge_shadow(h))
        searches.clear()
        _, cost = exact_min_deletion_set(h)
        args, nodes = searches[-1]
        assert args[0].__self__ is h
        if args[2] == lower:  # the shadow's split-feasible optimum, or the cheaper side
            assert not nodes and cost == lower
            at_root += 1
            continue
        ends = [k for k, (chosen, verts) in enumerate(nodes)
                if verts is None and h.total_weight(chosen) == lower]
        if ends:  # no node follows the first set that costs the bound
            assert ends == [len(nodes) - 1] and cost == lower
            stopped += 1
    assert (at_root, stopped) == (22, 5)


def test_oracle_depth_guard(monkeypatch):
    searches = spy_on_search(monkeypatch)
    # 13 disjoint stars need a solution of size 13, deeper than the search
    # goes, but primal-dual's bound equals its cost and ends the search at its root
    assert exact_min_deletion_set(disjoint_stars(13)) == (tuple(range(1, 14)), 13)
    assert [nodes for _, nodes in searches] == [[]]
    # here the bound is not tight, and the search refuses at its depth
    hard = generate(GenSpec("bip-random", 3, 0, {"na": 13, "nb": 16, "m": 100}))
    report = primal_dual_solve(hard)[0]
    assert (report.dual_lower_bound, report.cost) == (Fraction(72697, 6720), 13)
    with pytest.raises(OracleLimitError, match="search depth bound 12 exceeded$"):
        exact_min_deletion_set(hard)
    assert len(searches) == 2 and searches[1][1]


def wide_graph(seed):
    """8000x16000 with 1,600 edges: 12 disjoint 3-claws, every other A-degree at most 2."""
    rng = random.Random(seed)
    na, nb = 8000, 16000
    centres = rng.sample(range(1, na + 1), 12)
    leaves = rng.sample(range(na + 1, na + nb + 1), 36)
    edges = {(a, leaves[3 * k + i]) for k, a in enumerate(centres) for i in range(3)}
    degree = dict.fromkeys(centres, 3)
    while len(edges) < 1600:
        a, b = rng.randint(1, na), rng.randint(na + 1, na + nb)
        if degree.get(a, 0) < 2 and (a, b) not in edges:
            edges.add((a, b))
            degree[a] = degree.get(a, 0) + 1
    return BipartiteGraph(na, nb, frozenset(edges), 3)


def test_the_bound_certifies_the_wide_shape_without_a_search(monkeypatch):
    searches = spy_on_search(monkeypatch)
    g = wide_graph(97)
    assert sum(len(g.adj[a]) >= 3 for a in g.a_side) == 12
    solution, cost = exact_min_deletion_set(g)
    assert cost == 12 and is_feasible(g, solution)
    assert [nodes for _, nodes in searches] == [[]]


def test_exact_min_vc_hypergraph_examples(hy1):
    cover, size = exact_min_vc_hypergraph(hy1)
    assert size == 2
    assert all(set(cover) & set(e) for e in hy1.hyperedges)
    single = Hypergraph(5, 3, ((2, 3, 4),))
    assert exact_min_vc_hypergraph(single)[1] == 1


def test_the_cover_search_stops_at_its_first_cover_as_small_as_the_packing(monkeypatch):
    # four pairwise disjoint triples: greedy takes all 12 vertices, and every
    # cover meets each triple, so the first 4-vertex cover ends the search
    searches = spy_on_search(monkeypatch)
    hy = Hypergraph(12, 3, ((1, 2, 3), (4, 5, 6), (7, 8, 9), (10, 11, 12)))
    assert exact_min_vc_hypergraph(hy) == ((1, 4, 7, 10), 4)
    [(args, nodes)] = searches
    assert args[1:] == ({*range(1, 13)}, 12, 4)
    assert [sorted(chosen) for chosen, _ in nodes] == [[], [1], [1, 4], [1, 4, 7], [1, 4, 7, 10]]
    assert nodes[-1][1] is None


def test_exact_min_vc_graph_on_k4():
    k4 = Hypergraph(4, 2, tuple(tuple(e) for e in combinations(range(1, 5), 2)))
    cover, size = exact_min_vc_graph(k4)
    assert size == 3
    with pytest.raises(ValueError):
        exact_min_vc_graph(Hypergraph(6, 3, ((1, 2, 3),)))


def test_exact_min_vc_matches_enumeration():
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(3, 7)
        t = rng.choice([2, 3])
        if n < t:
            continue
        pool = list(combinations(range(1, n + 1), t))
        m = rng.randint(1, min(5, len(pool)))
        hy = Hypergraph(n, t, tuple(rng.sample(pool, m)))
        _, size = exact_min_vc_hypergraph(hy)
        brute = min(
            len(s) for s in subsets(list(hy.vertices))
            if all(set(s) & set(e) for e in hy.hyperedges)
        )
        assert size == brute


def test_exact_max_subgraph_examples(g1, g2):
    kept, weight = exact_max_subgraph(g1)
    assert weight == 4 and kept == (2, 3, 4, 5)
    assert exact_max_subgraph(g2)[1] == 4
    claw_free = BipartiteGraph(1, 2, frozenset({(1, 2), (1, 3)}), 3)
    kept, weight = exact_max_subgraph(claw_free)
    assert kept == (1, 2, 3) and weight == 3


def test_enumerate_minimal_sets_star(g1):
    sets = enumerate_minimal_deletion_sets(g1)
    assert sets == [(1,), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)]


def test_enumerate_minimal_sets_small_star():
    star = BipartiteGraph(1, 3, frozenset({(1, 2), (1, 3), (1, 4)}), 3)
    assert enumerate_minimal_deletion_sets(star) == [(1,), (2,), (3,), (4,)]


def test_enumerate_minimal_sets_claw_free():
    g = BipartiteGraph(1, 2, frozenset({(1, 2), (1, 3)}), 3)
    assert enumerate_minimal_deletion_sets(g) == [()]


def test_enumerate_minimal_sets_cross_check():
    for seed in range(30):
        g = random_bipartite(seed, na_max=3, nb_max=5)
        if g.n_vertices > 9:
            continue
        found = set(enumerate_minimal_deletion_sets(g))
        expected = set()
        for s in subsets(list(g.vertices)):
            if is_feasible(g, s) and is_minimal(g, s):
                expected.add(tuple(s))
        assert found == expected


def test_enumeration_guard():
    g = BipartiteGraph(8, 8, frozenset(), 3)
    with pytest.raises(ValueError):
        enumerate_minimal_deletion_sets(g)


def test_oracle_minimum_with_zero_weights():
    g = BipartiteGraph(1, 4, frozenset({(1, 2), (1, 3), (1, 4), (1, 5)}), 3, {1: 0})
    solution, cost = exact_min_deletion_set(g)
    assert cost == 0
    assert is_feasible(g, solution)
    assert Fraction(0) == g.total_weight(solution)
