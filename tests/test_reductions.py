import tracemalloc
from itertools import combinations

import pytest

from clawdel import (
    BipartiteGraph,
    Hypergraph,
    ParseError,
    SplitGraph,
    degree,
    exact_min_deletion_set,
    exact_min_vc_graph,
    exact_min_vc_hypergraph,
    formats,
    from_hypergraph_cover,
    from_regular_graph_cover,
    generate,
    GenSpec,
    is_feasible,
    map_solution,
    oracle,
    read_map,
    to_bipartite,
    to_split,
    write_map,
)
from clawdel.graphs import cross_edge_shadow
from conftest import count_validations, random_bipartite


def k4():
    return Hypergraph(4, 2, tuple(tuple(e) for e in combinations(range(1, 5), 2)))


def test_hypergraph_cover_construction(hy1):
    g, rmap = from_hypergraph_cover(hy1)
    assert (g.n_a, g.n_b, len(g.edges)) == (12, 6, 36)
    assert all(degree(g, a) == hy1.t for a in g.a_side)
    assert rmap.group("V") == (13, 18)
    assert rmap.group("e1") == (1, 6)
    assert rmap.warnings == ()
    _, vc = exact_min_vc_hypergraph(hy1)
    _, opt = exact_min_deletion_set(g)
    assert vc == opt == 2


def test_hypergraph_cover_single_edge():
    hy = Hypergraph(3, 3, ((1, 2, 3),))
    g, rmap = from_hypergraph_cover(hy)
    assert g.n_a == 3
    assert all(degree(g, a) == 3 for a in g.a_side)
    assert len(rmap.warnings) == 1  # no disjoint counterpart exists
    _, vc = exact_min_vc_hypergraph(hy)
    _, opt = exact_min_deletion_set(g)
    assert vc == opt == 1


def test_hypergraph_cover_empty():
    g, _ = from_hypergraph_cover(Hypergraph(5, 3, ()))
    assert g.n_a == 0
    assert is_feasible(g, set())


def test_hypergraph_cover_equality_sweep():
    for seed in range(8):
        hy = generate(GenSpec("hyp-uniform", 3, 3100 + seed, {"n": 7, "m": 3}))
        g, rmap = from_hypergraph_cover(hy)
        assert rmap.warnings == ()
        _, vc = exact_min_vc_hypergraph(hy)
        _, opt = exact_min_deletion_set(g)
        assert vc == opt


def _hvc_by_definition(hy):
    """Gadget j is n A-vertices, each adjacent to the t vertices of hyperedge j."""
    n_a = hy.m * hy.n
    edges = {(j * hy.n + i, n_a + v) for j, e in enumerate(hy.hyperedges)
             for i in range(1, hy.n + 1) for v in e}
    return BipartiteGraph(n_a, hy.n, edges, hy.t)


def _vc_dense_by_definition(g):
    """2n copies of the edges on A; each copy joins both ends in every copy of V and all of P."""
    t = 2 * g.m // g.n
    x, pad = t // 2 - 1, t - 2 if t % 2 == 0 else t - 1
    n_a = 2 * g.n * g.m
    edges = set()
    for block in range(2 * g.n):
        for k, (u, v) in enumerate(g.hyperedges, start=1):
            a = block * g.m + k
            edges.update((a, n_a + c * g.n + w) for c in range(x + 1) for w in (u, v))
            edges.update((a, n_a + (x + 1) * g.n + p) for p in range(1, pad + 1))
    return BipartiteGraph(n_a, (x + 1) * g.n + pad, edges, t)


def test_cover_constructions_build_from_checked_parts(monkeypatch):
    hyps = [generate(GenSpec("hyp-uniform", t, seed, {"n": 2 * t + 1 + seed % 3,
                                                      "m": 2 + seed % 4}))
            for seed in range(12) for t in (3, 4)]
    hyps += [Hypergraph(n, t, tuple(combinations(range(1, n + 1), t)))
             for t, n in ((3, 6), (3, 7), (4, 8))]
    hyps += [Hypergraph(3, 3, ((1, 2, 3),)), Hypergraph(4, 4, ((4, 2, 1, 3),)),
             Hypergraph(5, 3, ()), Hypergraph(0, 3, ())]
    regular = [generate(GenSpec("regular-graph", d, seed, {"n": 2 * d + 2 * (seed % 2)}))
               for seed in range(6) for d in (3, 4)] + [k4()]
    runs = count_validations(monkeypatch)
    built = [from_hypergraph_cover(hy)[0] for hy in hyps]
    built += [from_regular_graph_cover(g)[0] for g in regular]
    assert not runs
    twins = [_hvc_by_definition(hy) for hy in hyps] + [_vc_dense_by_definition(g) for g in regular]
    assert len(built) >= 40
    for g, twin in zip(built, twins):
        assert g == twin and g.adj == twin.adj and g.touched == twin.touched
        assert g.weights == {} and "edges" not in g.__dict__
    for hy, g in zip(hyps, built):
        # every A-vertex of gadget j holds the one row object of hyperedge j
        assert len({id(g.adj[a]) for a in g.a_side}) == hy.m
    for source, g in zip(regular, built[len(hyps):]):
        # the A-vertex of edge k holds the one row object of edge k in each of the 2n blocks
        assert len({id(g.adj[a]) for a in g.a_side}) == source.m


def _construction_peak(construct, source):
    tracemalloc.start()
    try:
        g, _ = construct(source)
        return g, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cover_constructions_build_within_a_memory_bound():
    # the io-verify benchmark's hypergraph: 64,800 A-vertices of degree 3
    hy = generate(GenSpec("hyp-uniform", 3, 97, {"n": 180, "m": 360}))
    g, peak = _construction_peak(from_hypergraph_cover, hy)
    assert g.n_a == 64_800 and len(g.touched) == 64_980
    # one row per A-vertex peaked at ~14.2 MB, one shared row per hyperedge at ~7.6 MB
    assert peak < 10_000_000
    # 120,000 one-id runs: ~24 MB when made one at a time, ~41 MB as a list
    g, peak = _construction_peak(from_regular_graph_cover,
                                 generate(GenSpec("regular-graph", 3, 1, {"n": 200})))
    assert g.n_a == 120_000 and peak < 30_000_000


def test_hypergraph_cover_refuses_a_claw_parameter_below_3():
    with pytest.raises(ValueError, match=r"^claw parameter t must be >= 3, got 2$"):
        from_hypergraph_cover(Hypergraph(4, 2, ((1, 2), (3, 4))))


def test_hypergraph_cover_warns_once_per_hyperedge_meeting_every_other():
    hy = Hypergraph(7, 3, ((1, 2, 3), (4, 5, 6), (1, 4, 7), (2, 5, 7)))
    # (1, 2, 3) and (4, 5, 6) are disjoint; (1, 4, 7) and (2, 5, 7) meet every hyperedge
    _, rmap = from_hypergraph_cover(hy)
    assert rmap.warnings == ("hyperedge 3 has no disjoint counterpart",
                             "hyperedge 4 has no disjoint counterpart")


def test_split_round_trip(g1, g2, h2):
    split_of_g2, rmap = to_split(g2)
    assert split_of_g2 == h2
    assert rmap.kind == "osbcd-split"
    back, _ = to_bipartite(split_of_g2)
    assert back == g2
    split_of_g1, _ = to_split(g1)
    assert split_of_g1.n_clique == 1
    back1, _ = to_bipartite(split_of_g1)
    assert back1 == g1


def test_derived_graphs_share_the_parts_checked_at_construction(monkeypatch):
    sources = [random_bipartite(seed, weighted=True) for seed in range(40)]
    twins = [SplitGraph(g.n_a, g.n_b, g.edges, g.t, g.weights) for g in sources]
    runs = count_validations(monkeypatch)
    splits = [to_split(g)[0] for g in sources]
    shadows = [cross_edge_shadow(h) for h in twins]
    assert not runs
    for g, twin, split, shadow in zip(sources, twins, splits, shadows):
        assert split == twin and split.adj == twin.adj and split.touched == twin.touched
        assert shadow == g and shadow.adj == g.adj and shadow.touched == g.touched
        assert cross_edge_shadow(g) is g  # a bipartite graph is its own shadow
        assert "cross_edges" not in split.__dict__ and "edges" not in shadow.__dict__
        for source, derived in ((g, split), (twin, shadow)):
            assert derived.adj is source.adj
            assert derived.touched is source.touched
            assert derived.weights is source.weights


def test_split_feasibility_agrees_when_cross_edges_are_complete(h2, g2):
    # with every cross edge present no claw can use a clique leaf, so the
    # split graph and its shadow agree on every subset
    from itertools import chain

    vs = list(h2.vertices)
    for s in chain.from_iterable(combinations(vs, k) for k in range(len(vs) + 1)):
        assert is_feasible(h2, s) == is_feasible(g2, s)


def test_shadow_flags_clique_leaf_claw():
    h = SplitGraph(2, 2, frozenset({(1, 3), (1, 4)}), 3)
    shadow, rmap = to_bipartite(h)
    assert shadow.n_a == 2 and shadow.n_b == 2
    assert len(rmap.warnings) == 1
    assert "clique-vertex leaf" in rmap.warnings[0]


def test_dense_construction_k4_shape():
    g, rmap = from_regular_graph_cover(k4())
    assert (g.n_a, g.n_b) == (48, 6)
    assert all(degree(g, a) == 4 for a in g.a_side)
    assert rmap.offset == 2
    assert rmap.group("P") == (53, 54)
    assert rmap.group("V") == (49, 52)
    assert rmap.warnings == ()  # minimum vertex cover 3 exceeds the pad size 2


def test_dense_construction_k4_pad_set_is_already_feasible():
    # removing the pad group alone drops every A-degree to t - 1, so the
    # constructed instance has optimum |P|, far below |P| + minVC; the
    # acceptance suite surfaces this as a failed expected equality
    g, rmap = from_regular_graph_cover(k4())
    lo, hi = rmap.group("P")
    pad = list(range(lo, hi + 1))
    assert is_feasible(g, pad)
    _, opt = exact_min_deletion_set(g)
    assert opt == rmap.offset == 2
    _, vc = exact_min_vc_graph(k4())
    assert vc == 3


def test_dense_construction_even_degree_arithmetic():
    # 4-regular complete graph on five vertices: one extra vertex-set copy,
    # pad of two, every A-degree 2(t-1) = 6
    k5 = Hypergraph(5, 2, tuple(tuple(e) for e in combinations(range(1, 6), 2)))
    g, rmap = from_regular_graph_cover(k5)
    n, m = 5, 10
    assert g.n_a == 2 * n * m
    assert g.n_b == 2 * n + 2
    assert rmap.offset == 2
    assert all(degree(g, a) == 6 for a in g.a_side)


def test_cover_constructions_refuse_more_vertices_than_the_cap(hy1, monkeypatch):
    # hy1 builds 12 + 6 vertices and K4 48 + 6: each builds at the cap and is
    # refused one below it, before any graph is built or any cover is searched
    built, searched = [], []
    from_rows, vc_graph = BipartiteGraph._from_rows.__func__, oracle.exact_min_vc_graph

    def building(cls, *args):
        built.append(cls)
        return from_rows(cls, *args)

    def searching(g):
        searched.append(g)
        return vc_graph(g)

    monkeypatch.setattr(BipartiteGraph, "_from_rows", classmethod(building))
    monkeypatch.setattr(oracle, "exact_min_vc_graph", searching)
    for construct, source, kind, n in ((from_hypergraph_cover, hy1, "hvc-osbcd", 18),
                                       (from_regular_graph_cover, k4(), "vc-dense", 54)):
        monkeypatch.setattr(formats, "MAX_VERTICES", n)
        assert construct(source)[0].n_vertices == n and built
        assert len(searched) == (kind == "vc-dense")
        built.clear()
        searched.clear()
        monkeypatch.setattr(formats, "MAX_VERTICES", n - 1)
        with pytest.raises(ValueError) as err:
            construct(source)
        assert str(err.value) == (
            f"reduction {kind} declares {n} vertices, more than the limit {n - 1}")
        assert built == searched == []


def test_dense_construction_rejects_bad_inputs():
    path = Hypergraph(3, 2, ((1, 2), (2, 3)))
    with pytest.raises(ValueError):
        from_regular_graph_cover(path)  # not regular
    with pytest.raises(ValueError):
        from_regular_graph_cover(Hypergraph(6, 3, ((1, 2, 3),)))  # not 2-uniform
    cycle = Hypergraph(4, 2, ((1, 2), (2, 3), (3, 4), (1, 4)))
    with pytest.raises(ValueError):
        from_regular_graph_cover(cycle)  # 2-regular, below the claw threshold


def test_map_solution_identity_kinds(g2):
    _, rmap = to_split(g2)
    assert map_solution(rmap, "forward", [3, 1]) == (1, 3)
    assert map_solution(rmap, "backward", [3, 1]) == (1, 3)


def test_map_solution_hypergraph_shift(hy1):
    _, rmap = from_hypergraph_cover(hy1)
    assert map_solution(rmap, "forward", [1, 4]) == (13, 16)
    assert map_solution(rmap, "backward", [13, 16]) == (1, 4)
    with pytest.raises(ValueError):
        map_solution(rmap, "backward", [1])  # gadget vertex: not canonical


def test_map_solution_dense():
    _, rmap = from_regular_graph_cover(k4())
    forward = map_solution(rmap, "forward", [1, 2, 3])
    assert forward == (49 + 0, 50, 51, 53, 54)
    assert map_solution(rmap, "backward", forward) == (1, 2, 3)
    with pytest.raises(ValueError):
        map_solution(rmap, "backward", [1, 53, 54])  # edge-copy vertex
    with pytest.raises(ValueError):
        map_solution(rmap, "backward", [49, 53])  # pad group incomplete
    with pytest.raises(ValueError):
        map_solution(rmap, "sideways", [1])


def test_sidecar_round_trip(hy1, g2):
    maps = [
        from_hypergraph_cover(hy1)[1],
        from_hypergraph_cover(Hypergraph(3, 3, ((1, 2, 3),)))[1],
        to_split(g2)[1],
        to_bipartite(SplitGraph(2, 2, frozenset({(1, 3), (1, 4)}), 3))[1],
        from_regular_graph_cover(k4())[1],
        *(from_regular_graph_cover(generate(GenSpec("regular-graph", 3, 1, {"n": n})))[1]
          for n in (14, 20)),
    ]
    assert [r.kind for r in maps] == [
        "hvc-osbcd", "hvc-osbcd", "osbcd-split", "split-osbcd", "vc-dense", "vc-dense",
        "vc-dense",
    ]
    assert all(maps[i].warnings for i in (1, 3)) and maps[4].offset == 2
    # the 14-vertex graph's cover, 8, is within the oracle's reach and above
    # the pad size 2; the 20-vertex graph's is not within reach
    assert maps[5].warnings == ()
    assert maps[6].warnings == ("vertex-cover-versus-pad-size check skipped: input too large",)
    for rmap in maps:
        assert read_map(write_map(rmap)) == rmap


def test_read_map_rejects_non_ascii_integers():
    assert read_map("map hvc-osbcd\ng A -1 12\noffset 0\n").groups == (("A", -1, 12),)
    for line in ("g A +1 2", "g A 1 \u0661", "g A 1_0 12", "offset +3", "offset \uff13"):
        with pytest.raises(ValueError, match="is not an integer"):
            read_map(f"map hvc-osbcd\n{line}\n")
    with pytest.raises(ParseError, match="^group bound has too many digits$"):
        read_map(f"map hvc-osbcd\ng V 1 {'9' * 5000}\noffset 0\n")
