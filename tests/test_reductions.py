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
    from_hypergraph_cover,
    from_regular_graph_cover,
    generate,
    GenSpec,
    is_feasible,
    map_solution,
    read_map,
    to_bipartite,
    to_split,
    write_map,
)
from clawdel.reductions import cross_edge_shadow
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
        from_regular_graph_cover(generate(GenSpec("regular-graph", 3, 1, {"n": 14})))[1],
    ]
    assert [r.kind for r in maps] == [
        "hvc-osbcd", "hvc-osbcd", "osbcd-split", "split-osbcd", "vc-dense", "vc-dense",
    ]
    assert all(maps[i].warnings for i in (1, 3, 5)) and maps[4].offset == 2
    for rmap in maps:
        assert read_map(write_map(rmap)) == rmap


def test_read_map_rejects_non_ascii_integers():
    assert read_map("map hvc-osbcd\ng A -1 12\noffset 0\n").groups == (("A", -1, 12),)
    for line in ("g A +1 2", "g A 1 \u0661", "g A 1_0 12", "offset +3", "offset \uff13"):
        with pytest.raises(ValueError, match="is not an integer"):
            read_map(f"map hvc-osbcd\n{line}\n")
    with pytest.raises(ParseError, match="^group bound has too many digits$"):
        read_map(f"map hvc-osbcd\ng V 1 {'9' * 5000}\noffset 0\n")
