from itertools import combinations

import pytest

from clawdel import (
    BipartiteGraph,
    GenSpec,
    Hypergraph,
    SplitGraph,
    degree,
    generate,
    provenance,
    serialize_bipartite,
    serialize_hypergraph,
    vertex_degrees,
)
from clawdel.cli import main
from clawdel.formats import MAX_VERTICES, parse_auto
from clawdel.generate import FAMILIES
from conftest import FAMILY_SIZES, count_validations


def test_same_spec_same_bytes():
    spec = GenSpec("bip-random", 3, 99, {"na": 4, "nb": 6, "m": 12}, ("uniform", 1, 5))
    a = serialize_bipartite(generate(spec), comments=[provenance(spec)])
    b = serialize_bipartite(generate(spec), comments=[provenance(spec)])
    assert a == b
    other = GenSpec("bip-random", 3, 100, {"na": 4, "nb": 6, "m": 12}, ("uniform", 1, 5))
    assert a != serialize_bipartite(generate(other), comments=[provenance(other)])


def test_bip_random_counts():
    for seed in range(1000):
        g = generate(GenSpec("bip-random", 3, seed, {"na": 3, "nb": 5, "m": 7}))
        assert isinstance(g, BipartiteGraph)
        assert (g.n_a, g.n_b, len(g.edges)) == (3, 5, 7)


def test_bip_dense_degree_floor():
    for t in (3, 4):
        for seed in range(500):
            g = generate(GenSpec("bip-dense", t, seed, {"na": 3, "nb": 2 * (t - 1) + 2}))
            assert min(degree(g, a) for a in g.a_side) >= 2 * (t - 1)


def test_hyp_uniform_disjoint_counterparts():
    for seed in range(1000):
        hy = generate(GenSpec("hyp-uniform", 3, seed, {"n": 8, "m": 4}))
        assert isinstance(hy, Hypergraph)
        assert hy.m == 4
        for e in hy.hyperedges:
            assert any(set(e).isdisjoint(f) for f in hy.hyperedges if f != e)


def test_hyp_uniform_refuses_more_hyperedges_than_exist():
    # C(6, 3) = 20 triples: 21 is refused before anything is drawn, and 20 takes them all
    with pytest.raises(ValueError, match=r"^cannot place 21 hyperedges in a 3-uniform "
                                         r"hypergraph on 6 vertices$"):
        generate(GenSpec("hyp-uniform", 3, 1, {"n": 6, "m": 21}))
    assert len(set(generate(GenSpec("hyp-uniform", 3, 1, {"n": 6, "m": 20})).hyperedges)) == 20


def test_hyp_uniform_counts_only_repeated_draws_against_a_try():
    # more hyperedges than RETRY_CAP: a cap on every draw ended each try short of m
    hy = generate(GenSpec("hyp-uniform", 3, 1, {"n": 200, "m": 10_001}))
    assert hy.m == len(set(hy.hyperedges)) == 10_001


def test_hyp_uniform_draws_every_t_set_when_m_is_all_of_them():
    # m = C(24, 3): one try draws every triple, though the last few take more than
    # RETRY_CAP repeated draws
    hy = generate(GenSpec("hyp-uniform", 3, 1, {"n": 24, "m": 2024}))
    assert sorted(hy.hyperedges) == list(combinations(range(1, 25), 3))


def test_regular_graph_family():
    for seed in range(1000):
        g = generate(GenSpec("regular-graph", 3, seed, {"n": 6}))
        assert isinstance(g, Hypergraph) and g.t == 2
        degs = vertex_degrees(g)
        assert set(degs.values()) == {3}
    assert serialize_hypergraph(
        generate(GenSpec("regular-graph", 3, 7, {"n": 6}))
    ) == serialize_hypergraph(generate(GenSpec("regular-graph", 3, 7, {"n": 6})))


def test_split_random_counts():
    for seed in range(1000):
        h = generate(GenSpec("split-random", 3, seed, {"nc": 2, "ni": 4, "m": 6}))
        assert isinstance(h, SplitGraph)
        assert (h.n_clique, h.n_indep, len(h.cross_edges)) == (2, 4, 6)


def test_uniform_weights_within_bounds():
    g = generate(GenSpec("bip-random", 3, 5, {"na": 3, "nb": 5, "m": 10}, ("uniform", 2, 4)))
    for v in g.vertices:
        assert 2 <= g.weight(v) <= 4


@pytest.mark.parametrize("family", list(FAMILIES))
def test_generated_weights_are_ints(family, tmp_path):
    sizes = FAMILY_SIZES[family]
    path = tmp_path / "out.txt"
    argv = ["gen", "--family", family, "--t", "3", "--seed", "4", "--weights", "0:9",
            "--output", str(path)]
    for key in FAMILIES[family][0]:
        argv += [f"--{key}", str(sizes[key])]
    assert main(argv) == 0
    parsed = parse_auto(path.read_text(encoding="utf-8"))
    g = generate(GenSpec(family, 3, 4, sizes, ("uniform", 0, 9)))
    assert parsed == g
    if isinstance(g, Hypergraph):  # hypergraph families draw no weights
        return
    for h in (g, parsed):
        assert {type(w) for w in h.weights.values()} == {int}
        assert 0 in h.weights.values() and 1 not in h.weights.values()
        assert len(h.weights) + sum(h.weight(v) == 1 for v in h.vertices) == h.n_vertices


@pytest.mark.parametrize("mode", [("unit",), ("uniform", 0, 9), ("uniform", 1, 9)])
@pytest.mark.parametrize("family", list(FAMILIES))
def test_a_generated_graph_equals_its_public_construction(family, mode, monkeypatch):
    sizes = [dict(FAMILY_SIZES[family], seed=seed) for seed in range(5)]
    if family in ("bip-random", "split-random"):
        first, second, _ = FAMILIES[family][0]
        sizes.append({first: 7, second: 9, "m": 63})  # every pair
        sizes.append({first: 30, second: 1, "m": 11})  # one second-side id
        sizes.append({first: 5, second: 8, "m": 0})
    runs = count_validations(monkeypatch)
    built = [generate(GenSpec(family, 3, size.pop("seed", 9), size, mode)) for size in sizes]
    # each generator builds from its own checked parts
    assert not runs
    for g in built:
        if isinstance(g, Hypergraph):
            assert g == Hypergraph(g.n, g.t, g.hyperedges)
            continue
        pairs = [(u, v) for u in reversed(g.sides[0]) for v in g.adj[u]]
        public = type(g)(*map(len, g.sides), pairs, g.t, g.weights)
        assert g == public and g.adj == public.adj and g.touched == public.touched
        assert {v: (type(w), w) for v, w in g.weights.items()} == \
            {v: (type(w), w) for v, w in public.weights.items()}


def test_generator_errors():
    with pytest.raises(ValueError):
        generate(GenSpec("regular-graph", 3, 1, {"n": 5}))  # odd n*t
    with pytest.raises(ValueError):
        generate(GenSpec("bip-random", 3, 1, {"na": 2, "nb": 2, "m": 5}))
    with pytest.raises(ValueError):
        generate(GenSpec("bip-dense", 3, 1, {"na": 2, "nb": 3}))  # nb < 2(t-1)
    with pytest.raises(ValueError):
        generate(GenSpec("hyp-uniform", 3, 1, {"n": 5, "m": 3}))  # n < 2t
    with pytest.raises(ValueError, match="uniformity must be >= 2, got 1"):
        generate(GenSpec("hyp-uniform", 1, 1, {"n": 4, "m": 3}))
    with pytest.raises(ValueError):
        generate(GenSpec("bip-random", 3, 1, {"na": 2, "nb": 2}))  # missing m
    with pytest.raises(ValueError, match="size 'nb' must be nonnegative"):
        generate(GenSpec("bip-random", 3, 1, {"na": 2, "nb": -1, "m": 0}))
    with pytest.raises(ValueError, match="no simple 5-regular graph on 5 vertices"):
        generate(GenSpec("regular-graph", 5, 1, {"n": 5}))
    # every two-sided family checks t
    for family, sizes in [("bip-random", {"na": 2, "nb": 2, "m": 3}),
                          ("bip-dense", {"na": 2, "nb": 4}),
                          ("split-random", {"nc": 2, "ni": 2, "m": 3})]:
        for t in (2, 0, -1):
            with pytest.raises(ValueError, match=f"^claw parameter t must be >= 3, got {t}$"):
                generate(GenSpec(family, t, 1, sizes))
    # every size but m counts towards the vertex cap the parser applies
    for family, sizes in [("bip-random", {"na": 3_000_000, "nb": 3_000_000, "m": 1}),
                          ("bip-dense", {"na": 1, "nb": MAX_VERTICES}),
                          ("hyp-uniform", {"n": 6_000_000, "m": 2}),
                          ("regular-graph", {"n": MAX_VERTICES + 1}),
                          ("split-random", {"nc": 2_600_000, "ni": 2_600_000, "m": 1})]:
        n = sum(size for key, size in sizes.items() if key != "m")
        with pytest.raises(ValueError) as err:
            generate(GenSpec(family, 3, 1, sizes))
        assert str(err.value) == (
            f"family {family} declares {n} vertices, more than the limit {MAX_VERTICES}")
    at_cap = generate(GenSpec("bip-random", 3, 1, {"na": MAX_VERTICES - 1, "nb": 1, "m": 1}))
    assert at_cap.n_vertices == MAX_VERTICES and len(at_cap.edges) == 1
    with pytest.raises(ValueError):
        GenSpec("mystery", 3, 1, {})
    for mode in (("uniform", 5, 2), ("uniform", -1, 2), ("uniform", 1), ("x",)):
        with pytest.raises(ValueError, match="bad weight mode"):
            GenSpec("bip-random", 3, 1, {}, mode)
    assert GenSpec("bip-random", 3, 1, {}, ("uniform", 0, 0)).weight_mode == ("uniform", 0, 0)


def test_provenance_mentions_everything():
    spec = GenSpec("split-random", 4, 11, {"nc": 2, "ni": 3, "m": 4}, ("uniform", 1, 9))
    line = provenance(spec)
    for token in ("split-random", "seed=11", "t=4", "nc=2", "ni=3", "m=4", "uniform:1:9"):
        assert token in line
