import random
from fractions import Fraction

import pytest

from clawdel import (
    BipartiteGraph,
    Hypergraph,
    SplitGraph,
    degree,
    graphs,
    incident_edges,
    incident_edges_within,
    vertex_degrees,
)
from conftest import random_bipartite


def test_bipartite_rejects_bad_parameters():
    with pytest.raises(ValueError):
        BipartiteGraph(1, 1, frozenset(), 2)
    with pytest.raises(ValueError, match="^B-side index 3 out of range 2..2$"):
        BipartiteGraph(1, 1, frozenset({(1, 3)}), 3)
    with pytest.raises(ValueError, match="^A-side index 2 out of range 1..1$"):
        BipartiteGraph(1, 1, frozenset({(2, 2)}), 3)
    with pytest.raises(ValueError):
        BipartiteGraph(1, 1, frozenset(), 3, {1: -1})


@pytest.mark.parametrize("edge", [(1, 2.5), (1.0, 2), ("1", 2), (True, 2), (1, Fraction(2))])
def test_public_construction_rejects_ids_that_are_not_ints(edge):
    # int() would have truncated 2.5 to 2 and taken "1" and True for 1
    bad = next(v for v in edge if type(v) is not int)
    for cls in (BipartiteGraph, SplitGraph):
        with pytest.raises(ValueError, match="is not an int$"):
            cls(1, 1, frozenset({edge}), 3)
        # a weight key follows the same rule: 1.0 or True would not serialize as an id
        with pytest.raises(ValueError, match="is not an int$"):
            cls(1, 1, frozenset({(1, 2)}), 3, {bad: 2})
    with pytest.raises(ValueError, match="is not an int$"):
        Hypergraph(3, 3, (edge + (3,),))


def test_unit_weights_are_canonicalized():
    g = BipartiteGraph(1, 1, frozenset({(1, 2)}), 3, {1: 1, 2: Fraction(3, 2)})
    assert g.weights == {2: Fraction(3, 2)}
    assert g.weight(1) == 1
    assert g.total_weight([1, 2]) == Fraction(5, 2)
    # unit ids are counted, stored weights added: the same as a plain Fraction sum
    for seed in range(30):
        h = random_bipartite(seed, weighted=True)
        rng = random.Random(seed)
        for vs in ([], list(h.vertices), rng.choices(list(h.vertices), k=6)):
            total = h.total_weight(iter(vs))
            assert type(total) is Fraction
            assert total == sum((h.weights.get(v, Fraction(1)) for v in vs), start=Fraction(0))


def test_a_range_weighs_like_its_ids():
    for seed in range(30):
        h = random_bipartite(seed, weighted=True)
        n = h.n_vertices
        ranges = [h.vertices, *h.sides, range(1, 1), range(2, n, 3), range(n, 0, -2),
                  range(-3, n + 5)]
        for vs in ranges:
            total = h.total_weight(vs)
            assert type(total) is Fraction
            assert total == h.total_weight(iter(vs))


@pytest.mark.parametrize(
    "raw, stored",
    [(3, 3), (0, 0), (Fraction(4, 2), 2), (2.0, 2),
     pytest.param(10**400, 10**400, id="401-digits"),
     (Fraction(3, 2), Fraction(3, 2)), (0.25, Fraction(1, 4))],
)
def test_a_weight_is_stored_as_an_int_exactly_when_integral(raw, stored):
    for cls in (BipartiteGraph, SplitGraph):
        g = cls(1, 1, frozenset({(1, 2)}), 3, {1: raw})
        assert g.weights == {1: stored}
        assert type(g.weights[1]) is type(stored)
        assert g.weight(1) is g.weights[1]
        assert type(g.weight(2)) is int  # the unit default


@pytest.mark.parametrize("unit", [1, True, Fraction(1), 1.0, Fraction(3, 3)])
def test_a_unit_weight_of_any_type_is_not_stored(unit):
    for cls in (BipartiteGraph, SplitGraph):
        g = cls(1, 1, frozenset({(1, 2)}), 3, {1: unit, 2: 5})
        assert g.weights == {2: 5}
        assert type(g.weight(1)) is int and type(g.weights[2]) is int


def test_edges_are_stored_once_as_rows():
    g = BipartiteGraph(2, 3, frozenset({(1, 3), (1, 5), (2, 4)}), 3, {4: 2})
    h = SplitGraph(2, 3, [(1, 3), (1, 3)], 3)
    assert "edges" not in g.__dict__ and "cross_edges" not in h.__dict__
    assert g.edges == {(1, 3), (1, 5), (2, 4)} and type(g.edges) is frozenset
    assert g.adj == [(), (3, 5), (4,), (1,), (2,), (1,)]
    # repeated pairs are merged, as a frozenset would merge them
    assert h == SplitGraph(2, 3, {(1, 3)}, 3) and h.cross_edges == {(1, 3)}
    assert "edges" not in repr(g) and "cross_edges" not in repr(h)

    class OnePass:
        passes = 0

        def __iter__(self):
            OnePass.passes += 1
            return iter([(1, 3), (2, 4), (1, 3)])

    assert SplitGraph(2, 3, OnePass(), 3).cross_edges == {(1, 3), (2, 4)}
    assert OnePass.passes == 1
    assert BipartiteGraph(2, 3, ((1, 3 + k) for k in range(3)), 3).edges == {(1, 3), (1, 4), (1, 5)}


@pytest.mark.parametrize("cls", [BipartiteGraph, SplitGraph])
def test_graphs_that_differ_in_one_edge_compare_unequal(cls):
    edges = {(1, 3), (1, 4), (2, 5)}
    g = cls(2, 3, edges, 3)
    assert g == cls(2, 3, sorted(edges), 3)
    assert g != cls(2, 3, edges - {(2, 5)} | {(2, 4)}, 3)
    assert g != cls(2, 3, edges - {(2, 5)}, 3)
    assert g != cls(2, 3, edges, 4) and g != cls(2, 3, edges, 3, {5: 2})


def test_split_validation_and_sides():
    h = SplitGraph(2, 3, frozenset({(1, 3), (2, 7 - 2)}), 3)
    assert list(h.clique_side) == [1, 2]
    assert list(h.indep_side) == [3, 4, 5]
    with pytest.raises(ValueError, match="^clique index 3 out of range 1..2$"):
        SplitGraph(2, 3, frozenset({(3, 4)}), 3)
    with pytest.raises(ValueError, match="^independent index 2 out of range 3..5$"):
        SplitGraph(2, 3, frozenset({(1, 2)}), 3)


def test_hypergraph_validation():
    hy = Hypergraph(6, 3, ((3, 1, 2), (4, 5, 6)))
    assert hy.hyperedges == ((1, 2, 3), (4, 5, 6))
    assert hy.m == 2
    # the messages of the hyperedge rule, shared with the parser
    with pytest.raises(ValueError, match="^hyperedge vertices must be distinct$"):
        Hypergraph(6, 3, ((1, 2, 2),))
    with pytest.raises(ValueError, match=r"^duplicate hyperedge \(1, 2, 3\)$"):
        Hypergraph(6, 3, ((1, 2, 3), (3, 2, 1)))
    with pytest.raises(ValueError, match=r"^vertex id 3 out of range 1\.\.2$"):
        Hypergraph(2, 3, ((1, 2, 3),))
    with pytest.raises(ValueError, match="^hyperedge needs exactly 3 vertex ids$"):
        Hypergraph(6, 3, ((1, 2),))
    assert Hypergraph(6, 3, [{5, 4, 6}, iter((3, 1, 2))]).hyperedges == ((4, 5, 6), (1, 2, 3))
    assert vertex_degrees(hy) == {1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1}


def test_degree_queries(g1):
    assert degree(g1, 1) == 4
    for bad in (-1, 0, 9):
        with pytest.raises(ValueError):
            degree(g1, bad)


def test_incidence_queries(g1):
    assert incident_edges(g1, 1) == {(1, 2), (1, 3), (1, 4), (1, 5)}
    assert incident_edges(g1, 2) == {(1, 2)}
    assert incident_edges_within(g1, 1, {1, 2, 3}) == {(1, 2), (1, 3)}
    with pytest.raises(ValueError):
        incident_edges_within(g1, 1, {2, 3})
    with pytest.raises(ValueError, match="out of range"):
        incident_edges_within(g1, -1, {-1, 2})


def test_degree_matches_incidence_and_handshake():
    for seed in range(40):
        g = random_bipartite(seed)
        for v in g.vertices:
            assert degree(g, v) == len(incident_edges(g, v))
        a_total = sum(degree(g, a) for a in g.a_side)
        b_total = sum(degree(g, b) for b in g.b_side)
        assert a_total == b_total == len(g.edges)


def _adjacency_by_rows(n_total, rows):
    """Adjacency and touched ids from a map of first-side rows, one id at a time."""
    adj = [()] * (n_total + 1)
    columns = {}
    for u in sorted(rows):
        adj[u] = tuple(sorted(rows[u]))
        for v in adj[u]:
            columns.setdefault(v, []).append(u)
    for v, us in columns.items():
        adj[v] = tuple(us)
    return adj, (*sorted(rows), *sorted(columns))


def test_one_id_runs_build_the_adjacency_of_the_rows():
    rng = random.Random(11)
    for _ in range(60):
        n1, n2 = rng.randint(1, 30), rng.randint(1, 30)
        rows = {u: rng.sample(range(n1 + 1, n1 + n2 + 1), rng.randint(1, n2))
                for u in rng.sample(range(1, n1 + 1), rng.randint(0, n1))}
        want = _adjacency_by_rows(n1 + n2, rows)
        assert graphs._finish_adjacency(n1 + n2, graphs._one_id_runs(rows)) == want
        # longer runs of one row give the same adjacency, each run sharing its row
        runs, lo = [], 1
        while lo <= n1:
            hi = min(lo + rng.randint(1, 6), n1 + 1)
            if rng.random() < 0.7:
                runs.append((lo, hi, rng.sample(range(n1 + 1, n1 + n2 + 1), rng.randint(1, n2))))
            lo = hi
        adj, touched = graphs._finish_adjacency(n1 + n2, runs)
        assert (adj, touched) == _adjacency_by_rows(
            n1 + n2, {a: row for lo, hi, row in runs for a in range(lo, hi)})
        assert all(adj[a] is adj[lo] for lo, hi, _ in runs for a in range(lo, hi))
