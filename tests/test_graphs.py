import random
from fractions import Fraction

import pytest

from clawdel import (
    BipartiteGraph,
    Hypergraph,
    SplitGraph,
    degree,
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
    for cls in (BipartiteGraph, SplitGraph):
        with pytest.raises(ValueError, match="is not an int$"):
            cls(1, 1, frozenset({edge}), 3)
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
