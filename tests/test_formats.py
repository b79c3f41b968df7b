import pytest
from fractions import Fraction

from clawdel import (
    BipartiteGraph,
    ParseError,
    parse_auto,
    parse_bipartite,
    parse_hypergraph,
    parse_split,
    serialize_bipartite,
    serialize_hypergraph,
    serialize_split,
    sniff_format,
)
from conftest import random_bipartite

G1_TEXT = "p bip 1 4 4 3\ne 1 2\ne 1 3\ne 1 4\ne 1 5"


def test_parse_bipartite_basic(g1):
    assert parse_bipartite(G1_TEXT) == g1
    assert parse_bipartite(G1_TEXT.encode()) == g1


def test_parse_empty_graph():
    g = parse_bipartite("p bip 0 0 0 3")
    assert g.n_vertices == 0 and g.edges == frozenset()


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("p bip 1 1 1 3\ne 1 3", "line 2"),
        ("p bip 1 1 1 3\ne 0 2", "line 2"),
        ("p bip 1 1 2 3\ne 1 2\ne 1 2", "line 3"),
        ("p bip 1 1 1 3\nn 1 -4\ne 1 2", "line 2"),
        ("p bip 1 1 1 3\nn 1 1.5\ne 1 2", "line 2"),
        ("p bip 1 1 1 3\nn 1 2\nn 1 3\ne 1 2", "line 3"),
        ("p bip 1 1 1 3\nq 1 2", "line 2"),
        ("p bip 1 1 2 3\ne 1 2", "declares 2 edges"),
        ("p bogus 1 1 1 3", "line 1"),
        ("p bip 1 1 1 2\ne 1 2", "line 1"),
        ("", "empty input"),
        ("p bip 1_0 \u0663 1 3\ne +1 1_1", "line 1: header field is not an integer: '1_0'"),
        ("p bip 1 \u0663 1 3\ne 1 2", "line 1: header field is not an integer: '\u0663'"),
        ("p bip 1 1 1 +3\ne 1 2", "line 1: header field is not an integer: '+3'"),
        ("p bip 1 1 1 3\ne +1 2", "line 2: edge endpoint is not an integer: '+1'"),
        ("p bip 1 1 1 3\ne 1 \uff12", "line 2: edge endpoint is not an integer: '\uff12'"),
        ("p bip 1 1 1 3\ne - 2", "line 2: edge endpoint is not an integer: '-'"),
        ("p bip 1 1 1 3\nn 1_0 2\ne 1 2", "line 2: vertex id is not an integer: '1_0'"),
        ("p bip -1 1 0 3", "line 1: header counts must be nonnegative"),
        ("p bip 1 1 1 3\ne -1 2", "line 2: index -1 out of A-side range"),
        ("p bip 1 1 1 3\ne 1 -2", "line 2: index -2 out of B-side range"),
    ],
)
def test_parse_bipartite_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_bipartite(text)
    assert fragment in str(err.value)


def test_parse_weights_and_fractions():
    g = parse_bipartite("p bip 1 1 1 3\nn 1 3/2\nn 2 0\ne 1 2")
    assert g.weight(1) == Fraction(3, 2)
    assert g.weight(2) == 0


def test_parse_split(h2):
    text = "p split 2 3 6 3\n" + "\n".join(
        f"e {c} {i}" for c in (1, 2) for i in (3, 4, 5)
    )
    assert parse_split(text) == h2
    with pytest.raises(ParseError):
        parse_split("p split 2 3 1 3\ne 1 2")


def test_parse_hypergraph(hy1):
    assert parse_hypergraph("p hyp 6 2 3\nh 1 2 3\nh 4 5 6") == hy1
    with pytest.raises(ParseError) as err:
        parse_hypergraph("p hyp 6 2 3\nh 1 2 3\nh 3 2 1")
    assert "duplicate" in str(err.value)
    with pytest.raises(ParseError):
        parse_hypergraph("p hyp 6 1 3\nh 1 2")
    with pytest.raises(ParseError) as err:
        parse_hypergraph("p hyp 6 1 3\nh 1 2 +3")
    assert "line 2: hyperedge vertex is not an integer: '+3'" in str(err.value)


def test_comments_and_blank_lines_ignored(g1):
    text = "# generated somehow\n\np bip 1 4 4 3\n# weights default to 1\ne 1 2\ne 1 3\ne 1 4\ne 1 5\n"
    assert parse_bipartite(text) == g1


def test_round_trip_is_identity_on_graphs(g1, g2, h2, hy1):
    for g in (g1, g2):
        assert parse_bipartite(serialize_bipartite(g)) == g
    assert parse_split(serialize_split(h2)) == h2
    assert parse_hypergraph(serialize_hypergraph(hy1)) == hy1


def test_serialize_is_a_normal_form():
    messy = "# comment\ne 1 3\nn 2 1\np bip 1 2 2 3\ne 1 2\n"
    # weird order is accepted on parse...
    with pytest.raises(ParseError):
        parse_bipartite(messy)  # header must come first
    shuffled = "p bip 1 2 2 3\ne 1 3\nn 2 1\ne 1 2\n"
    normalized = serialize_bipartite(parse_bipartite(shuffled))
    assert normalized == "p bip 1 2 2 3\ne 1 2\ne 1 3\n"
    assert serialize_bipartite(parse_bipartite(normalized)) == normalized


def test_round_trip_random_sweep():
    for seed in range(60):
        g = random_bipartite(seed, weighted=True)
        assert parse_bipartite(serialize_bipartite(g)) == g


def test_sniff_and_auto(g1, h2, hy1):
    assert sniff_format(serialize_bipartite(g1)) == "bip"
    assert sniff_format(serialize_split(h2)) == "split"
    assert sniff_format(serialize_hypergraph(hy1)) == "hyp"
    assert isinstance(parse_auto(serialize_bipartite(g1)), BipartiteGraph)
    with pytest.raises(ParseError):
        sniff_format("hello world")
