import pytest
import tracemalloc
from fractions import Fraction

from clawdel import (
    BipartiteGraph,
    GenSpec,
    Hypergraph,
    ParseError,
    SplitGraph,
    generate,
    parse_auto,
    parse_bipartite,
    parse_hypergraph,
    parse_split,
    serialize_bipartite,
    serialize_hypergraph,
    serialize_split,
    sniff_format,
)
from clawdel.formats import MAX_VERTICES
from clawdel.generate import FAMILIES
from conftest import count_validations, random_bipartite

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


def test_crlf_tabs_and_trailing_spaces_parse_like_the_canonical_text(g1):
    canonical = parse_bipartite(G1_TEXT)
    for text in (G1_TEXT.replace("\n", "\r\n") + "\r\n",
                 G1_TEXT.replace(" ", "\t"),
                 G1_TEXT.replace("\n", "  \n") + " \t",
                 "\t" + G1_TEXT.replace(" ", " \t ")):
        g = parse_bipartite(text)
        assert g == g1
        assert g.adj == canonical.adj and g.touched == canonical.touched


def test_leading_zero_ids_are_accepted():
    g = parse_bipartite("p bip 1 2 02 3\nn 003 5\ne 01 2\ne 1 0003")
    assert g == BipartiteGraph(1, 2, frozenset({(1, 2), (1, 3)}), 3, {3: 5})


@pytest.mark.parametrize(
    "text, message",
    [
        # each line is checked before the count, and the count before t
        ("p bip 1 1 1 2\ne 1 3", "line 2: index 3 out of B-side range"),
        ("p bip 1 1 1 2\ne 1 +2", "line 2: edge endpoint is not an integer: '+2'"),
        ("p bip 1 1 2 2\ne 1 2", "header declares 2 edges but 1 were listed"),
        ("p bip 1 1 1 2\ne 1 2", "line 1: claw parameter t must be >= 3, got 2"),
        ("p split 1 1 1 2\ne 1 3", "line 2: index 3 out of independent-side range"),
    ],
)
def test_error_precedence_over_a_bad_claw_parameter(text, message):
    with pytest.raises(ParseError) as err:
        parse_auto(text)
    assert str(err.value) == message


def test_comment_line_between_edge_lines_is_skipped(g1):
    text = "p bip 1 4 4 3\ne 1 2\n# a note\ne 1 3\n   #indented\ne 1 4\n\ne 1 5\n"
    assert parse_bipartite(text) == g1


@pytest.mark.parametrize(
    "text",
    [
        "p bip 200000000 0 0 3",
        f"p bip {MAX_VERTICES} 1 0 3",
        "p bip 3000000 3000000 0 3",
        "p split 200000000 0 0 3",
        f"p hyp {MAX_VERTICES + 1} 0 3",
    ],
)
def test_a_header_over_the_vertex_cap_is_refused_before_allocating(text):
    n = sum(int(tok) for tok in text.split()[2:-2])
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as err:
            parse_auto(text.encode())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(err.value) == (
        f"line 1: header declares {n} vertices, more than the limit {MAX_VERTICES}")
    assert peak < 100_000


def test_a_header_at_the_vertex_cap_parses():
    assert parse_hypergraph(f"p hyp {MAX_VERTICES} 0 3").n == MAX_VERTICES


LONG = "9" * 5000  # more digits than int() converts by default (4,300)


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param(f"p bip 1 1 1 3\ne 1 {LONG}", "line 2: edge endpoint has too many digits",
                     id="second-endpoint"),
        pytest.param(f"p bip 1 1 1 3\ne {LONG} 2", "line 2: edge endpoint has too many digits",
                     id="first-endpoint"),
        # a non-ASCII comment sends every token through int_field
        pytest.param(f"# \u00e9\np split 1 1 1 3\ne 1 {LONG}",
                     "line 3: edge endpoint has too many digits", id="endpoint-not-ascii-text"),
        pytest.param(f"p bip {LONG} 1 1 3\ne 1 2", "line 1: header field has too many digits",
                     id="header"),
        pytest.param(f"p bip 1 1 1 3\nn 1 {LONG}\ne 1 2", "line 2: weight has too many digits",
                     id="weight"),
        pytest.param(f"p bip 1 1 1 3\nn 1 1/{LONG}\ne 1 2", "line 2: weight has too many digits",
                     id="weight-denominator"),
        pytest.param(f"p bip 1 1 1 3\nn {LONG} 2\ne 1 2", "line 2: vertex id has too many digits",
                     id="weight-id"),
        pytest.param(f"p hyp 3 1 3\nh 1 2 {LONG}", "line 2: hyperedge vertex has too many digits",
                     id="hyperedge"),
    ],
)
def test_an_integer_token_with_too_many_digits_is_a_parse_error(text, message):
    with pytest.raises(ParseError) as err:
        parse_auto(text)
    assert str(err.value) == message


# Sizes with isolated vertices on both sides of the two-sided families.
FAMILY_SIZES = {
    "bip-random": {"na": 12, "nb": 30, "m": 40},
    "bip-dense": {"na": 6, "nb": 12},
    "hyp-uniform": {"n": 12, "m": 10},
    "regular-graph": {"n": 10},
    "split-random": {"nc": 8, "ni": 20, "m": 30},
}
SERIALIZERS = {BipartiteGraph: serialize_bipartite, SplitGraph: serialize_split,
               Hypergraph: serialize_hypergraph}


def _assert_parsed_like_public(text, public):
    """`text` parses to `public` without a second validation, bucketed the same,
    and serializes back to itself."""
    with pytest.MonkeyPatch.context() as mp:
        runs = count_validations(mp)
        parsed = parse_auto(text)
    assert not runs
    assert parsed == public
    if not isinstance(public, Hypergraph):
        assert parsed.adj == public.adj
        assert parsed.touched == public.touched
        assert parsed.weights == public.weights
    assert SERIALIZERS[type(parsed)](parsed) == text


@pytest.mark.parametrize("mode", [("unit",), ("uniform", 1, 9)])
@pytest.mark.parametrize("family", list(FAMILIES))
def test_parsed_graph_is_built_like_the_public_constructor(family, mode):
    for seed in range(3):
        g = generate(GenSpec(family, 3, seed, FAMILY_SIZES[family], mode))
        text = SERIALIZERS[type(g)](g)
        _assert_parsed_like_public(text, g)
        if not isinstance(g, Hypergraph):
            # buckets filled in another order must come out sorted the same
            header, *rest = text.rstrip("\n").split("\n")
            shuffled = parse_auto("\n".join([header, *reversed(rest)]))
            assert shuffled == g
            assert shuffled.adj == g.adj and shuffled.touched == g.touched


def test_isolated_vertex_header_is_built_like_the_public_constructor():
    text = "p bip 4000 6000 3 3\ne 7 4001\ne 7 4010\ne 7 10000\n"
    public = BipartiteGraph(4000, 6000, frozenset({(7, 4001), (7, 4010), (7, 10000)}), 3)
    _assert_parsed_like_public(text, public)
    assert public.touched == (7, 4001, 4010, 10000)
