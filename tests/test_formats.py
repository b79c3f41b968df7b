import pytest
import tracemalloc
from fractions import Fraction

from clawdel import (
    BipartiteGraph,
    GenSpec,
    from_hypergraph_cover,
    from_regular_graph_cover,
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
from clawdel import formats
from clawdel.formats import _CHUNK, _RUN_CHUNK, MAX_VERTICES
from clawdel.generate import FAMILIES
from conftest import FAMILY_SIZES, count_validations, random_bipartite

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
        ("p bip 1 1 1 3\nn 1 +5\ne 1 2", "line 2: bad weight '+5' (expected 'k' or 'p/q')"),
        ("p bip 1 1 1 3\nn 1 \u0663\ne 1 2", "line 2: bad weight '\u0663' (expected"),
        ("p bip 1 1 1 3\nn 1 5/0\ne 1 2", "line 2: bad weight '5/0' (expected"),
        ("p bip 1 1 1 3\nn 3 5\ne 1 2", "line 2: vertex id 3 out of range 1..2"),
        ("p bip 1 1 1 3\nn 0 5\ne 1 2", "line 2: vertex id 0 out of range 1..2"),
        ("p bip 1 1 1 3\nn 2 5\nn 2 5\ne 1 2", "line 3: duplicate weight for vertex 2"),
        ("p bip 1 1 1 3\nn 2 5\nn 2 5/2\ne 1 2", "line 3: duplicate weight for vertex 2"),
        # the id is checked before the weight's digits
        ("p bip 1 1 1 3\nn 3 " + "9" * 5000 + "\ne 1 2", "line 2: vertex id 3 out of range"),
        ("p bip 1 1 1 3\nn 1 9\nn 1 " + "9" * 5000 + "\ne 1 2",
         "line 3: duplicate weight for vertex 1"),
        ("p bip 1 1 1 3\nn 1 1.5\ne 1 2", "line 2"),
        ("p bip 1 1 1 3\nn 1 2\nn 1 3\ne 1 2", "line 3"),
        ("p bip 1 1 1 3\nq 1 2", "line 2"),
        ("p bip 1 1 1 3\ne 1 2 3", "line 2: edge line needs 'e <u> <v>'"),
        ("p bip 1 1 1 3\ne 1", "line 2: edge line needs 'e <u> <v>'"),
        ("p bip 1 1 1 3\nn 1\ne 1 2", "line 2: weight line needs 'n <id> <weight>'"),
        ("p bip 1 1 1 3\nn 1 2 3\ne 1 2", "line 2: weight line needs 'n <id> <weight>'"),
        ("p bip 1 1 2 3\ne 1 2", "declares 2 edges"),
        ("p bogus 1 1 1 3", "line 1"),
        ("p bip 1 1 1 2\ne 1 2", "line 1"),
        ("", "empty input"),
        (b"\xff", "not valid UTF-8"),
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


@pytest.mark.parametrize(
    "token, stored",
    [("7", 7), ("0", 0), ("6/3", 2), ("0/4", 0), ("0009", 9),
     pytest.param("4" * 400, int("4" * 400), id="400-digits"),
     ("3/2", Fraction(3, 2)), ("10/4", Fraction(5, 2)),
     pytest.param("1/" + "3" * 400, Fraction(1, int("3" * 400)), id="1/400-digits")],
)
def test_a_parsed_weight_is_an_int_exactly_when_integral(token, stored):
    # a plain-digit weight line is read in bulk, so each text is also read by the line loop
    # alone; the second has a non-ASCII comment
    for text in (f"p bip 1 1 1 3\nn 1 {token}\ne 1 2",
                 f"# \u00e9\np split 1 1 1 3\nn 1 {token}\ne 1 2"):
        for g in _parsed_both_ways(text):
            assert g.weights == {1: stored}
            assert type(g.weights[1]) is type(stored)
            assert g == type(g)(1, 1, [(1, 2)], 3, {1: stored})


@pytest.mark.parametrize("token", ["1", "01", "3/3", "1/1"])
def test_a_parsed_unit_weight_is_not_stored(token):
    for text in (f"p bip 1 1 1 3\nn 1 {token}\nn 2 2\ne 1 2",
                 f"# \u00e9\np bip 1 1 1 3\nn 1 {token}\nn 2 2\ne 1 2"):
        for g in _parsed_both_ways(text):
            assert g.weights == {2: 2} and type(g.weights[2]) is int


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
    for text, message in [
        ("p hyp 6 1 1\nh 1", "line 1: uniformity must be >= 2, got 1"),
        ("p hyp 6 1 3\ne 1 2 3", "line 2: unknown line kind 'e'"),
        ("p hyp 6 2 3\nh 1 2 3", "header declares 2 hyperedges but 1 were listed"),
    ]:
        with pytest.raises(ParseError) as err:
            parse_hypergraph(text)
        assert str(err.value) == message


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
    with pytest.raises(ParseError, match="^empty input$"):
        parse_auto("")


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
        # a non-ASCII comment ahead of the header leaves the message as it is
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
        pytest.param(f"p bip 1 1 1 3\nn {LONG} {LONG}\ne 1 2",
                     "line 2: vertex id has too many digits", id="weight-id-and-weight"),
        pytest.param(f"p split 1 1 1 3\nn 2 {LONG}\ne 1 2", "line 2: weight has too many digits",
                     id="split-weight"),
        pytest.param(f"# \u00e9\np bip 1 1 1 3\nn 1 {LONG}\ne 1 2",
                     "line 3: weight has too many digits", id="weight-not-ascii-text"),
        pytest.param(f"p bip 1 1 1 3\nn 1 {LONG}/3\ne 1 2", "line 2: weight has too many digits",
                     id="weight-numerator"),
        pytest.param(f"p hyp 3 1 3\nh 1 2 {LONG}", "line 2: hyperedge vertex has too many digits",
                     id="hyperedge"),
    ],
)
def test_an_integer_token_with_too_many_digits_is_a_parse_error(text, message):
    with pytest.raises(ParseError) as err:
        parse_auto(text)
    assert str(err.value) == message


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
        assert not {"edges", "cross_edges"} & (parsed.__dict__.keys() | public.__dict__.keys())
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


def test_serializing_a_large_graph_holds_one_string_per_row():
    # the shape of a hypergraph-cover gadget graph: many A-vertices of degree 3
    g = BipartiteGraph(60_000, 3, frozenset((a, 60_000 + b) for a in range(1, 60_001)
                                           for b in (1, 2, 3)), 3)
    tracemalloc.start()
    try:
        text = serialize_bipartite(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.count("\ne ") == 180_000 and text.endswith("e 60000 60003\n")
    # one string per edge peaked at ~7.6x the text's length, one per row at ~4.4x
    assert peak < 6 * len(text)


def _per_edge_text(g, comments=()):
    """The canonical text of a two-sided graph, one line per edge of its sorted edge set."""
    kind, edges = (("bip", g.edges) if isinstance(g, BipartiteGraph) else ("split", g.cross_edges))
    first, second = g.sides
    lines = [f"# {c}" for c in comments]
    lines.append(f"p {kind} {len(first)} {len(second)} {len(edges)} {g.t}")
    lines += [f"n {v} {g.weights[v]}" for v in sorted(g.weights)]
    lines += [f"e {u} {v}" for u, v in sorted(edges)]
    return "\n".join(lines) + "\n"


def _two_sided_instances():
    """Graphs with runs of equal rows, equal rows apart, and empty rows between them."""
    for family, sizes in FAMILY_SIZES.items():
        for seed in range(3):
            g = generate(GenSpec(family, 3, seed, sizes, ("uniform", 1, 9)))
            if family == "hyp-uniform":
                g = from_hypergraph_cover(g)[0]
            elif family == "regular-graph":
                g = from_regular_graph_cover(g)[0]  # equal rows m ids apart
            yield g
    yield from_hypergraph_cover(Hypergraph(40, 4, ((1, 2, 3, 4), (5, 6, 7, 8))))[0]
    yield from_hypergraph_cover(Hypergraph(3, 3, ((1, 2, 3),)))[0]
    yield from_hypergraph_cover(Hypergraph(3, 3, ()))[0]
    row, other = (10, 11, 12), (9,)
    rows = {1: row, 2: row, 4: row, 5: row, 6: other, 7: row, 8: other}  # 3 is empty
    for cls in (BipartiteGraph, SplitGraph):
        yield cls(8, 4, [(u, v) for u, r in rows.items() for v in r], 3, {2: 5, 11: 0})
        yield cls(8, 4, [(u, v) for u, r in rows.items() if u != 1 for v in r], 3)
    # runs that cross chunk boundaries, next to one-id runs and empty rows
    n_a = 3 * _RUN_CHUNK + 7
    rows = {a: (n_a + 1 + a % 2, n_a + 3) if a % 997 else (n_a + 2,) for a in range(1, n_a + 1)}
    rows.update(dict.fromkeys(range(5, 2 * _RUN_CHUNK + 9), (n_a + 1, n_a + 4)))
    for a in (3, _RUN_CHUNK, 2 * _RUN_CHUNK + 20):
        del rows[a]
    yield BipartiteGraph(n_a, 4, [(u, v) for u, r in rows.items() for v in r], 4)


def test_serialization_equals_the_per_edge_text():
    graphs = list(_two_sided_instances())
    assert len(graphs) >= 20
    for g in graphs:
        comments = ("a comment",) if g.n_vertices % 2 else ()
        text = SERIALIZERS[type(g)](g, comments)
        assert text == _per_edge_text(g, comments)
        assert parse_auto(text) == g


def _with_a_last_comment(text):
    """`text` with a comment line after it; the line numbers stay as they were."""
    return text + ("" if text.endswith("\n") else "\n") + "# end\n"


def _loop_only(mp):
    """Patch the bulk reader out, so that the line loop reads every line."""
    mp.setattr(formats, "_read_canonical", lambda text, pos, line_no, *rest: (pos, line_no))


def _parsed_both_ways(text):
    """`text` parsed as it is, then by the line loop alone."""
    with pytest.MonkeyPatch.context() as mp:
        _loop_only(mp)
        loop = parse_auto(text)
    return parse_auto(text), loop


def _outcome(text):
    """Every part of the parsed graph that must match, weight types included, or the error."""
    try:
        g = parse_auto(text)
    except ParseError as exc:
        return str(exc)
    if isinstance(g, Hypergraph):
        return (g,)
    return g, g.adj, g.touched, {v: (type(w), w) for v, w in g.weights.items()}


def _assert_parsed_like_the_loop(text):
    """`text` parses to what the line loop alone makes of it, or fails with its message."""
    with pytest.MonkeyPatch.context() as mp:
        _loop_only(mp)
        loop = _outcome(_with_a_last_comment(text))
    assert _outcome(text) == loop
    return loop


@pytest.mark.parametrize("mode", [("unit",), ("uniform", 0, 9), ("uniform", 1, 9)])
@pytest.mark.parametrize("family", list(FAMILIES))
def test_a_generated_text_is_read_in_bulk_like_the_line_loop(family, mode):
    for seed in range(4):
        g = generate(GenSpec(family, 3, seed, FAMILY_SIZES[family], mode))
        text = SERIALIZERS[type(g)](g, ["generated"])
        assert _assert_parsed_like_the_loop(text)[0] == g
        if not isinstance(g, Hypergraph):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(formats, "_read_lines", None)  # the bulk reader takes every line
                assert parse_auto(text) == g


def _base_texts():
    for family in ("bip-random", "split-random"):
        g = generate(GenSpec(family, 3, 7, FAMILY_SIZES[family], ("uniform", 0, 9)))
        yield g, SERIALIZERS[type(g)](g)


def test_a_non_ascii_comment_leaves_the_body_to_the_bulk_reader():
    for g, text in _base_texts():
        text = "# \u00e9\n" + text
        assert g.weights
        loop = _assert_parsed_like_the_loop(text)
        assert loop[0] == g
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(formats, "_read_lines", None)  # the bulk reader takes every line
            assert _outcome(text) == loop


def _mutations(g, text):
    """(name, text) pairs: each changes one thing about the canonical `text`."""
    n1, n_total = len(g.sides[0]), g.n_vertices
    lines = text.split("\n")
    e0 = next(i for i, line in enumerate(lines) if line.startswith("e "))
    _, u, v = lines[e0 + 5].split()
    _, w, k = lines[3].split()
    long = "9" * 5000

    def put(i, line):
        return "\n".join(lines[:i] + [line] + lines[i + 1:])

    def swap(i, j):
        swapped = list(lines)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        return "\n".join(swapped)

    header = lines[0].split()
    yield "swapped edges", swap(e0 + 2, e0 + 9)
    yield "swapped weights", swap(1, 4)
    yield "weight after the edges", swap(e0 - 1, len(lines) - 2)
    yield "duplicate edge", put(e0 + 6, lines[e0 + 5])
    yield "duplicate weight", put(4, lines[3])
    for a, b in ((0, v), (n1 + 1, v), (u, n1), (u, n_total + 1)):
        yield f"edge ({a}, {b})", put(e0 + 5, f"e {a} {b}")
    for x in (0, n_total + 1):
        yield f"weight of {x}", put(3, f"n {x} {k}")
    # out of range at either end, where the order of the lines still holds
    _, u_last, _ = lines[-2].split()
    yield "first edge (0, v)", put(e0, f"e 0 {v}")
    yield "last edge (n1 + 1, v)", put(len(lines) - 2, f"e {n1 + 1} {v}")
    yield "last edge (u, n + 1)", put(len(lines) - 2, f"e {u_last} {n_total + 1}")
    yield "first weight of 0", put(1, f"n 0 {k}")
    yield "last weight of n + 1", put(e0 - 1, f"n {n_total + 1} {k}")
    yield "+5", put(e0 + 5, f"e +{u} {v}")
    yield "+5 weight", put(3, f"n {w} +{k}")
    yield "leading zeros", put(e0 + 5, f"e 0{u} 00{v}")
    yield "leading zero weight", put(3, f"n 0{w} 0{k}")
    yield "trailing space", put(e0 + 5, lines[e0 + 5] + " ")
    yield "CRLF", text.replace("\n", "\r\n")
    yield "tab", put(e0 + 5, f"e\t{u} {v}")
    yield "unit weight", put(3, f"n {w} 1")
    yield "6/3 weight", put(3, f"n {w} 6/3")
    yield "long endpoint", put(e0 + 5, f"e {u} {long}")
    yield "long weight", put(3, f"n {w} {long}")
    yield "long leading zeros", put(e0 + 5, f"e {'0' * 4999}{u} {v}")
    yield "no final newline", text[:-1]
    for m in (int(header[4]) - 1, int(header[4]) + 1):
        yield f"m = {m}", put(0, " ".join(header[:4] + [str(m), header[5]]))
    yield "t = 2", put(0, " ".join(header[:5] + ["2"]))


def test_a_changed_canonical_text_parses_like_the_line_loop():
    outcomes = set()
    for g, text in _base_texts():
        for name, changed in _mutations(g, text):
            assert changed != text, name
            loop = _assert_parsed_like_the_loop(changed)
            outcomes.add(type(loop))
            if name in ("swapped edges", "swapped weights", "weight after the edges", "CRLF",
                        "leading zeros", "trailing space", "tab", "no final newline"):
                assert loop[0] == g, name
    assert outcomes == {tuple, str}


def _spy_on_the_loop(mp):
    """The line number after which each call of the line loop starts."""
    starts = []
    original = formats._read_lines

    def spy(lines, line_no, *rest):
        starts.append(line_no)
        return original(lines, line_no, *rest)

    mp.setattr(formats, "_read_lines", spy)
    return starts


def test_a_canonical_body_that_ends_otherwise_is_read_in_bulk_to_its_last_line():
    for g, text in _base_texts():
        assert g.weights
        for changed in (text[:-1], text + "# end\n"):  # no final newline; a last comment
            with pytest.MonkeyPatch.context() as mp:
                starts = _spy_on_the_loop(mp)
                assert parse_auto(changed) == g
            assert starts == [changed.rstrip("\n").count("\n")]  # the last line alone


def test_a_body_longer_than_one_chunk_goes_to_the_loop_from_its_first_bad_chunk():
    # more than one chunk of weight lines, then more than two of edge lines
    g = generate(GenSpec("bip-random", 3, 5, {"na": 2000, "nb": 3000, "m": 2 * _CHUNK + 300},
                         ("uniform", 1, 9)))
    text = serialize_bipartite(g, ["generated"])
    lines = text.split("\n")
    w0 = 2
    e0 = next(i for i, line in enumerate(lines) if line.startswith("e "))
    assert e0 - w0 > _CHUNK
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formats, "_read_lines", None)  # the bulk reader takes every line
        bulk = _outcome(text)
    with pytest.MonkeyPatch.context() as mp:
        _loop_only(mp)
        assert bulk == _outcome(_with_a_last_comment(text)) and bulk[0] == g
    # a row goes on across each chunk boundary
    for at in (e0 + _CHUNK, e0 + 2 * _CHUNK):
        assert lines[at - 1].split()[1] == lines[at].split()[1]
    cases = []
    for first, at in ((w0, w0 + _CHUNK), (e0, e0 + _CHUNK), (e0, e0 + _CHUNK - 1),
                      (e0, e0 + 2 * _CHUNK)):
        tag, x, _ = lines[at].split()
        cases += [(first, at, "duplicate", {at: lines[at - 1]}),
                  (first, at, "swapped", {at: lines[at + 1], at + 1: lines[at]})]
        if tag == "e":
            cases.append((first, at, "out of range", {at: f"e {x} 1"}))
    for first, at, name, changed in cases:
        new = [changed.get(i, line) for i, line in enumerate(lines)]
        with pytest.MonkeyPatch.context() as mp:
            starts = _spy_on_the_loop(mp)
            loop = _assert_parsed_like_the_loop("\n".join(new))
        # the bulk reader took every chunk before the first one out of order or range
        bad = max(changed) if name == "swapped" else at
        chunk_start = first + (bad - first) // _CHUNK * _CHUNK
        assert starts == [2, chunk_start], (at, name)  # the loop-only twin, then the text
        if name == "swapped":
            assert loop[0] == g
        else:
            assert loop.startswith(f"line {at + 1}: "), loop


def test_the_line_loop_extends_a_row_the_bulk_reader_stored():
    text = "p bip 2 4 4 3\ne 1 4\ne 1 5\ne 2 4\n# c\ne 1 6\n"
    with pytest.MonkeyPatch.context() as mp:
        starts = _spy_on_the_loop(mp)
        parsed = parse_auto(text)
    assert starts == [4]  # the bulk reader took lines 2-4, the loop the rest
    public = BipartiteGraph(2, 4, [(1, 4), (1, 5), (2, 4), (1, 6)], 3)
    assert parsed == public
    assert parsed.adj == public.adj == [(), (4, 5, 6), (4,), (), (1, 2), (1,), (1,)]
    assert parsed.touched == public.touched


def test_a_row_across_every_chunk_parses_to_its_public_construction():
    n_b = 200_000
    text = f"p bip 1 {n_b} {n_b} 3\n" + "".join(f"e 1 {v}\n" for v in range(2, n_b + 2))
    assert -(-n_b // _CHUNK) == 49
    public = BipartiteGraph(1, n_b, [(1, v) for v in range(2, n_b + 2)], 3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formats, "_read_lines", None)  # the bulk reader takes every line
        _assert_parsed_like_public(text, public)


def _parse_overhead(text):
    """The graph parsed from `text`, and the peak memory parsing took beyond what it holds."""
    tracemalloc.start()
    try:
        g = parse_auto(text)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return g, peak - held


def test_a_canonical_body_is_read_a_chunk_at_a_time():
    g = generate(GenSpec("bip-random", 3, 5, {"na": 2000, "nb": 3000, "m": 30_000},
                         ("uniform", 1, 9)))
    text = serialize_bipartite(g)
    bulk, bulk_overhead = _parse_overhead(text)
    with pytest.MonkeyPatch.context() as mp:
        _loop_only(mp)
        loop, loop_overhead = _parse_overhead(_with_a_last_comment(text))
    assert bulk == loop == g
    # The line loop holds every line and grows every row as a set, about 4.0 MB
    # here; the bulk reader holds one chunk's tokens, about 0.8 MB. Reading all
    # 34,000 lines as one chunk took it to 5.1 MB.
    assert bulk_overhead < loop_overhead / 3


def test_the_line_loop_holds_no_copy_of_the_bulk_read_edges():
    # Text after the last canonical line sends only that tail to the line loop,
    # which checks an edge against its own row: it copies no row it does not
    # touch. A set of every bulk-read edge took each of these to about 3 MB,
    # against about 0.8 MB for the text itself.
    g = generate(GenSpec("bip-random", 3, 5, {"na": 2000, "nb": 3000, "m": 30_000},
                         ("uniform", 1, 9)))
    text = serialize_bipartite(g)
    _, overhead = _parse_overhead(text)
    for tail in (text + "# end\n", text[:-1]):
        parsed, tail_overhead = _parse_overhead(tail)
        assert parsed == g
        assert tail_overhead < 2 * overhead
