"""Text formats for problem instances.

The three formats share one set of conventions: UTF-8, "\\n" line ends,
"#" comment lines and blank lines are ignored, ids are 1-based, and
every count or id is ASCII digits with an optional leading "-".

    p bip <nA> <nB> <m> <t>      bipartite header
    p split <nC> <nI> <m> <t>    split header (cross edges only)
    p hyp <n> <m> <t>            t-uniform hypergraph header
    n <id> <weight>              optional weight line, weight "k" or "p/q"
    e <u> <v>                    edge / cross edge, exactly m lines
    h <v1> ... <vt>              hyperedge, exactly m lines

A weight is stored as an `int` when it is integral ("6/3" reads as 2)
and as a `Fraction` otherwise, as `graphs` stores it.

A header may declare at most MAX_VERTICES (5,000,000) vertices in all.
A larger one is refused as a parse error on line 1, before anything of
its size is allocated, so the command line exits 2 on it.

Each format is read in one pass that checks each line once, in file
order, so the first bad line is the one reported: 'p bip' and 'p split'
put every edge in its first endpoint's row as they go, and 'p hyp' checks
each hyperedge by the rule `Hypergraph` uses. The graph is then built
from those parts without being validated a second time. A token with
more digits than int() converts (4,300 by default) is a bad token too.

A 'p bip' or 'p split' body in the canonical form that serialization and
`gen` write is read in bulk, a chunk of up to 4,096 lines at a time, as
far as its weights are integral: one regex match checks the chunk's
form, and one `str.split`, one `int()` a token and a few passes over the
chunk's columns check its ranges and its order. The first chunk that
fails a check, or the first 'p/q' weight, and everything after it, goes
to the line loop, which reads any text and words every error, so a text
parses to the same graph, or fails with the same message, either way.
The bulk reader holds one chunk's tokens at a time, never a list of the
text's lines or a set of its edges.

Serialization is canonical: comment lines first, then the header, then
weight lines for non-unit weights in id order, then edges in sorted
order. Hyperedges keep their list order with vertices ascending inside
each. For every graph g, parse(serialize(g)) == g, and serialization is
the normal form of the format: serialize(parse(s)) == s whenever s is
already canonical.

The text is made in pieces that each end in "\\n": the comments, header
and weights, then a row of edges, up to 1,024 ids of a run of equal
rows, or up to 1,024 hyperedges. `write_instance` writes each piece to
the file as it is made; `serialize_*` returns their join.
"""

from __future__ import annotations

import re
from collections import defaultdict
from fractions import Fraction
from itertools import chain, compress, count, islice, repeat
from operator import add, lt, mul, ne
from os import PathLike
from typing import Iterator

from .graphs import (BipartiteGraph, Hypergraph, SplitGraph, Weight, _check_hyperedge,
                     _one_id_runs)

_WEIGHT_RE = re.compile(r"^[0-9]+(/[1-9][0-9]*)?$")

# The most vertices a header may declare. A graph keeps a slot for every
# declared id, so a larger header is refused, as a parse error on line 1
# (exit 2 on the command line), before anything of its size is allocated.
# Each of the four algorithms solves an edgeless 'p bip' header of this
# size within a 1 GB address space.
MAX_VERTICES = 5_000_000


class ParseError(ValueError):
    """Malformed instance text; carries the offending line number."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


def check_vertex_cap(what: str, n: int, line_no: int | None = None) -> None:
    """Refuse a header, `gen` spec or construction of more than MAX_VERTICES vertices."""
    if n > MAX_VERTICES:
        raise ParseError(f"{what} declares {n} vertices, more than the limit {MAX_VERTICES}",
                         line_no)


def _decode(text: str | bytes) -> str:
    if isinstance(text, bytes):
        try:
            return text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not valid UTF-8: {exc}") from exc
    return text


def _header(text: str) -> tuple[int, list[str], int] | None:
    """The line number and tokens of the first content line, and the offset after it.

    Only the lines up to it are split, so a parser that reads the body
    in bulk never holds the whole text as a list of lines.
    """
    pos = 0
    for line_no in count(1):
        end = text.find("\n", pos)
        if end < 0:
            end = len(text)
        tokens = text[pos:end].split()
        if tokens and tokens[0][0] != "#":
            return line_no, tokens, end + 1
        if end == len(text):
            return None
        pos = end + 1


def _rows(lines: list[str], line_no: int) -> Iterator[tuple[int, list[str]]]:
    """(line number, tokens) of each content line, the first line being `line_no` + 1."""
    for line_no, tokens in enumerate(map(str.split, lines), line_no + 1):
        if tokens and tokens[0][0] != "#":
            yield line_no, tokens


def int_field(token: str, what: str, line_no: int | None) -> int:
    if token.isascii() and (token.isdigit() or token[:1] == "-" and token[1:].isdigit()):
        try:
            return int(token)
        except ValueError:  # past the interpreter's integer string conversion limit
            raise ParseError(f"{what} has too many digits", line_no) from None
    raise ParseError(f"{what} is not an integer: {token!r}", line_no)


def _parse_weight(token: str, line_no: int) -> Weight:
    """The weight 'k' or 'p/q' of `token`: an `int` when integral, as '6/3' is."""
    if not _WEIGHT_RE.match(token):
        raise ParseError(f"bad weight {token!r} (expected 'k' or 'p/q')", line_no)
    num, _, den = token.partition("/")
    try:
        if not den:
            return int(num)
        w = Fraction(int(num), int(den))
    except ValueError:  # past the interpreter's integer string conversion limit
        raise ParseError("weight has too many digits", line_no) from None
    return w.numerator if w.denominator == 1 else w


def _parse_header(tokens: list[str], line_no: int, kind: str, n_fields: int) -> list[int]:
    """The counts of a 'p <kind>' header: the side sizes, then <m> and <t>."""
    if len(tokens) != 2 + n_fields or tokens[0] != "p" or tokens[1] != kind:
        raise ParseError(f"expected header 'p {kind}' with {n_fields} counts", line_no)
    values = [int_field(tok, "header field", line_no) for tok in tokens[2:]]
    if any(v < 0 for v in values):
        raise ParseError("header counts must be nonnegative", line_no)
    check_vertex_cap("header", sum(values[:-2]), line_no)
    return values


# Both two-sided formats: the graph class and the names of its two sides.
_TWO_SIDED = {
    "bip": (BipartiteGraph, "A-side", "B-side"),
    "split": (SplitGraph, "clique-side", "independent-side"),
}


# The most lines one bulk match takes. A chunk's tokens and integers are all
# that the bulk reader holds at once beside the graph it is building, about
# 1 MB at this size; larger chunks read no faster.
_CHUNK = 4096
_WEIGHT_RUN = re.compile(r"(?:n [0-9]+ [0-9]+\n){1,%d}" % _CHUNK)
_EDGE_RUN = re.compile(r"(?:e [0-9]+ [0-9]+\n){1,%d}" % _CHUNK)


def _columns(run: re.Match) -> list[tuple[int, ...]] | None:
    """The two integer columns of a matched run of '<tag> <a> <b>' lines.

    None when a token has more digits than int() converts.
    """
    tokens = run.group().split()
    try:
        return [tuple(map(int, islice(tokens, k, None, 3))) for k in (1, 2)]
    except ValueError:
        return None


def _ascending(xs: list[int] | tuple[int, ...]) -> bool:
    return all(map(lt, xs, islice(xs, 1, None)))


def _pair_runs(us: tuple[int, ...], vs: tuple[int, ...]
               ) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(u, its vs) for each run of equal u in the parallel tuples `us` and `vs`."""
    starts = [0, *compress(range(1, len(us)), map(ne, us, islice(us, 1, None))), len(us)]
    return ((us[lo], vs[lo:hi]) for lo, hi in zip(starts, islice(starts, 1, None)))


def _read_canonical(text: str, pos: int, line_no: int, n1: int, n_total: int,
                    weights: dict[int, Weight], rows: defaultdict[int, set[int] | tuple[int, ...]]
                    ) -> tuple[int, int]:
    """Read the canonical body from offset `pos`, after line `line_no`, a chunk at a time.

    The canonical body is what `serialize_*` and `gen` write with
    integral weights: 'n <id> <k>' lines with ids ascending, then 'e <u>
    <v>' lines with (u, v) ascending, all plain digits and single
    spaces, each ending in "\\n"; a 'p/q' weight and all after it are
    left to the line loop. One regex match both checks a chunk of such
    lines and finds where it ends. The chunk is then read with one
    `str.split` and one `int()` a token, range-checked by its first and
    last id (weights) or by min and max (endpoints), and checked
    strictly ascending, which also rules out duplicates; edges are
    compared as u * (n_total + 1) + v. A chunk that passes goes into
    `weights` and `rows`, as the line loop would have put it, each row
    as a checked-ascending tuple that `_finish_adjacency` stores as it
    is. A row that goes on from the chunk before becomes a set once and
    grows in place, so it costs its length. Returns the offset and line
    number of the last line taken; the first chunk that fails a check,
    and everything after it, is left to the line loop.
    """
    last = 0
    while run := _WEIGHT_RUN.match(text, pos):
        columns = _columns(run)
        if columns is None:
            return pos, line_no
        ids, ws = columns
        if not (last < ids[0] and ids[-1] <= n_total and _ascending(ids)):
            return pos, line_no
        weights.update(zip(ids, ws))
        last, pos, line_no = ids[-1], run.end(), line_no + len(ids)
    last, base = 0, n_total + 1
    while run := _EDGE_RUN.match(text, pos):
        columns = _columns(run)
        if columns is None:
            return pos, line_no
        us, vs = columns
        keys = list(map(add, map(mul, us, repeat(base)), vs))
        # ascending keys with every v in range put us in order, so its ends are its bounds
        if not (1 <= us[0] and us[-1] <= n1 and n1 < min(vs) and max(vs) <= n_total
                and last < keys[0] and _ascending(keys)):
            return pos, line_no
        runs = _pair_runs(us, vs)
        if us[0] in rows:  # the row goes on from the chunk before
            _growing(rows, us[0]).update(next(runs)[1])
        rows.update(runs)
        last, pos, line_no = keys[-1], run.end(), line_no + len(us)
    return pos, line_no


def _growing(rows: defaultdict[int, set[int] | tuple[int, ...]], u: int) -> set[int]:
    """The row of `u` as a set that can grow; a bulk reader's tuple row becomes one once."""
    row = rows[u]
    if type(row) is tuple:
        row = rows[u] = set(row)
    return row


def _read_lines(lines: list[str], line_no: int, kind: str, n1: int, n_total: int,
                weights: dict[int, Weight],
                rows: defaultdict[int, set[int] | tuple[int, ...]]) -> None:
    """Check each of `lines`, the first being line `line_no` + 1, once, in file order.

    Every id and endpoint goes through `int_field`, every weight through
    `_parse_weight`. Each edge is checked against, then put into, the
    row of its first endpoint, and each weight into `weights`, on top of
    what the bulk reader put there. A tuple row of the bulk reader
    becomes a set the first time the loop touches it.
    """
    _, first_side, second_side = _TWO_SIDED[kind]
    for line_no, tokens in _rows(lines, line_no):
        tag = tokens[0]
        if tag == "e":
            if len(tokens) != 3:
                raise ParseError("edge line needs 'e <u> <v>'", line_no)
            u = int_field(tokens[1], "edge endpoint", line_no)
            v = int_field(tokens[2], "edge endpoint", line_no)
            if not 1 <= u <= n1:
                raise ParseError(f"index {u} out of {first_side} range", line_no)
            if not n1 < v <= n_total:
                raise ParseError(f"index {v} out of {second_side} range", line_no)
            row = _growing(rows, u)
            if v in row:
                raise ParseError(f"duplicate edge ({u}, {v})", line_no)
            row.add(v)
        elif tag == "n":
            if len(tokens) != 3:
                raise ParseError("weight line needs 'n <id> <weight>'", line_no)
            v = int_field(tokens[1], "vertex id", line_no)
            if not 1 <= v <= n_total:
                raise ParseError(f"vertex id {v} out of range 1..{n_total}", line_no)
            if v in weights:
                raise ParseError(f"duplicate weight for vertex {v}", line_no)
            weights[v] = _parse_weight(tokens[2], line_no)
        else:
            raise ParseError(f"unknown line kind {tag!r}", line_no)


def _parse_two_sided(
    text: str, header_line: int, header: list[str], body: int, kind: str
) -> BipartiteGraph | SplitGraph:
    """One strict pass over the text after the header, which is on `header_line`.

    `_read_canonical` first takes the canonical chunks of the body in
    bulk, up to the first chunk that fails a check. The line loop
    `_read_lines` reads the rest, from the first line the bulk reader
    left, with the same state, so no line is read twice. Each line is
    checked once, in file order, so the first bad line is the one
    reported; the edge count, taken from the rows, is checked after
    every line, and a claw parameter below 3 last, by `_from_rows`,
    which builds the graph from the rows of first endpoints without
    validating them again.
    """
    cls = _TWO_SIDED[kind][0]
    n1, n2, m, t = _parse_header(header, header_line, kind, 4)
    n_total = n1 + n2
    weights: dict[int, Weight] = {}
    rows: defaultdict[int, set[int] | tuple[int, ...]] = defaultdict(set)
    pos, line_no = _read_canonical(text, body, header_line, n1, n_total, weights, rows)
    if pos < len(text):
        _read_lines(text[pos:].split("\n"), line_no, kind, n1, n_total, weights, rows)
    listed = sum(map(len, rows.values()))
    if listed != m:
        raise ParseError(f"header declares {m} edges but {listed} were listed")
    weights = {v: w for v, w in weights.items() if w != 1}
    try:
        return cls._from_rows(n1, n2, t, weights, _one_id_runs(rows))
    except ValueError as exc:  # the claw parameter, checked last
        raise ParseError(str(exc), header_line) from exc


def _parse_hypergraph(
    text: str, header_line: int, header: list[str], body: int, kind: str
) -> Hypergraph:
    n, m, t = _parse_header(header, header_line, kind, 3)
    if t < 2:
        raise ParseError(f"uniformity must be >= 2, got {t}", header_line)
    hyperedges: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for line_no, toks in _rows(text[body:].split("\n"), header_line):
        if toks[0] != "h":
            raise ParseError(f"unknown line kind {toks[0]!r}", line_no)
        if len(toks) != 1 + t:
            raise ParseError(f"hyperedge line needs exactly {t} vertex ids", line_no)
        vs = [int_field(tok, "hyperedge vertex", line_no) for tok in toks[1:]]
        try:
            hyperedges.append(_check_hyperedge(vs, n, t, seen))
        except ValueError as exc:
            raise ParseError(str(exc), line_no) from None
    if len(hyperedges) != m:
        raise ParseError(f"header declares {m} hyperedges but {len(hyperedges)} were listed")
    return Hypergraph._from_checked(n, t, tuple(hyperedges))


_PARSERS = {"bip": _parse_two_sided, "split": _parse_two_sided, "hyp": _parse_hypergraph}


def _parse_kind(text: str | bytes, kind: str):
    text = _decode(text)
    found = _header(text)
    if found is None:
        raise ParseError(f"empty input, expected a 'p {kind}' header")
    return _PARSERS[kind](text, *found, kind)


def parse_bipartite(text: str | bytes) -> BipartiteGraph:
    return _parse_kind(text, "bip")


def parse_split(text: str | bytes) -> SplitGraph:
    return _parse_kind(text, "split")


def parse_hypergraph(text: str | bytes) -> Hypergraph:
    return _parse_kind(text, "hyp")


def _comment_block(comments: tuple[str, ...] | list[str]) -> list[str]:
    return [f"# {c}\n" for c in comments]


def _two_sided_pieces(
    g: BipartiteGraph | SplitGraph, kind: str, comments: tuple[str, ...] | list[str]
) -> Iterator[str]:
    """The canonical text of `g`: the header and weight lines, then `_edge_lines`."""
    first, second = g.sides
    m = sum(map(len, islice(g.adj, first.start, first.stop)))
    yield "".join([*_comment_block(comments), f"p {kind} {len(first)} {len(second)} {m} {g.t}\n",
                   *(f"n {v} {g.weights[v]}\n" for v in sorted(g.weights))])
    yield from _edge_lines(g.adj, first)


# The most first-side ids, or hyperedges, whose lines one piece holds.
_RUN_CHUNK = 1024


def _edge_lines(adj: list[tuple[int, ...]], first: range) -> Iterator[str]:
    """The 'e' lines of the first-side rows, one string per row or per chunk of a run.

    A run is a stretch of consecutive ids with equal rows, such as a
    hypergraph-cover gadget. Each chunk of a run comes from one `%`
    format: the row's template, repeated, over the ids, each repeated
    once per neighbour. Any other row is one `%` format over the row,
    not one string per edge. Each string ends in "\\n".
    """
    # The ids whose row differs from the one before; slot 0 is ().
    starts = [u for u in first if adj[u] != adj[u - 1]]
    starts.append(first.stop)
    for lo, hi in zip(starts, islice(starts, 1, None)):
        row = adj[lo]
        if not row:
            continue
        if hi - lo == 1:
            yield f"e {lo} %d\n" * len(row) % row
            continue
        template, d = "".join([f"e %d {v}\n" for v in row]), len(row)
        for c in range(lo, hi, _RUN_CHUNK):
            ids = range(c, min(c + _RUN_CHUNK, hi))
            values = [0] * (len(ids) * d)
            for k in range(d):
                values[k::d] = ids
            yield template * len(ids) % tuple(values)


def _hypergraph_pieces(hy: Hypergraph, comments: tuple[str, ...] | list[str]
                       ) -> Iterator[str]:
    """The canonical text of `hy`: the header, then one `%` format per chunk of hyperedges."""
    yield "".join([*_comment_block(comments), f"p hyp {hy.n} {hy.m} {hy.t}\n"])
    line, edges = "h" + " %d" * hy.t + "\n", hy.hyperedges
    for c in range(0, len(edges), _RUN_CHUNK):
        chunk = edges[c:c + _RUN_CHUNK]
        yield line * len(chunk) % tuple(chain.from_iterable(chunk))


def serialize_bipartite(g: BipartiteGraph, comments: tuple[str, ...] | list[str] = ()) -> str:
    return "".join(_two_sided_pieces(g, "bip", comments))


def serialize_split(h: SplitGraph, comments: tuple[str, ...] | list[str] = ()) -> str:
    return "".join(_two_sided_pieces(h, "split", comments))


def serialize_hypergraph(hy: Hypergraph, comments: tuple[str, ...] | list[str] = ()) -> str:
    return "".join(_hypergraph_pieces(hy, comments))


def write_instance(path: str | PathLike, g: BipartiteGraph | SplitGraph | Hypergraph,
                   comments: tuple[str, ...] | list[str] = ()) -> None:
    """Write the text `serialize_*` returns for `g` to `path`, a piece at a time."""
    if isinstance(g, Hypergraph):
        pieces = _hypergraph_pieces(g, comments)
    else:
        pieces = _two_sided_pieces(g, "split" if isinstance(g, SplitGraph) else "bip", comments)
    with open(path, "w", encoding="utf-8") as out:
        out.writelines(pieces)


def _sniff(text: str) -> tuple[str, int, list[str], int]:
    """The format, line number and tokens of the header, and the offset after it."""
    found = _header(text)
    if found is None:
        raise ParseError("empty input")
    line_no, tokens, body = found
    if tokens[0] != "p" or len(tokens) < 2 or tokens[1] not in _PARSERS:
        raise ParseError("first content line must be a 'p bip|split|hyp' header", line_no)
    return tokens[1], line_no, tokens, body


def sniff_format(text: str | bytes) -> str:
    """Return 'bip', 'split' or 'hyp' from the header of `text`."""
    return _sniff(_decode(text))[0]


def parse_auto(text: str | bytes) -> BipartiteGraph | SplitGraph | Hypergraph:
    """Parse any of the three formats, dispatching on the header."""
    text = _decode(text)
    kind, header_line, header, body = _sniff(text)
    return _PARSERS[kind](text, header_line, header, body, kind)
