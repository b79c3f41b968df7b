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

A header may declare at most MAX_VERTICES (5,000,000) vertices in all.
A larger one is refused as a parse error on line 1, before anything of
its size is allocated, so the command line exits 2 on it.

Each format is read in one pass that checks each line once, in file
order, so the first bad line is the one reported: 'p bip' and 'p split'
bucket every edge under both endpoints as they go, and 'p hyp' checks
each hyperedge by the rule `Hypergraph` uses. The graph is then built
from those parts without being validated a second time. A token with
more digits than int() converts (4,300 by default) is a bad token too.

Serialization is canonical: comment lines first, then the header, then
weight lines for non-unit weights in id order, then edges in sorted
order. Hyperedges keep their list order with vertices ascending inside
each. For every graph g, parse(serialize(g)) == g, and serialization is
the normal form of the format: serialize(parse(s)) == s whenever s is
already canonical.
"""

from __future__ import annotations

import re
from collections import defaultdict
from fractions import Fraction
from itertools import islice
from typing import Iterator

from .graphs import (BipartiteGraph, Hypergraph, SplitGraph, _check_hyperedge,
                     _finish_adjacency, check_claw_parameter)

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


def _split_lines(text: str | bytes) -> tuple[list[str], bool]:
    """The lines of `text`, split at "\\n", and whether it is all ASCII."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not valid UTF-8: {exc}") from exc
    return text.split("\n"), text.isascii()


def _rows(lines: list[str], after: int = 0) -> Iterator[tuple[int, list[str]]]:
    """(line number, tokens) of each content line after line number `after`."""
    for line_no, tokens in enumerate(map(str.split, islice(lines, after, None)), after + 1):
        if tokens and tokens[0][0] != "#":
            yield line_no, tokens


def int_field(token: str, what: str, line_no: int | None) -> int:
    if token.isascii() and (token.isdigit() or token[:1] == "-" and token[1:].isdigit()):
        try:
            return int(token)
        except ValueError:  # past the interpreter's integer string conversion limit
            raise ParseError(f"{what} has too many digits", line_no) from None
    raise ParseError(f"{what} is not an integer: {token!r}", line_no)


def _parse_header(tokens: list[str], line_no: int, kind: str, n_fields: int) -> list[int]:
    """The counts of a 'p <kind>' header: the side sizes, then <m> and <t>."""
    if len(tokens) != 2 + n_fields or tokens[0] != "p" or tokens[1] != kind:
        raise ParseError(f"expected header 'p {kind}' with {n_fields} counts", line_no)
    values = [int_field(tok, "header field", line_no) for tok in tokens[2:]]
    if any(v < 0 for v in values):
        raise ParseError("header counts must be nonnegative", line_no)
    n = sum(values[:-2])
    if n > MAX_VERTICES:
        raise ParseError(f"header declares {n} vertices, more than the limit {MAX_VERTICES}",
                         line_no)
    return values


# Both two-sided formats: the graph class and the names of its two sides.
_TWO_SIDED = {
    "bip": (BipartiteGraph, "A-side", "B-side"),
    "split": (SplitGraph, "clique-side", "independent-side"),
}


def _parse_two_sided(
    lines: list[str], plain: bool, header_line: int, header: list[str], kind: str
) -> BipartiteGraph | SplitGraph:
    """One strict pass over the lines after the header, which is on `header_line`.

    Each line is checked once, in file order, so the first bad line is
    the one reported; a count mismatch comes after every line, and a
    claw parameter below 3 last. Each edge goes into the neighbour
    buckets of both endpoints as it is read, and the graph is built
    from these checked parts without validating them again. `plain`
    says the text is all ASCII, where `str.isdigit` alone is the strict
    integer rule of `int_field` for nonnegative ids.
    """
    cls, first_side, second_side = _TWO_SIDED[kind]
    n1, n2, m, t = _parse_header(header, header_line, kind, 4)
    n_total = n1 + n2
    edges: set[tuple[int, int]] = set()
    weights: dict[int, Fraction] = {}
    buckets: defaultdict[int, list[int]] = defaultdict(list)
    for line_no, tokens in enumerate(map(str.split, islice(lines, header_line, None)),
                                     header_line + 1):
        if not tokens:
            continue
        tag = tokens[0]
        if tag == "e" and len(tokens) == 3:
            _, su, sv = tokens
            if plain and su.isdigit() and sv.isdigit():
                try:
                    u, v = int(su), int(sv)
                except ValueError:  # too many digits; int_field names the token
                    u, v = (int_field(tok, "edge endpoint", line_no) for tok in (su, sv))
            else:
                u = int_field(su, "edge endpoint", line_no)
                v = int_field(sv, "edge endpoint", line_no)
            if not 1 <= u <= n1:
                raise ParseError(f"index {u} out of {first_side} range", line_no)
            if not n1 < v <= n_total:
                raise ParseError(f"index {v} out of {second_side} range", line_no)
            edge = (u, v)
            if edge in edges:
                raise ParseError(f"duplicate edge ({u}, {v})", line_no)
            edges.add(edge)
            buckets[u].append(v)
            buckets[v].append(u)
        elif tag == "n":
            if len(tokens) != 3:
                raise ParseError("weight line needs 'n <id> <weight>'", line_no)
            v = int_field(tokens[1], "vertex id", line_no)
            if not 1 <= v <= n_total:
                raise ParseError(f"vertex id {v} out of range 1..{n_total}", line_no)
            if v in weights:
                raise ParseError(f"duplicate weight for vertex {v}", line_no)
            if not _WEIGHT_RE.match(tokens[2]):
                raise ParseError(f"bad weight {tokens[2]!r} (expected 'k' or 'p/q')", line_no)
            num, _, den = tokens[2].partition("/")
            try:
                weights[v] = Fraction(int(num), int(den)) if den else Fraction(int(num))
            except ValueError:  # past the interpreter's integer string conversion limit
                raise ParseError("weight has too many digits", line_no) from None
        elif tag == "e":
            raise ParseError("edge line needs 'e <u> <v>'", line_no)
        elif tag[0] != "#":
            raise ParseError(f"unknown line kind {tag!r}", line_no)
    if len(edges) != m:
        raise ParseError(f"header declares {m} edges but {len(edges)} were listed")
    try:
        check_claw_parameter(t)
    except ValueError as exc:
        raise ParseError(str(exc), header_line) from exc
    weights = {v: w for v, w in weights.items() if w != 1}
    return cls._from_checked(n1, n2, frozenset(edges), t, weights,
                             *_finish_adjacency(n_total, buckets))


def _parse_hypergraph(
    lines: list[str], plain: bool, header_line: int, header: list[str], kind: str
) -> Hypergraph:
    n, m, t = _parse_header(header, header_line, kind, 3)
    if t < 2:
        raise ParseError(f"uniformity must be >= 2, got {t}", header_line)
    hyperedges: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for line_no, toks in _rows(lines, header_line):
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
    lines, plain = _split_lines(text)
    found = next(_rows(lines), None)
    if found is None:
        raise ParseError(f"empty input, expected a 'p {kind}' header")
    return _PARSERS[kind](lines, plain, *found, kind)


def parse_bipartite(text: str | bytes) -> BipartiteGraph:
    return _parse_kind(text, "bip")


def parse_split(text: str | bytes) -> SplitGraph:
    return _parse_kind(text, "split")


def parse_hypergraph(text: str | bytes) -> Hypergraph:
    return _parse_kind(text, "hyp")


def _comment_block(comments: tuple[str, ...] | list[str]) -> list[str]:
    return [f"# {c}" for c in comments]


def _serialize_two_sided(
    g: BipartiteGraph | SplitGraph, kind: str, comments: tuple[str, ...] | list[str]
) -> str:
    first, second = g.sides
    pairs = [f"e {u} {v}" for u in first for v in g.adj[u]]
    lines = _comment_block(comments)
    lines.append(f"p {kind} {len(first)} {len(second)} {len(pairs)} {g.t}")
    lines.extend(f"n {v} {g.weights[v]}" for v in sorted(g.weights))
    lines.extend(pairs)
    return "\n".join(lines) + "\n"


def serialize_bipartite(g: BipartiteGraph, comments: tuple[str, ...] | list[str] = ()) -> str:
    return _serialize_two_sided(g, "bip", comments)


def serialize_split(h: SplitGraph, comments: tuple[str, ...] | list[str] = ()) -> str:
    return _serialize_two_sided(h, "split", comments)


def serialize_hypergraph(hy: Hypergraph, comments: tuple[str, ...] | list[str] = ()) -> str:
    lines = _comment_block(comments)
    lines.append(f"p hyp {hy.n} {hy.m} {hy.t}")
    lines.extend("h " + " ".join(str(v) for v in e) for e in hy.hyperedges)
    return "\n".join(lines) + "\n"


def _sniff(lines: list[str]) -> tuple[str, int, list[str]]:
    """The format, line number and tokens of the header."""
    found = next(_rows(lines), None)
    if found is None:
        raise ParseError("empty input")
    line_no, tokens = found
    if tokens[0] != "p" or len(tokens) < 2 or tokens[1] not in _PARSERS:
        raise ParseError("first content line must be a 'p bip|split|hyp' header", line_no)
    return tokens[1], line_no, tokens


def sniff_format(text: str | bytes) -> str:
    """Return 'bip', 'split' or 'hyp' from the header of `text`."""
    return _sniff(_split_lines(text)[0])[0]


def parse_auto(text: str | bytes) -> BipartiteGraph | SplitGraph | Hypergraph:
    """Parse any of the three formats, dispatching on the header."""
    lines, plain = _split_lines(text)
    kind, header_line, header = _sniff(lines)
    return _PARSERS[kind](lines, plain, header_line, header, kind)
