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

Serialization is canonical: comment lines first, then the header, then
weight lines for non-unit weights in id order, then edges in sorted
order. Hyperedges keep their list order with vertices ascending inside
each. For every graph g, parse(serialize(g)) == g, and serialization is
the normal form of the format: serialize(parse(s)) == s whenever s is
already canonical.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterator

from .graphs import BipartiteGraph, Hypergraph, SplitGraph

_WEIGHT_RE = re.compile(r"^[0-9]+(/[1-9][0-9]*)?$")


class ParseError(ValueError):
    """Malformed instance text; carries the offending line number."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


def _lines(text: str | bytes) -> Iterator[tuple[int, list[str]]]:
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not valid UTF-8: {exc}") from exc
    for line_no, raw in enumerate(text.split("\n"), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield line_no, stripped.split()


def int_field(token: str, what: str, line_no: int | None) -> int:
    if token.isascii() and (token.isdigit() or token[:1] == "-" and token[1:].isdigit()):
        return int(token)
    raise ParseError(f"{what} is not an integer: {token!r}", line_no)


def _parse_header(tokens: list[str], line_no: int, kind: str, n_fields: int) -> list[int]:
    if len(tokens) != 2 + n_fields or tokens[0] != "p" or tokens[1] != kind:
        raise ParseError(f"expected header 'p {kind}' with {n_fields} counts", line_no)
    values = [int_field(tok, "header field", line_no) for tok in tokens[2:]]
    if any(v < 0 for v in values):
        raise ParseError("header counts must be nonnegative", line_no)
    return values


# Both two-sided formats: the graph class and the names of its two sides.
_TWO_SIDED = {
    "bip": (BipartiteGraph, "A-side", "B-side"),
    "split": (SplitGraph, "clique-side", "independent-side"),
}


def _parse_two_sided(text: str | bytes, kind: str) -> BipartiteGraph | SplitGraph:
    cls, first_side, second_side = _TWO_SIDED[kind]
    rows = list(_lines(text))
    if not rows:
        raise ParseError(f"empty input, expected a 'p {kind}' header")
    header_line, tokens = rows[0]
    n1, n2, m, t = _parse_header(tokens, header_line, kind, 4)
    n_total = n1 + n2
    edges: set[tuple[int, int]] = set()
    weights: dict[int, Fraction] = {}
    for line_no, tokens in rows[1:]:
        if tokens[0] == "n":
            if len(tokens) != 3:
                raise ParseError("weight line needs 'n <id> <weight>'", line_no)
            v = int_field(tokens[1], "vertex id", line_no)
            if not 1 <= v <= n_total:
                raise ParseError(f"vertex id {v} out of range 1..{n_total}", line_no)
            if v in weights:
                raise ParseError(f"duplicate weight for vertex {v}", line_no)
            if not _WEIGHT_RE.match(tokens[2]):
                raise ParseError(f"bad weight {tokens[2]!r} (expected 'k' or 'p/q')", line_no)
            weights[v] = Fraction(tokens[2])
        elif tokens[0] == "e":
            if len(tokens) != 3:
                raise ParseError("edge line needs 'e <u> <v>'", line_no)
            u = int_field(tokens[1], "edge endpoint", line_no)
            v = int_field(tokens[2], "edge endpoint", line_no)
            if not 1 <= u <= n1:
                raise ParseError(f"index {u} out of {first_side} range", line_no)
            if not n1 < v <= n_total:
                raise ParseError(f"index {v} out of {second_side} range", line_no)
            if (u, v) in edges:
                raise ParseError(f"duplicate edge ({u}, {v})", line_no)
            edges.add((u, v))
        else:
            raise ParseError(f"unknown line kind {tokens[0]!r}", line_no)
    if len(edges) != m:
        raise ParseError(f"header declares {m} edges but {len(edges)} were listed")
    try:
        return cls(n1, n2, frozenset(edges), t, weights)
    except ValueError as exc:
        raise ParseError(str(exc), header_line) from exc


def parse_bipartite(text: str | bytes) -> BipartiteGraph:
    return _parse_two_sided(text, "bip")


def parse_split(text: str | bytes) -> SplitGraph:
    return _parse_two_sided(text, "split")


def parse_hypergraph(text: str | bytes) -> Hypergraph:
    rows = list(_lines(text))
    if not rows:
        raise ParseError("empty input, expected a 'p hyp' header")
    header_line, tokens = rows[0]
    n, m, t = _parse_header(tokens, header_line, "hyp", 3)
    if t < 2:
        raise ParseError(f"uniformity must be >= 2, got {t}", header_line)
    hyperedges: list[tuple[int, ...]] = []
    seen: set[frozenset[int]] = set()
    for line_no, toks in rows[1:]:
        if toks[0] != "h":
            raise ParseError(f"unknown line kind {toks[0]!r}", line_no)
        if len(toks) != 1 + t:
            raise ParseError(f"hyperedge line needs exactly {t} vertex ids", line_no)
        vs = tuple(sorted(int_field(tok, "hyperedge vertex", line_no) for tok in toks[1:]))
        if len(set(vs)) != t:
            raise ParseError("hyperedge vertices must be distinct", line_no)
        for v in vs:
            if not 1 <= v <= n:
                raise ParseError(f"vertex id {v} out of range 1..{n}", line_no)
        key = frozenset(vs)
        if key in seen:
            raise ParseError(f"duplicate hyperedge {vs}", line_no)
        seen.add(key)
        hyperedges.append(vs)
    if len(hyperedges) != m:
        raise ParseError(f"header declares {m} hyperedges but {len(hyperedges)} were listed")
    return Hypergraph(n, t, tuple(hyperedges))


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


def sniff_format(text: str | bytes) -> str:
    """Return 'bip', 'split' or 'hyp' from the header of `text`."""
    for line_no, tokens in _lines(text):
        if tokens[0] != "p" or len(tokens) < 2 or tokens[1] not in ("bip", "split", "hyp"):
            raise ParseError("first content line must be a 'p bip|split|hyp' header", line_no)
        return tokens[1]
    raise ParseError("empty input")


def parse_auto(text: str | bytes) -> BipartiteGraph | SplitGraph | Hypergraph:
    """Parse any of the three formats, dispatching on the header."""
    kind = sniff_format(text)
    if kind == "hyp":
        return parse_hypergraph(text)
    return _parse_two_sided(text, kind)
