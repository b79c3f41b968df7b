"""Instance transformers with deterministic id layouts and solution maps.

Each constructor returns the new instance together with a ReductionMap
recording the id ranges of every vertex group. Constructed bipartite
instances put gadget vertices on the A side (ids 1..nA, format
invariant), so preserved source vertices land on the B side at a fixed
offset. `map_solution` has one rule for both shifted constructions
(`hvc-osbcd`, `vc-dense`): shift the preserved group V, then add or
require the pad group P, which `hvc-osbcd` does not have. The split
completion is the source read as the other two-sided kind, sharing its
weights and adjacency; `to_bipartite` returns the cross-edge shadow
`graphs.cross_edge_shadow`. The two cover constructions emit unit
weights and are built from checked rows: the source hypergraph was
checked when it was built, so each hands its rows of B-neighbours to
`graphs._TwoSided._from_rows` with no edge re-checked; only t is
checked. `hvc-osbcd` hands one run of ids per gadget, whose A-vertices
then share one row; `vc-dense` hands one row per A-vertex, one ascending
tuple per source edge, which that edge's A-vertices in all 2n blocks
share, and checks its pad against `oracle.exact_min_vc_graph`. A map
survives its sidecar text unchanged: `read_map(write_map(r)) == r`.
Each cover construction first counts, from the source's sizes, the
vertices it would build, and refuses more than `formats.MAX_VERTICES`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from . import oracle
from .claws import find_claw, find_claw_split
from .formats import check_vertex_cap, int_field
from .graphs import (BipartiteGraph, Hypergraph, SplitGraph, _without_disjoint_partner,
                     cross_edge_shadow, vertex_degrees)


@dataclass(frozen=True)
class ReductionMap:
    """Which ids of a constructed instance came from where.

    `groups` lists (name, first id, last id) ranges, disjoint and
    covering the constructed graph. `offset` is the expected additive
    gap between source and constructed optima (the pad-set size for the
    dense construction, 0 elsewhere). `warnings` collects advisory
    findings that do not invalidate the construction itself.
    """

    kind: str
    groups: tuple[tuple[str, int, int], ...]
    offset: int = 0
    warnings: tuple[str, ...] = ()

    def group(self, name: str) -> tuple[int, int]:
        for g_name, lo, hi in self.groups:
            if g_name == name:
                return lo, hi
        raise KeyError(f"no group named {name!r}")


def write_map(rmap: ReductionMap) -> str:
    """Sidecar text for a ReductionMap."""
    lines = [f"# warning: {w}" for w in rmap.warnings]
    lines.append(f"map {rmap.kind}")
    lines.extend(f"g {name} {lo} {hi}" for name, lo, hi in rmap.groups)
    lines.append(f"offset {rmap.offset}")
    return "\n".join(lines) + "\n"


def read_map(text: str) -> ReductionMap:
    """Parse a sidecar back into the ReductionMap it was written from."""
    kind = None
    groups: list[tuple[str, int, int]] = []
    offset = 0
    warnings: list[str] = []
    for raw in text.split("\n"):
        line = raw.strip()
        tokens = line.split()
        if line.startswith("# warning:"):
            warnings.append(line[len("# warning:"):].strip())
        elif not line or line.startswith("#"):
            continue
        elif tokens[0] == "map" and len(tokens) == 2:
            kind = tokens[1]
        elif tokens[0] == "g" and len(tokens) == 4:
            groups.append((tokens[1], *(int_field(tok, "group bound", None) for tok in tokens[2:])))
        elif tokens[0] == "offset" and len(tokens) == 2:
            offset = int_field(tokens[1], "offset", None)
        else:
            raise ValueError(f"bad sidecar line: {line!r}")
    if kind is None:
        raise ValueError("sidecar has no 'map' line")
    return ReductionMap(kind, tuple(groups), offset, tuple(warnings))


def from_hypergraph_cover(hy: Hypergraph) -> tuple[BipartiteGraph, ReductionMap]:
    """Turn a t-uniform vertex cover instance into a bipartite deletion one.

    Each hyperedge becomes a gadget of n A-vertices, every one adjacent
    to the t vertices of the hyperedge, so each A-vertex has degree
    exactly t and a gadget keeps a claw exactly while its hyperedge is
    uncovered. A warning is recorded for hyperedges without a disjoint
    partner: the construction still stands, but the minimal-solution
    correspondence argument leans on that property.
    """
    n, n_a = hy.n, hy.m * hy.n
    check_vertex_cap("reduction hvc-osbcd", n_a + n)
    # One run of ids per gadget: its n A-vertices share one row.
    runs = [(j * n + 1, (j + 1) * n + 1, [n_a + v for v in e])
            for j, e in enumerate(hy.hyperedges)]
    groups = [(f"e{j}", lo, hi - 1) for j, (lo, hi, _) in enumerate(runs, start=1)]
    groups.append(("V", n_a + 1, n_a + n))
    graph = BipartiteGraph._from_rows(n_a, n, hy.t, {}, runs)
    warnings = tuple(f"hyperedge {j + 1} has no disjoint counterpart"
                     for j in _without_disjoint_partner(hy.hyperedges))
    return graph, ReductionMap("hvc-osbcd", tuple(groups), warnings=warnings)


def to_split(g: BipartiteGraph) -> tuple[SplitGraph, ReductionMap]:
    """Complete the A side into a clique; ids, weights and t carry over."""
    split = SplitGraph._from_checked(g.n_a, g.n_b, g.t, g.weights, g.adj, g.touched)
    rmap = ReductionMap(
        kind="osbcd-split",
        groups=(("clique", 1, g.n_a), ("independent", g.n_a + 1, g.n_vertices)),
    )
    return split, rmap


def to_bipartite(h: SplitGraph) -> tuple[BipartiteGraph, ReductionMap]:
    """Drop the implicit clique edges, keeping the cross-edge shadow.

    Flags the case where the split graph has a claw while its shadow
    does not: such a claw uses a clique vertex as a leaf and the two
    instances genuinely disagree on feasibility.
    """
    shadow = cross_edge_shadow(h)
    warnings = ()
    if find_claw(shadow) is None and find_claw_split(h) is not None:
        warnings = (
            "split graph has a claw with a clique-vertex leaf; "
            "the bipartite shadow is claw free",
        )
    rmap = ReductionMap(
        kind="split-osbcd",
        groups=(("A", 1, h.n_clique), ("B", h.n_clique + 1, h.n_vertices)),
        warnings=warnings,
    )
    return shadow, rmap


def from_regular_graph_cover(g: Hypergraph) -> tuple[BipartiteGraph, ReductionMap]:
    """Vertex cover on a t-regular graph to a dense bipartite instance.

    The input is a simple graph given as a 2-uniform hypergraph whose
    common degree t becomes the claw parameter. The construction makes
    2n copies of the edge set on the A side, floor(t/2) - 1 extra copies
    of the vertex set on the B side, and a pad group P of t - 2 (t even)
    or t - 1 (t odd) vertices adjacent to every A-vertex, so every
    A-vertex has degree exactly 2(t - 1). `offset` records |P|. A
    warning flags a minimum vertex cover no larger than |P|, or the
    oracle's refusal to find one.
    """
    if g.t != 2:
        raise ValueError(f"expected a 2-uniform hypergraph, got uniformity {g.t}")
    values = set(vertex_degrees(g).values())
    if len(values) != 1:
        raise ValueError(f"input graph is not regular: degrees {sorted(values)}")
    t = values.pop()
    if t < 3:
        raise ValueError(f"need a t-regular input with t >= 3, got t = {t}")
    n, m = g.n, g.m
    x = t // 2 - 1
    pad = t - 2 if t % 2 == 0 else t - 1
    n_a = 2 * n * m
    n_b = (x + 1) * n + pad
    check_vertex_cap("reduction vc-dense", n_a + n_b)
    pad_lo = n_a + (x + 1) * n + 1

    # The A-vertex of edge k has the same row in each of the 2n blocks: both
    # ends in each copy of V, then the pad group.
    pads = list(range(pad_lo, pad_lo + pad))
    edge_rows = [tuple(sorted([n_a + c * n + w for c in range(x + 1) for w in e] + pads))
                 for e in g.hyperedges]
    runs = ((a, a + 1, row) for a, row in enumerate(edge_rows * (2 * n), start=1))
    groups = [("E", 1, m), *((f"E{j}", j * m + 1, (j + 1) * m) for j in range(1, 2 * n)),
              ("V", n_a + 1, n_a + n),
              *((f"V{c}", n_a + c * n + 1, n_a + (c + 1) * n) for c in range(1, x + 1)),
              ("P", pad_lo, pad_lo + pad - 1)]

    warnings: list[str] = []
    try:
        if (vc := oracle.exact_min_vc_graph(g)[1]) <= pad:
            warnings.append(f"minimum vertex cover {vc} is not larger than the pad size {pad}")
    except oracle.OracleLimitError:
        warnings.append("vertex-cover-versus-pad-size check skipped: input too large")
    rmap = ReductionMap("vc-dense", tuple(groups), pad, tuple(warnings))
    return BipartiteGraph._from_rows(n_a, n_b, t, {}, runs), rmap


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def map_solution(rmap: ReductionMap, direction: str, solution: Iterable[int]) -> tuple[int, ...]:
    """Carry a solution across a reduction.

    `forward` maps a source-instance solution to the constructed
    instance; `backward` expects the canonical shape the construction
    guarantees for minimal solutions (preserved vertices only, plus the
    whole pad group for the dense construction) and refuses anything
    else rather than repairing it.
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")
    ids = sorted(set(solution))

    if rmap.kind in ("osbcd-split", "split-osbcd"):
        return tuple(ids)

    if rmap.kind not in ("hvc-osbcd", "vc-dense"):
        raise ValueError(f"unknown reduction kind {rmap.kind!r}")
    # Shift the preserved group V; the pad group P (none for hvc-osbcd) is added or required.
    v_lo, v_hi = rmap.group("V")
    shift = v_lo - 1
    pad_ids = {v for name, lo, hi in rmap.groups if name == "P" for v in range(lo, hi + 1)}
    if direction == "forward":
        _require(
            all(1 <= v <= v_hi - shift for v in ids),
            "forward solution must be a set of source vertices",
        )
        return tuple(sorted({v + shift for v in ids} | pad_ids))
    chosen = set(ids)
    _require(pad_ids <= chosen, "non-canonical solution: pad group not fully contained")
    rest = chosen - pad_ids
    _require(
        all(v_lo <= v <= v_hi for v in rest),
        "non-canonical solution: vertices outside the preserved group",
    )
    return tuple(sorted(v - shift for v in rest))

