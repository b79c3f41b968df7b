"""Seeded random instance generators.

Every family is a pure function of (spec, seed): the generator draws
from a Mersenne Twister (the stdlib `random.Random`) in a fixed order,
structure first, then weights in vertex id order, so identical specs
serialize to identical bytes. Rejection-sampled families retry up to
RETRY_CAP times before giving up.

`FAMILIES` is the one table of families: each maps to its size keys,
in the order the `gen` command takes them, and to its builder.
`bip-random` and `split-random` share one sampler, `_two_sided_random`,
which draws m of the n1*n2 cross pairs of either graph class. The
two-sided families build through `_from_rows`, the others through
`Hypergraph._from_checked`: each sampler draws only in-range, distinct,
sorted edges, so no edge is checked again; only t is. A spec of more
vertices than `formats.MAX_VERTICES`, whose file every command would
refuse, is refused before anything is drawn.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from itertools import groupby
from math import comb
from typing import Mapping

from .formats import check_vertex_cap
from .graphs import (BipartiteGraph, Hypergraph, SplitGraph, _without_disjoint_partner,
                     check_claw_parameter)

RETRY_CAP = 10_000


@dataclass(frozen=True)
class GenSpec:
    """What to generate.

    `sizes` holds the counts whose keys `FAMILIES[family]` names. For
    regular-graph, `t` is the degree of every vertex; elsewhere it is
    the claw parameter. `weight_mode` is ("unit",) or ("uniform", lo,
    hi) for integer weights drawn uniformly per vertex.
    """

    family: str
    t: int
    seed: int
    sizes: Mapping[str, int]
    weight_mode: tuple = ("unit",)

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        object.__setattr__(self, "sizes", dict(self.sizes))
        mode = self.weight_mode
        uniform = mode[0] == "uniform" and len(mode) == 3 and 0 <= mode[1] <= mode[2]
        if mode[0] != "unit" and not uniform:
            raise ValueError(f"bad weight mode {mode!r}")

    def size(self, key: str) -> int:
        try:
            value = self.sizes[key]
        except KeyError:
            raise ValueError(f"family {self.family!r} needs size {key!r}") from None
        if value < 0:
            raise ValueError(f"size {key!r} must be nonnegative")
        return value


def provenance(spec: GenSpec) -> str:
    """Header comment recording exactly how an instance was produced."""
    sizes = " ".join(f"{k}={spec.sizes[k]}" for k in sorted(spec.sizes))
    mode = spec.weight_mode
    weights = "unit" if mode[0] == "unit" else f"uniform:{mode[1]}:{mode[2]}"
    return (
        f"gen {spec.family} seed={spec.seed} t={spec.t} {sizes} "
        f"weights={weights} rng=mersenne-twister"
    )


def _draw_weights(rng: random.Random, spec: GenSpec, n_total: int) -> dict[int, int]:
    """One draw per vertex, in id order; only non-unit weights are kept, as a graph stores them."""
    if spec.weight_mode[0] == "unit":
        return {}
    _, lo, hi = spec.weight_mode
    return {v: w for v in range(1, n_total + 1) if (w := rng.randint(lo, hi)) != 1}


def _two_sided_random(
    cls: type, noun: str, rng: random.Random, spec: GenSpec, n1: int, n2: int, m: int
) -> BipartiteGraph | SplitGraph:
    """m of the n1*n2 pairs between the two sides of a `cls` graph, drawn uniformly.

    Pair (u, n1 + v) has index (u - 1) * n2 + (v - 1), and the indices
    are drawn without listing the pairs. Sorted, they come in (u, v)
    order, so each u's row is one group of consecutive indices.
    """
    if m > n1 * n2:
        kind = cls.__name__.removesuffix("Graph").lower()
        raise ValueError(f"cannot place {m} {noun} in a {n1}x{n2} {kind} graph")
    picks = rng.sample(range(n1 * n2), m)
    picks.sort()
    weights = _draw_weights(rng, spec, n1 + n2)
    second = range(n1 + 1, n1 + n2 + 1)
    if n2 <= m:  # one int object per id, shared by all its edges
        second = list(second)
    runs = ((q + 1, q + 2, [second[i % n2] for i in row])
            for q, row in groupby(picks, lambda i: i // n2))
    return cls._from_rows(n1, n2, spec.t, weights, runs)


def _bip_dense(rng: random.Random, spec: GenSpec, na: int, nb: int) -> BipartiteGraph:
    dmin = 2 * (spec.t - 1)
    if nb < dmin:
        raise ValueError(f"dense family needs nb >= 2(t-1) = {dmin}, got {nb}")
    check_claw_parameter(spec.t)  # before a negative dmin reaches randint
    b_ids = list(range(na + 1, na + nb + 1))
    rows = [rng.sample(b_ids, rng.randint(dmin, nb)) for _ in range(na)]
    weights = _draw_weights(rng, spec, na + nb)
    runs = ((a, a + 1, row) for a, row in enumerate(rows, start=1))
    return BipartiteGraph._from_rows(na, nb, spec.t, weights, runs)


def _hyp_uniform(rng: random.Random, spec: GenSpec, n: int, m: int) -> Hypergraph:
    t = spec.t
    if n < 2 * t or m < 2:
        raise ValueError("disjoint-counterpart property needs n >= 2t and m >= 2 "
                         f"(got n={n}, m={m}, t={t})")
    if t < 2:
        raise ValueError(f"uniformity must be >= 2, got {t}")
    # C(n, k) rises with k up to n/2 >= t, so this is m > C(n, t) without computing it
    if all(comb(n, k) < m for k in range(t + 1)):
        raise ValueError(f"cannot place {m} hyperedges in a {t}-uniform hypergraph on {n} vertices")
    if n == 2 * t and m % 2:  # a t-set's only disjoint partner is then its complement
        raise ValueError(f"at n = 2t each hyperedge needs its complement: m must be even, got {m}")
    population = list(range(1, n + 1))
    for _ in range(RETRY_CAP):  # a try is retried only for the disjoint-partner property
        drawn: dict[tuple[int, ...], None] = {}  # a set that keeps the draw order
        while len(drawn) < m:  # ends, as m <= C(n, t) was checked above
            drawn[tuple(sorted(rng.sample(population, t)))] = None
        hyperedges = tuple(drawn)
        if next(_without_disjoint_partner(hyperedges), None) is None:
            return Hypergraph._from_checked(n, t, hyperedges)
    raise ValueError("retry budget exhausted while sampling a uniform hypergraph")


def _regular_graph(rng: random.Random, spec: GenSpec, n: int) -> Hypergraph:
    deg = spec.t
    if deg < 1 or n <= deg:
        raise ValueError(f"no simple {deg}-regular graph on {n} vertices")
    if (n * deg) % 2 != 0:
        raise ValueError(f"no {deg}-regular graph on {n} vertices: odd n*t")
    for _ in range(RETRY_CAP):
        stubs = [v for v in range(1, n + 1) for _ in range(deg)]
        rng.shuffle(stubs)
        pairs = list(zip(stubs[::2], stubs[1::2]))
        edges = {tuple(sorted(p)) for p in pairs}
        if len(edges) == len(pairs) and all(u != v for u, v in pairs):
            return Hypergraph._from_checked(n, 2, tuple(sorted(edges)))
    raise ValueError("retry budget exhausted while pairing a regular graph")


# Each family: its size keys, in order, and its builder, which gets them positionally.
FAMILIES = {
    "bip-random": (("na", "nb", "m"), partial(_two_sided_random, BipartiteGraph, "edges")),
    "bip-dense": (("na", "nb"), _bip_dense),
    "hyp-uniform": (("n", "m"), _hyp_uniform),
    "regular-graph": (("n",), _regular_graph),
    "split-random": (("nc", "ni", "m"), partial(_two_sided_random, SplitGraph, "cross edges")),
}


def generate(spec: GenSpec) -> BipartiteGraph | SplitGraph | Hypergraph:
    """Generate the instance described by `spec`, deterministically."""
    keys, build = FAMILIES[spec.family]
    sizes = [spec.size(key) for key in keys]
    check_vertex_cap(f"family {spec.family}", sum(s for k, s in zip(keys, sizes) if k != "m"))
    return build(random.Random(spec.seed), spec, *sizes)
