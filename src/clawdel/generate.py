"""Seeded random instance generators.

Every family is a pure function of (spec, seed): the generator draws
from a Mersenne Twister (the stdlib `random.Random`) in a fixed order,
structure first, then weights in vertex id order, so identical specs
serialize to identical bytes. Rejection-sampled families retry up to
RETRY_CAP times before giving up.

`FAMILIES` is the one table of families: each maps to its size keys,
in the order the `gen` command takes them, and to its builder.
`bip-random` and `split-random` share one sampler, `_two_sided_random`,
which draws m of the n1*n2 cross pairs of either graph class.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Mapping

from .graphs import BipartiteGraph, Edge, Hypergraph, SplitGraph

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


def _draw_weights(rng: random.Random, spec: GenSpec, n_total: int) -> dict[int, Fraction]:
    if spec.weight_mode[0] == "unit":
        return {}
    _, lo, hi = spec.weight_mode
    return {v: Fraction(rng.randint(lo, hi)) for v in range(1, n_total + 1)}


def _two_sided_random(
    cls: type, noun: str, rng: random.Random, spec: GenSpec, n1: int, n2: int, m: int
) -> BipartiteGraph | SplitGraph:
    """m of the n1*n2 pairs between the two sides of a `cls` graph, drawn uniformly.

    Pair (u, n1 + v) has index (u - 1) * n2 + (v - 1), and the indices
    are drawn without listing the pairs.
    """
    if m > n1 * n2:
        kind = cls.__name__.removesuffix("Graph").lower()
        raise ValueError(f"cannot place {m} {noun} in a {n1}x{n2} {kind} graph")
    edges = frozenset((i // n2 + 1, n1 + i % n2 + 1) for i in rng.sample(range(n1 * n2), m))
    return cls(n1, n2, edges, spec.t, _draw_weights(rng, spec, n1 + n2))


def _bip_dense(rng: random.Random, spec: GenSpec, na: int, nb: int) -> BipartiteGraph:
    dmin = 2 * (spec.t - 1)
    if nb < dmin:
        raise ValueError(f"dense family needs nb >= 2(t-1) = {dmin}, got {nb}")
    edges: set[Edge] = set()
    b_ids = list(range(na + 1, na + nb + 1))
    for a in range(1, na + 1):
        deg = rng.randint(dmin, nb)
        edges.update((a, b) for b in rng.sample(b_ids, deg))
    return BipartiteGraph(na, nb, frozenset(edges), spec.t, _draw_weights(rng, spec, na + nb))


def _hyp_uniform(rng: random.Random, spec: GenSpec, n: int, m: int) -> Hypergraph:
    t = spec.t
    if n < 2 * t or m < 2:
        raise ValueError(
            "disjoint-counterpart property needs n >= 2t and m >= 2 "
            f"(got n={n}, m={m}, t={t})"
        )
    population = list(range(1, n + 1))
    for _ in range(RETRY_CAP):
        seen: set[frozenset[int]] = set()
        hyperedges: list[tuple[int, ...]] = []
        attempts = 0
        while len(hyperedges) < m and attempts < RETRY_CAP:
            attempts += 1
            e = tuple(sorted(rng.sample(population, t)))
            if frozenset(e) in seen:
                continue
            seen.add(frozenset(e))
            hyperedges.append(e)
        if len(hyperedges) < m:
            continue
        if all(
            any(set(e).isdisjoint(f) for f in hyperedges if f is not e)
            for e in hyperedges
        ):
            return Hypergraph(n, t, tuple(hyperedges))
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
            return Hypergraph(n, 2, tuple(sorted(edges)))
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
    return build(random.Random(spec.seed), spec, *sizes)
