import random
from collections import Counter
from itertools import combinations

import pytest

from clawdel import BipartiteGraph, Hypergraph, SplitGraph, graphs, oracle


@pytest.fixture
def g1():
    """Star: A = {1}, B = {2..5}, four edges, t = 3."""
    return BipartiteGraph(1, 4, frozenset({(1, 2), (1, 3), (1, 4), (1, 5)}), 3)


@pytest.fixture
def g2():
    """Complete bipartite 2x3: A = {1, 2}, B = {3, 4, 5}, t = 3."""
    return BipartiteGraph(2, 3, frozenset((a, b) for a in (1, 2) for b in (3, 4, 5)), 3)


@pytest.fixture
def h2():
    """Split graph: clique {1, 2}, independents {3, 4, 5}, all six cross edges."""
    return SplitGraph(2, 3, frozenset((c, i) for c in (1, 2) for i in (3, 4, 5)), 3)


@pytest.fixture
def hy1():
    """Two disjoint 3-edges on six vertices."""
    return Hypergraph(6, 3, ((1, 2, 3), (4, 5, 6)))


# Generator sizes with isolated vertices on both sides of the two-sided families.
FAMILY_SIZES = {
    "bip-random": {"na": 12, "nb": 30, "m": 40},
    "bip-dense": {"na": 6, "nb": 12},
    "hyp-uniform": {"n": 12, "m": 10},
    "regular-graph": {"n": 10},
    "split-random": {"nc": 8, "ni": 20, "m": 30},
}


def random_bipartite(seed, na_max=4, nb_max=8, t_choices=(3, 4), weighted=False):
    rng = random.Random(seed)
    t = rng.choice(list(t_choices))
    na = rng.randint(1, na_max)
    nb = rng.randint(1, nb_max)
    pairs = [(a, na + b) for a in range(1, na + 1) for b in range(1, nb + 1)]
    edges = frozenset(rng.sample(pairs, rng.randint(0, len(pairs))))
    weights = {}
    if weighted and rng.random() < 0.5:
        weights = {v: rng.randint(1, 5) for v in range(1, na + nb + 1)}
    return BipartiteGraph(na, nb, edges, t, weights)


def random_split(seed, nc_max=4, ni_max=6, t_choices=(3, 4)):
    rng = random.Random(seed)
    t = rng.choice(list(t_choices))
    nc = rng.randint(1, nc_max)
    ni = rng.randint(1, ni_max)
    pairs = [(c, nc + i) for c in range(1, nc + 1) for i in range(1, ni + 1)]
    edges = frozenset(rng.sample(pairs, rng.randint(0, len(pairs))))
    return SplitGraph(nc, ni, edges, t)


def split_adjacent(h, u, v):
    if u <= h.n_clique and v <= h.n_clique:
        return True
    if u > h.n_clique and v > h.n_clique:
        return False
    return v in h.adj[u]


def brute_force_split_claw(h, removed=()):
    """Exhaustive induced-claw search over all centers and all leaf subsets.

    Independent of find_claw_split: considers every surviving vertex as
    a center (either side) and every t-subset of its neighbors.
    """
    gone = set(removed)
    for center in h.vertices:
        if center in gone:
            continue
        if center <= h.n_clique:
            nbrs = [
                v for v in h.vertices
                if v != center and v not in gone
                and (v <= h.n_clique or v in h.adj[center])
            ]
        else:
            nbrs = [v for v in h.adj[center] if v not in gone]
        for leaves in combinations(sorted(nbrs), h.t):
            if all(not split_adjacent(h, u, v) for u, v in combinations(leaves, 2)):
                return center, leaves
    return None


def count_validations(monkeypatch):
    """A Counter of `__post_init__` runs by graph class, from now until the test ends."""
    runs = Counter()
    for cls in (graphs._TwoSided, Hypergraph):
        def counting(self, *args, _original=cls.__post_init__):
            runs[type(self).__name__] += 1
            _original(self, *args)
        monkeypatch.setattr(cls, "__post_init__", counting)
    return runs


def spy_on_search(monkeypatch):
    """Every oracle branch and bound from now until the test ends, in order.

    Each is a pair: its arguments after the conflict callable (weight_of,
    incumbent, incumbent_cost, lower), and a list of the nodes whose
    conflict it asked for, each a (chosen set, conflict's answer) pair.
    """
    searches = []
    search = oracle._branch_and_bound

    def spy(conflict, *args):
        nodes = []
        searches.append((args, nodes))

        def counting(chosen):
            verts = conflict(chosen)
            nodes.append((frozenset(chosen), verts))
            return verts

        return search(counting, *args)

    monkeypatch.setattr(oracle, "_branch_and_bound", spy)
    return searches
