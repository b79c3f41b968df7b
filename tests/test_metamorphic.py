"""Metamorphic relations: answers that must agree across runs of the solvers.

A single run certifies only itself (feasible, minimal, LB <= cost). These
tests run a solver on an instance and on a transformed copy whose answer
is known from the first, so a wrong answer that certifies itself shows
as a disagreement between the two.
"""

import random

import pytest

from clawdel import BipartiteGraph, GenSpec, exact_min_deletion_set, generate
from clawdel.oracle import OracleLimitError


def _relabelled(g, rng):
    """`g` with its A ids permuted among themselves, and its B ids too."""
    a_ids, b_ids = list(range(1, g.n_a + 1)), list(range(g.n_a + 1, g.n_vertices + 1))
    rng.shuffle(a_ids)
    rng.shuffle(b_ids)
    new = dict(zip(range(1, g.n_vertices + 1), a_ids + b_ids))
    return BipartiteGraph(g.n_a, g.n_b, [(new[u], new[v]) for u, v in g.edges], g.t,
                          {new[v]: w for v, w in g.weights.items()})


def _certified_cost(g):
    try:
        return exact_min_deletion_set(g)[1]
    except OracleLimitError:
        return None


@pytest.mark.parametrize("weights", [("unit",), ("uniform", 1, 9)])
def test_relabelling_each_side_keeps_the_exact_optimum(weights):
    certified = 0
    for seed in range(30):
        g = generate(GenSpec("bip-random", 3, seed, {"na": 9, "nb": 16, "m": 55}, weights))
        relabelled = _relabelled(g, random.Random(seed))
        assert relabelled != g and len(relabelled.edges) == len(g.edges)
        costs = _certified_cost(g), _certified_cost(relabelled)
        if None not in costs:
            certified += 1
            assert costs[0] == costs[1]
    assert certified >= 20  # of 30: enough pairs for the relation to be tested
