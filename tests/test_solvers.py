import random
from fractions import Fraction

import pytest

from clawdel import (
    BipartiteGraph,
    PolymatroidContext,
    ShadowMismatchError,
    SplitGraph,
    dual_rank,
    enumerate_minimal_deletion_sets,
    exact_min_deletion_set,
    exact_solve,
    incidence_dual_ranks,
    incident_edges,
    is_feasible,
    is_minimal,
    local_ratio_solve,
    max_subgraph_solve,
    primal_dual_solve,
    solve,
    theta_of_solution,
    to_split,
)
from conftest import random_bipartite


def test_primal_dual_star(g1):
    report, trace = primal_dual_solve(g1)
    assert report.solution == (1,)
    assert report.cost == 1
    assert report.dual_lower_bound == 1
    assert report.theta == 1
    assert report.iterations == 1
    assert trace[0].amount == Fraction(1, 4)
    assert trace[0].selected == 1
    assert trace[0].active == tuple(g1.vertices)


def test_primal_dual_complete_2x3(g2):
    report, _ = primal_dual_solve(g2)
    assert report.solution == (3,)
    assert report.cost == 1
    _, opt = exact_min_deletion_set(g2)
    assert opt == 1


def test_primal_dual_claw_free_graph():
    g = BipartiteGraph(2, 3, frozenset({(1, 3), (1, 4), (2, 4)}), 3)
    report, trace = primal_dual_solve(g)
    assert report.solution == ()
    assert report.cost == 0
    assert report.dual_lower_bound == 0
    assert report.theta == 0
    assert trace == []


def test_primal_dual_zero_weight_tight_at_zero(g1):
    g = BipartiteGraph(1, 4, g1.edges, 3, {3: 0})
    report, trace = primal_dual_solve(g)
    assert trace[0].amount == 0
    assert trace[0].selected == 3
    assert report.cost == g.total_weight(report.solution)


def test_primal_dual_dual_feasibility_and_tightness():
    for seed in range(80):
        g = random_bipartite(seed, na_max=5, nb_max=8, weighted=True)
        report, trace = primal_dual_solve(g)
        assert is_feasible(g, report.solution)
        assert is_minimal(g, report.solution)
        assert report.cost >= report.dual_lower_bound >= 0
        paid = {v: Fraction(0) for v in g.vertices}
        selected = set()
        previous = None
        for step in trace:
            if previous is not None:
                assert set(step.active) < set(previous)
            previous = step.active
            coeff = incidence_dual_ranks(PolymatroidContext(g, frozenset(step.active)))
            for v in step.active:
                paid[v] += step.amount * coeff[v]
            selected.add(step.selected)
        for v in g.vertices:
            assert paid[v] <= g.weight(v)
        for v in selected:
            assert paid[v] == g.weight(v)


def test_weak_duality_against_oracle():
    for seed in range(60):
        g = random_bipartite(seed, na_max=4, nb_max=6, weighted=True)
        report, _ = primal_dual_solve(g)
        _, opt = exact_min_deletion_set(g)
        assert report.dual_lower_bound <= opt <= report.cost


def test_theta_examples(g1, g2):
    assert theta_of_solution(g1, {1}) == 1
    assert theta_of_solution(g1, {2, 3}) == 1
    assert theta_of_solution(g2, {3}) == 1


def test_theta_claw_free_cases():
    g = BipartiteGraph(1, 2, frozenset({(1, 2), (1, 3)}), 3)
    assert theta_of_solution(g, ()) == 0
    with pytest.raises(ValueError):
        theta_of_solution(g, {2})


def test_cost_bounded_by_max_theta_times_optimum():
    for seed in range(120):
        g = random_bipartite(seed, na_max=4, nb_max=6, weighted=True)
        if g.n_vertices > 10:
            continue
        report, _ = primal_dual_solve(g)
        _, opt = exact_min_deletion_set(g)
        ctx = PolymatroidContext(g)
        if dual_rank(ctx, ctx.edges) == 0:
            assert report.cost == 0
            continue
        theta_max = max(
            theta_of_solution(g, s) for s in enumerate_minimal_deletion_sets(g)
        )
        assert report.cost <= theta_max * opt


def test_minimal_sets_inequality_on_dense_graphs():
    # with every A-degree >= 2(t-1), each minimal set X satisfies
    # sum(dual_rank(delta(v)) for v in X) <= 2 * dual_rank(E)
    rng = random.Random(4242)
    for _ in range(20):
        t = 3
        nb = rng.randint(4, 7)
        na = rng.randint(1, min(3, 10 - nb))
        edges = set()
        for a in range(1, na + 1):
            deg = rng.randint(2 * (t - 1), nb)
            edges.update((a, na + b) for b in rng.sample(range(1, nb + 1), deg))
        g = BipartiteGraph(na, nb, frozenset(edges), t)
        ctx = PolymatroidContext(g)
        total = dual_rank(ctx, ctx.edges)
        for x in enumerate_minimal_deletion_sets(g):
            lhs = sum(dual_rank(ctx, incident_edges(g, v)) for v in x)
            assert lhs <= 2 * total


def test_local_ratio_star(g1):
    report = local_ratio_solve(g1)
    assert report.solution == (1,)
    assert report.cost == 1
    assert report.algorithm == "local-ratio"


def test_local_ratio_weighted_star(g1):
    g = BipartiteGraph(1, 4, g1.edges, 3, {1: 10})
    report = local_ratio_solve(g)
    assert report.solution == (2, 3)
    assert report.cost == 2
    _, opt = exact_min_deletion_set(g)
    assert opt == 2
    assert report.cost <= (g.t + 1) * opt


def test_local_ratio_claw_free():
    g = BipartiteGraph(1, 2, frozenset({(1, 2), (1, 3)}), 3)
    assert local_ratio_solve(g).solution == ()


def test_local_ratio_bound_and_minimality():
    for seed in range(60):
        g = random_bipartite(seed, na_max=4, nb_max=6, weighted=True)
        report = local_ratio_solve(g)
        assert is_feasible(g, report.solution)
        assert is_minimal(g, report.solution)
        assert report.cost >= report.dual_lower_bound
        _, opt = exact_min_deletion_set(g)
        assert report.cost <= (g.t + 1) * opt


def test_max_subgraph_star(g1):
    solution, weight = max_subgraph_solve(g1)
    assert solution == (2, 3, 4, 5)
    assert weight == 4


def test_max_subgraph_claw_free_returns_everything():
    g = BipartiteGraph(1, 2, frozenset({(1, 2), (1, 3)}), 3)
    solution, weight = max_subgraph_solve(g)
    assert solution == (1, 2, 3)
    assert weight == 3


def test_max_subgraph_at_least_half_total():
    for seed in range(60):
        g = random_bipartite(seed, weighted=True)
        _, weight = max_subgraph_solve(g)
        assert 2 * weight >= g.total_weight(g.vertices)


def test_exact_solve_report(g1):
    report = exact_solve(g1)
    assert report.solution == (1,)
    assert report.cost == report.dual_lower_bound == 1
    assert report.algorithm == "exact"
    assert is_minimal(g1, report.solution)


def test_split_solve_basic(h2, g1):
    assert solve(h2, "primal-dual")[0].cost == 1
    empty = SplitGraph(1, 0, frozenset(), 3)
    assert solve(empty, "primal-dual")[0].solution == ()
    h_from_g1, _ = to_split(g1)
    assert solve(h_from_g1, "primal-dual")[0].solution == primal_dual_solve(g1)[0].solution


def test_split_solve_algorithms_agree_on_costs(h2):
    assert solve(h2, "local-ratio")[0].cost == 1
    assert solve(h2, "exact")[0].cost == 1
    with pytest.raises(ValueError):
        solve(h2, "simplex")


def test_split_solve_raises_on_shadow_mismatch():
    h = SplitGraph(2, 2, frozenset({(1, 3), (1, 4)}), 3)
    with pytest.raises(ShadowMismatchError) as err:
        solve(h, "primal-dual")
    assert err.value.witness.center == 1


def test_split_max_subgraph(h2):
    solution, weight = max_subgraph_solve(h2)
    assert weight == 4
    assert is_feasible(h2, set(h2.vertices) - set(solution))
    report, trace = solve(h2, "max-subgraph")
    assert (report.solution, report.cost) == (solution, weight)
    assert report.dual_lower_bound is None and report.theta is None and trace is None
