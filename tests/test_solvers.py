import math
import random
import tracemalloc
from fractions import Fraction

import pytest

import reference_solvers as ref
from clawdel import (
    BipartiteGraph,
    GenSpec,
    PolymatroidContext,
    ShadowMismatchError,
    SplitGraph,
    dual_rank,
    enumerate_minimal_deletion_sets,
    exact_min_deletion_set,
    exact_solve,
    generate,
    incidence_dual_ranks,
    incident_edges,
    is_feasible,
    is_minimal,
    local_ratio_solve,
    max_subgraph_solve,
    primal_dual_solve,
    solve,
    solvers,
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


# Centre 1 has B-neighbours 4, 6, 7 and centre 2 has 3, 4, 5, so B-vertex 4
# starts at coefficient 4 and every other vertex at 2. Centre 1 (weight 1)
# is tight first, at 1/2. That takes vertex 4 (weight w, paid 2 by then)
# down to coefficient 2 and leaves its heap key w / 4 stale: its level is
# now (w - 1) / 2, while 3 and 5 stay at half their weights.
@pytest.mark.parametrize("weights, steps", [
    # 4 refreshes to 3/2 and ties 3 (lower id, current key) and 5 (higher id)
    ({3: 3, 4: 4, 5: 3}, [(Fraction(1, 2), 1), (1, 3)]),
    # the same tie without 3: the stale vertex 4 beats 5
    ({3: 4, 4: 4, 5: 3}, [(Fraction(1, 2), 1), (1, 4)]),
    # 4 ties 1 at 1/2 and loses to it; its stale key is then still its level
    ({3: 4, 4: 2, 5: 4}, [(Fraction(1, 2), 1), (0, 4)]),
])
def test_primal_dual_ties_on_a_stale_key_go_to_the_lowest_id(weights, steps):
    edges = frozenset({(1, 4), (1, 6), (1, 7), (2, 3), (2, 4), (2, 5)})
    g = BipartiteGraph(2, 5, edges, 3, {1: 1, 2: 4, 6: 4, 7: 4, **weights})
    report, trace = primal_dual_solve(g)
    expected, expected_steps = ref.primal_dual_solve(g)
    assert [(s.amount, s.selected) for s in trace] == expected_steps == steps
    assert report == expected


HUGE = 10**400
TINY = Fraction(1, 10**400)
E17 = 10**17


# K_{2,4} at t = 3: every vertex starts at coefficient 4. The B-vertex tight
# first takes both centres down to coefficient 2 (their keys go stale) and
# leaves them centres of degree 3, so a second B-vertex ends the run.
@pytest.mark.parametrize("weights, steps", [
    # every level is near HUGE / 4: all prefixes overflow to inf
    ({1: HUGE + 3, 2: HUGE + 2, 3: HUGE + 1, 4: HUGE, 5: HUGE + 5, 6: HUGE + 4},
     [(Fraction(HUGE, 4), 4), (Fraction(1, 4), 3)]),
    # levels near TINY: both prefixes underflow to 0.0; the higher id is lower
    ({3: 2 * TINY, 4: TINY}, [(TINY / 4, 4), (TINY / 4, 3)]),
    # (E17 + 1) / 4 and E17 / 4 round to one float: only the exact level decides
    ({1: 10 * E17, 2: 10 * E17, 3: E17 + 1, 4: E17, 5: 10 * E17, 6: 10 * E17},
     [(Fraction(E17, 4), 4), (Fraction(1, 4), 3)]),
    # equal levels: the lower id wins, and the other is tight at a zero raise
    ({1: 10 * E17, 2: 10 * E17, 3: E17, 4: E17, 5: 10 * E17, 6: 10 * E17},
     [(Fraction(E17, 4), 3), (0, 4)]),
])
def test_primal_dual_keys_beyond_float_precision(weights, steps):
    edges = frozenset((a, b) for a in (1, 2) for b in (3, 4, 5, 6))
    g = BipartiteGraph(2, 4, edges, 3, weights)
    report, trace = primal_dual_solve(g)
    expected, expected_steps = ref.primal_dual_solve(g)
    assert [(s.amount, s.selected) for s in trace] == expected_steps == steps
    assert report == expected


def test_heap_key_prefix_is_monotone_at_the_float_limits():
    with pytest.raises(OverflowError):
        float(Fraction(HUGE, 4))
    assert solvers._key(Fraction(HUGE, 4), 4) == (math.inf, 1, Fraction(HUGE, 4), 4)
    assert solvers._key(TINY, 4)[0] == 0.0 < solvers._key(Fraction(1, 2**1074), 4)[0]
    below, above = solvers._key(Fraction(E17, 4), 4), solvers._key(Fraction(E17 + 1, 4), 3)
    assert below[0] == above[0] and below < above


def _floor_cases():
    """(w, low, c): float-limit weights, near ties, and negative partial offsets."""
    rng = random.Random(3)
    weights = [Fraction(HUGE), Fraction(HUGE, 3), TINY, Fraction(E17), Fraction(E17 + 1),
               Fraction(0), Fraction(9), Fraction(2**53 + 1), Fraction(1, 3), Fraction(E17, 7)]
    weights += [Fraction(rng.randint(0, 10**30), rng.randint(1, 10**30)) for _ in range(40)]
    for w in weights:
        wf = w.numerator / w.denominator if w < HUGE // 4 else 0.0
        # offsets from 0 down to about -w, where w + offset nearly cancels
        lows = [0.0, -0.0, -wf, math.nextafter(-wf, -math.inf), math.nextafter(-wf, math.inf),
                -wf / 3, -wf * (1 - 2**-40), -1e-300, -math.inf]
        lows += [-wf * rng.random() for _ in range(8)]
        for low in lows:
            for c in (2, 4, 6, 98, 2 * 140):
                yield w, low, c


def test_float_lower_bound_is_at_most_the_exact_level():
    """`_floor_level(w, low, c)` <= (w + low) / c, the least level any offset >= low gives."""
    for w, low, c in _floor_cases():
        lb = solvers._floor_level(w, low, c)
        if low == -math.inf or w >= HUGE // 4:
            assert lb == -math.inf
            continue
        level = (w + Fraction(low)) / c
        assert lb <= level
        # and a lower key never sorts after the exact key of the same level
        assert (lb, 0, 4) < solvers._key(level, 4)
    # one float step down per rounding: E17 / 4 is three floats above its bound
    lb = solvers._floor_level(Fraction(E17), 0.0, 4)
    for _ in range(3):
        assert lb < Fraction(E17, 4)
        lb = math.nextafter(lb, math.inf)
    assert lb == Fraction(E17, 4)
    assert solvers._floor_level(TINY, 0.0, 4) <= TINY / 4
    assert solvers._floor_level(Fraction(HUGE), 0.0, 4) == -math.inf


# Float upper bounds of 2 * raised at six raises: subtracting them one by one
# from 0.0 in floats rounds toward zero, by close to half a step, every time.
FALL_UPS = ("0x1.20b269f767c46p+0", "0x1.41be17b92379fp+0", "0x1.7d2151a321f05p+0",
            "0x1.91fce0cd23c02p+0", "0x1.b30ff40535d6ap+0", "0x1.d4cc1dcbd0ec4p+0")


def _rounds_to(x: float, side: int) -> Fraction:
    """A value just under half a float step from `x`, above it (side 1) or below it (-1)."""
    half = Fraction(math.ulp(x)) / 2
    return Fraction(x) + side * (half - half / 2**19)


def test_a_fall_rounds_its_float_offset_down():
    """Two levels one float step apart, after six falls that each round toward zero.

    B-vertex 9 has the seven centres 1..7, each of degree t = 3. Centres
    1..6 become tight in turn; each takes 2 from vertex 9's coefficient
    and 2 * raised from its offset. Each 2 * raised lies just over half
    a step below its float upper bound, so every fall's float difference,
    unless it is rounded down, ends up above the exact offset, and
    together they gain more than the roundings of `_floor_level` give
    back. Vertex 9 ends at coefficient 2 and level L; centre 8, apart
    from it, has level L + 2**-121, which is the same float. Vertex 9
    must be selected first. The float nearest each 2 * raised lies below
    it by nearly half a step, so the round-down of each fall covers that
    rounding as well.
    """
    ups = [float.fromhex(h) for h in FALL_UPS]
    twice = [_rounds_to(math.nextafter(x, -math.inf), 1) for x in ups]
    top = math.nextafter(math.nextafter(float(sum(twice) + twice[-1]), math.inf), math.inf)
    w9 = _rounds_to(top, -1)
    level = (w9 - sum(twice)) / 2
    weights = {a: w for a, w in enumerate(twice, start=1)}
    weights.update({7: 2 * level + 2, 8: 2 * level + Fraction(2, 2**121), 9: w9})
    weights.update(dict.fromkeys(range(10, 27), 100))
    edges = [(a, v) for a in range(1, 8) for v in (9, 8 + 2 * a, 9 + 2 * a)]
    edges += [(8, v) for v in (24, 25, 26)]
    g = BipartiteGraph(8, 18, edges, 3, weights)

    # the instance is what the docstring says: float differences that are not
    # rounded down put vertex 9's bound above the float of centre 8's level
    assert [math.nextafter(float(w), math.inf) for w in twice] == ups
    assert all(float(w) < w for w in twice)
    low = 0.0
    for x in ups:
        low -= x
    assert solvers._floor_level(w9, low, 2) > float(weights[8] / 2) == float(level)
    report, trace = primal_dual_solve(g)
    expected, steps = ref.primal_dual_solve(g)
    assert [(s.amount, s.selected) for s in trace] == steps
    assert [s.selected for s in trace] == [1, 2, 3, 4, 5, 6, 9, 8]
    assert report == expected


@pytest.mark.parametrize("weights", [("unit",), ("uniform", 0, 9)])
def test_reports_keep_fraction_fields_on_integral_weights(weights):
    # weights are stored as ints; costs, bounds, theta and raise amounts stay Fractions
    for seed in range(6):
        g = generate(GenSpec("bip-random", 3, seed, {"na": 6, "nb": 10, "m": 30}, weights))
        for alg in ("primal-dual", "local-ratio", "exact", "max-subgraph"):
            report, trace = solve(g, alg)
            assert type(report.cost) is Fraction
            for value in (report.dual_lower_bound, report.theta):
                assert value is None or type(value) is Fraction
            assert all(type(step.amount) is Fraction for step in trace or ())


def test_primal_dual_dual_feasibility_and_tightness():
    for seed in range(80):
        g = random_bipartite(seed, na_max=5, nb_max=8, weighted=True)
        report, trace = primal_dual_solve(g)
        assert is_feasible(g, report.solution)
        assert is_minimal(g, report.solution)
        assert report.cost >= report.dual_lower_bound >= 0
        paid = {v: Fraction(0) for v in g.vertices}
        picks = [step.selected for step in trace]
        selected = set(picks)
        assert len(selected) == len(picks)
        for k, step in enumerate(trace):
            active = frozenset(g.vertices) - set(picks[:k])
            coeff = incidence_dual_ranks(PolymatroidContext(g, active))
            for v in active:
                paid[v] += step.amount * coeff[v]
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
    # dual_rank(E) = 0 makes every numerator term 0 too, so theta is 0
    g = BipartiteGraph(1, 2, frozenset({(1, 2), (1, 3)}), 3)
    for solution in ((), {2}, {1, 2, 3}):
        assert theta_of_solution(g, solution) == 0
    with pytest.raises(ValueError, match="out of range"):
        theta_of_solution(g, {4})


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


def test_split_max_subgraph_keeps_a_claw_free_set():
    """When the shadow solution S leaves a split claw, V minus S is dropped, not raised on."""
    mismatches = 0
    for seed in range(40):
        sizes = {"nc": 6, "ni": 12, "m": 30}
        h = generate(GenSpec("split-random", 3, seed, sizes, ("uniform", 1, 9)))
        report, _ = solve(h, "max-subgraph")
        kept = set(report.solution)
        assert is_feasible(h, [v for v in h.vertices if v not in kept])
        assert report.cost == h.total_weight(kept)
        try:
            solve(h, "primal-dual")
        except ShadowMismatchError:
            mismatches += 1
            assert report.solution == tuple(max(h.sides, key=h.total_weight))
    assert mismatches >= 30
    tie = SplitGraph(2, 2, frozenset({(1, 3), (1, 4)}), 3)
    assert max_subgraph_solve(tie) == ((1, 2), 2)  # equal sides: the clique side wins


def _max_subgraph_by_listing(g):
    """Every candidate listed as ids, then weighed: V minus S, then each side."""
    candidates = [list(side) for side in g.sides]
    try:
        deleted = set(solve(g, "primal-dual")[0].solution)
    except ShadowMismatchError:
        pass
    else:
        candidates.insert(0, [v for v in g.vertices if v not in deleted])
    pick = max(candidates, key=g.total_weight)
    return tuple(pick), g.total_weight(pick)


def test_max_subgraph_equals_weighing_listed_candidates():
    sizes = {"bip-random": {"na": 6, "nb": 10, "m": 25}, "bip-dense": {"na": 5, "nb": 8},
             "split-random": {"nc": 5, "ni": 9, "m": 18}}
    for seed in range(60):
        family = list(sizes)[seed % 3]
        mode = ("unit",) if seed % 2 else ("uniform", 0, 4)
        g = generate(GenSpec(family, 3 + seed % 2, seed, sizes[family], mode))
        assert max_subgraph_solve(g) == _max_subgraph_by_listing(g)


def test_max_subgraph_lists_only_the_winner():
    g = SplitGraph(100_000, 100_000, frozenset(), 3)
    tracemalloc.start()
    try:
        kept, weight = max_subgraph_solve(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kept == tuple(g.vertices) and weight == 200_000
    # the winner alone is ~7 MB; listing every candidate took ~19 MB
    assert peak < 12_000_000
