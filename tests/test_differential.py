"""The event-driven solvers against the per-iteration reference loops.

`reference_solvers` holds the straightforward loops that rebuild their
state on every raise, round or vertex. The solvers must reproduce them
exactly: reports, the (amount, selected) sequence of the dual trace,
reverse deletion, minimality and theta. On the same instances, the
exact oracle is checked against primal-dual's bound and against
exhaustive enumeration.
"""

import heapq
import random
from itertools import accumulate
from fractions import Fraction

import pytest

import reference_solvers as ref
from clawdel import (
    BipartiteGraph,
    GenSpec,
    OracleLimitError,
    PolymatroidContext,
    SplitGraph,
    claws,
    dual_rank,
    enumerate_minimal_deletion_sets,
    exact_min_deletion_set,
    generate,
    incident_edges,
    is_feasible,
    is_minimal,
    local_ratio_solve,
    polymatroid,
    primal_dual_solve,
    reverse_delete,
    solve,
    solvers,
    theta_of_solution,
)
from conftest import spy_on_search

WEIGHT_MODES = ("unit", "1:9", "zero", "fraction")


def random_instance(seed):
    """Bipartite instance with t in 3..5, one of four weight modes, any density."""
    rng = random.Random(seed)
    t = rng.randint(3, 5)
    na, nb = rng.randint(0, 8), rng.randint(0, 14)
    pairs = [(a, na + b) for a in range(1, na + 1) for b in range(1, nb + 1)]
    density = rng.choice((0.0, 0.2, 0.5, 0.8, 1.0))
    edges = frozenset(e for e in pairs if rng.random() < density)
    mode = WEIGHT_MODES[seed % len(WEIGHT_MODES)]
    vertices = range(1, na + nb + 1)
    if mode == "unit":
        weights = {}
    elif mode == "1:9":
        weights = {v: rng.randint(1, 9) for v in vertices}
    elif mode == "zero":
        weights = {v: rng.choice((0, 0, 1, 2, 3)) for v in vertices}
    else:
        weights = {v: Fraction(rng.randint(0, 12), rng.randint(1, 7)) for v in vertices}
    return BipartiteGraph(na, nb, edges, t, weights)


INSTANCES = [random_instance(seed) for seed in range(640)]


def test_the_suite_covers_every_kind_of_instance():
    ts = {g.t for g in INSTANCES}
    empty = [g for g in INSTANCES if g.n_vertices == 0]
    claw_free = [g for g in INSTANCES if g.n_vertices and claws.find_claw(g) is None]
    many_raises = [g for g in INSTANCES if ref.primal_dual_solve(g)[0].iterations >= 5]
    assert ts == {3, 4, 5}
    assert empty and len(claw_free) >= 20 and len(many_raises) >= 100


@pytest.mark.parametrize("chunk", range(8))
def test_primal_dual_matches_the_reference(chunk):
    for g in INSTANCES[chunk::8]:
        report, trace = primal_dual_solve(g)
        expected, steps = ref.primal_dual_solve(g)
        assert report == expected
        assert [(s.amount, s.selected) for s in trace] == steps


def mid_size_instance(family, na, seed, weights):
    """A generated instance with na A-vertices and 1:9 or fractional weights."""
    sizes = {"na": na, "nb": 2 * na} | ({"m": 8 * na} if family == "bip-random" else {})
    if weights == "1:9":
        return generate(GenSpec(family, 3, seed, sizes, ("uniform", 1, 9)))
    g = generate(GenSpec(family, 3, seed, sizes))
    rng = random.Random(seed)
    fractional = {v: Fraction(rng.randint(1, 12), rng.randint(1, 7)) for v in g.vertices}
    return BipartiteGraph(g.n_a, g.n_b, g.edges, g.t, fractional)


MID_SIZE = [
    mid_size_instance(family, na, seed, weights)
    for family in ("bip-dense", "bip-random")
    for na in (20, 30, 40)
    for weights in ("1:9", "fraction")
    for seed in (0, 1)
]


def test_mid_size_primal_dual_matches_the_reference(monkeypatch):
    """Raise amounts with 64-bit and larger denominators; keys refreshed many times."""
    refreshes = []
    heapreplace = heapq.heapreplace

    def counting(heap, item):
        refreshes[-1] += 1
        return heapreplace(heap, item)

    monkeypatch.setattr(heapq, "heapreplace", counting)
    big = []
    for g in MID_SIZE:
        refreshes.append(0)
        report, trace = primal_dual_solve(g)
        expected, steps = ref.primal_dual_solve(g)
        assert report == expected
        assert [(s.amount, s.selected) for s in trace] == steps
        bits = max(s.amount.denominator.bit_length() for s in trace)
        if len(trace) >= 30 and bits >= 64:
            big.append(g)
    assert len(big) >= 4 and max(refreshes) >= 100


E17 = 10**17
HUGE = 10**400
NEAR_TIE_MODES = ("e17", "pq", "huge", "mixed")


def near_tie_weights(mode, vertices, rng):
    """Weights whose levels mostly round to one float, or lie above the float range.

    "e17": E17 + k for small k; "pq": an integer plus k / (q * 2**62); "huge": HUGE + k,
    so every float bound overflows; "mixed": 1:9 weights with a few HUGE and E17 ones.
    """
    if mode == "e17":
        return {v: E17 + rng.randint(0, 3) for v in vertices}
    if mode == "pq":
        base = rng.randint(1, 9)
        return {v: base + Fraction(rng.randint(0, 3), rng.choice((3, 7, 11)) * 2**62)
                for v in vertices}
    if mode == "huge":
        return {v: HUGE + rng.randint(0, 3) for v in vertices}
    return {v: rng.choice((HUGE, E17, rng.randint(1, 9), rng.randint(1, 9))) for v in vertices}


def near_tie_instance(seed):
    """A small random instance, or four in 40 a generated one, the last four of the dense shape."""
    rng = random.Random(f"near-tie:{seed}")
    mode = NEAR_TIE_MODES[seed % len(NEAR_TIE_MODES)]
    if seed % 40 < 36:
        t = rng.randint(3, 4)
        na, nb = rng.randint(1, 8), rng.randint(3, 14)
        density = rng.choice((0.5, 0.8, 1.0))
        edges = frozenset((a, na + b) for a in range(1, na + 1) for b in range(1, nb + 1)
                          if rng.random() < density)
        return BipartiteGraph(na, nb, edges, t, near_tie_weights(mode, range(1, na + nb + 1), rng))
    na = (10, 20, 30, 40, 10, 20, 30, 40, 10, 20, 70)[seed // 40]
    family = "bip-dense" if seed % 80 < 40 else "bip-random"
    sizes = {"na": na, "nb": 2 * na} | ({"m": 8 * na} if family == "bip-random" else {})
    g = generate(GenSpec(family, 3, seed, sizes))
    return BipartiteGraph(g.n_a, g.n_b, g.edges, g.t, near_tie_weights(mode, g.vertices, rng))


NEAR_TIES = [near_tie_instance(seed) for seed in range(440)]


@pytest.mark.parametrize("chunk", range(4))
def test_near_tie_and_huge_weights_match_the_reference(chunk):
    """Levels that float bounds cannot order: the exact fallback decides, step for step."""
    for g in NEAR_TIES[chunk::4]:
        report, trace = primal_dual_solve(g)
        expected, steps = ref.primal_dual_solve(g)
        assert report == expected
        assert [(s.amount, s.selected) for s in trace] == steps


def test_the_near_tie_family_reaches_the_exact_fallback():
    """Raise levels that differ but round to one float, levels beyond it, dense sizes."""
    one_float = beyond = zero_raises = 0
    for g in NEAR_TIES:
        amounts = [step.amount for step in primal_dual_solve(g)[1]]
        levels = list(accumulate(amounts))
        zero_raises += 0 in amounts[1:]
        beyond += bool(levels) and levels[-1] > 2**1024
        one_float += any(lo != hi and hi < 2**1000 and float(lo) == float(hi)
                         for lo, hi in zip(levels, levels[1:]))
    assert len(NEAR_TIES) >= 400
    assert one_float >= 50 and beyond >= 50 and zero_raises >= 50
    assert max(g.n_a for g in NEAR_TIES) == 70


def test_exact_offsets_are_folded_for_few_falls(monkeypatch):
    """On the dense benchmark shape, at most 40% of coefficient falls are ever folded exactly."""
    folded = []
    fold = solvers._fold

    def counting(num, den, marks, twice):
        folded[-1] += len(marks)
        return fold(num, den, marks, twice)

    monkeypatch.setattr(solvers, "_fold", counting)
    for seed in range(5):
        g = generate(GenSpec("bip-dense", 3, seed, {"na": 70, "nb": 140}, ("uniform", 1, 9)))
        folded.append(0)
        _, trace = primal_dual_solve(g)
        # each fall takes 2 off one alive vertex's coefficient
        state = claws.DegreeState(g)
        before, falls = state.coefficients(), 0
        for step in trace:
            state.remove(step.selected)
            after = state.coefficients()
            falls += sum(b - a for b, a, alive in zip(before, after, state.alive) if alive) // 2
            before = after
        assert falls >= 4000 and 0 < folded[-1] <= 0.4 * falls


@pytest.mark.parametrize("chunk", range(8))
def test_local_ratio_matches_the_reference(chunk):
    for g in INSTANCES[chunk::8]:
        assert local_ratio_solve(g) == ref.local_ratio_solve(g)


def _orders(g, rng):
    """Feasible addition orders: all vertices shuffled, with and without repeats."""
    everything = list(g.vertices)
    rng.shuffle(everything)
    yield everything
    yield everything + rng.sample(everything, len(everything) // 3)
    a_side = list(g.a_side)
    rng.shuffle(a_side)
    yield a_side


@pytest.mark.parametrize("chunk", range(4))
def test_reverse_delete_and_is_minimal_match_the_reference(chunk):
    rng = random.Random(chunk)
    for g in INSTANCES[chunk::4]:
        for order in _orders(g, rng):
            pruned = reverse_delete(g, order)
            assert pruned == ref.reverse_delete(g, order)
            assert is_minimal(g, pruned) is ref.is_minimal(g, pruned) is True
            bigger = set(pruned) | set(rng.sample(list(g.vertices), min(2, g.n_vertices)))
            assert is_minimal(g, bigger) == ref.is_minimal(g, bigger)


def test_split_reverse_delete_and_is_minimal_match_the_reference():
    rng = random.Random(77)
    for seed in range(80):
        r = random.Random(seed)
        nc, ni, t = r.randint(1, 4), r.randint(1, 6), r.randint(3, 4)
        pairs = [(c, nc + i) for c in range(1, nc + 1) for i in range(1, ni + 1)]
        h = SplitGraph(nc, ni, frozenset(r.sample(pairs, r.randint(0, len(pairs)))), t)
        order = list(h.vertices)
        rng.shuffle(order)
        pruned = reverse_delete(h, order)
        assert pruned == ref.reverse_delete(h, order)
        assert is_minimal(h, pruned) and ref.is_minimal(h, pruned)
        bigger = set(pruned) | {rng.choice(order)}
        assert is_minimal(h, bigger) == ref.is_minimal(h, bigger)


def test_infeasible_inputs_raise_like_the_reference():
    star = BipartiteGraph(1, 4, frozenset({(1, 2), (1, 3), (1, 4), (1, 5)}), 3)
    for fn in (reverse_delete, ref.reverse_delete):
        with pytest.raises(ValueError, match="requires a feasible input"):
            fn(star, [2])
    for fn in (is_minimal, ref.is_minimal):
        with pytest.raises(ValueError, match="not feasible"):
            fn(star, [])
    for g in INSTANCES[:200]:
        witness = claws.find_claw(g)
        if witness is None:
            continue
        survivor = [v for v in g.vertices if v not in witness.vertices]
        with pytest.raises(ValueError):
            reverse_delete(g, survivor)
        with pytest.raises(ValueError):
            is_minimal(g, survivor)


def test_ids_outside_the_graph_behave_like_the_reference():
    star = BipartiteGraph(1, 4, frozenset({(1, 2), (1, 3), (1, 4), (1, 5)}), 3)
    for order in ([1, 99], [99, 1, 0], [2, 3, -1]):
        assert reverse_delete(star, order) == ref.reverse_delete(star, order)
        assert is_minimal(star, order) == ref.is_minimal(star, order)
    outside = [-1, 0, star.n_vertices + 1]
    state, fresh = claws.DegreeState(star, removed=outside), claws.DegreeState(star)
    assert (state.alive, state.deg, state.centres) == (fresh.alive, fresh.deg, fresh.centres)
    assert bool(state.centres) == (claws.find_claw(star, outside) is not None)
    for v in outside:
        assert state.can_restore(v)
        state.restore(v)
    assert (state.alive, state.deg, state.centres) == (fresh.alive, fresh.deg, fresh.centres)


def test_theta_closed_form_matches_polymatroid_context():
    rng = random.Random(5)
    for g in INSTANCES:
        ctx = PolymatroidContext(g)
        total = dual_rank(ctx, ctx.edges)
        subset = [v for v in g.vertices if rng.random() < 0.4]
        if total == 0:
            assert theta_of_solution(g, subset) == theta_of_solution(g, ()) == 0
            continue
        numer = sum(dual_rank(ctx, incident_edges(g, v)) for v in subset)
        assert theta_of_solution(g, subset) == Fraction(numer, total)
        assert theta_of_solution(g, subset + subset) == Fraction(numer, total)
    g = next(g for g in INSTANCES if claws.find_claw(g) is not None)
    for bad in (-1, 0, g.n_vertices + 1):
        with pytest.raises(ValueError, match="out of range"):
            theta_of_solution(g, [bad])


def _count_calls(monkeypatch):
    """Count calls of the per-iteration helpers wherever solver code may look them up."""
    counts = {"PolymatroidContext": 0, "find_claw": 0, "DegreeState": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, name in ((polymatroid, "PolymatroidContext"), (claws, "find_claw"),
                         (claws, "DegreeState")):
        fn = getattr(module, name)
        for site in (module, solvers):
            if getattr(site, name, None) is fn:
                monkeypatch.setattr(site, name, counting(name, fn))
    return counts


def test_solvers_do_not_rebuild_per_iteration(monkeypatch):
    spec = GenSpec("bip-random", 3, 11, {"na": 80, "nb": 160, "m": 640}, ("uniform", 1, 9))
    g = generate(spec)
    counts = _count_calls(monkeypatch)

    _, steps = ref.primal_dual_solve(g)
    assert len(steps) >= 100
    assert counts["PolymatroidContext"] >= len(steps) and counts["find_claw"] > len(steps)

    # one claw state per solve: reverse deletion and theta build none of their own
    counts.update(PolymatroidContext=0, find_claw=0, DegreeState=0)
    report, _ = primal_dual_solve(g)
    assert report.iterations == len(steps)
    assert counts == {"PolymatroidContext": 0, "find_claw": 0, "DegreeState": 1}

    counts.update(DegreeState=0)
    report = local_ratio_solve(g)
    assert report.iterations >= 100
    assert counts == {"PolymatroidContext": 0, "find_claw": 0, "DegreeState": 1}

    counts.update(DegreeState=0)
    assert theta_of_solution(g, report.solution) == report.theta
    assert counts["DegreeState"] == 0


@pytest.mark.parametrize("chunk", range(4))
def test_the_oracle_searches_only_where_the_primal_dual_bound_is_not_tight(chunk, monkeypatch):
    searches = spy_on_search(monkeypatch)
    certified = enumerated = 0
    for g in INSTANCES[chunk::4]:
        report = primal_dual_solve(g)[0]
        tight = report.dual_lower_bound == report.cost
        searches.clear()
        try:
            solution, cost = exact_min_deletion_set(g)
        except OracleLimitError:
            assert not tight and len(searches) == 1 and searches[0][1]
            continue
        assert len(searches) == 1
        if tight:  # the bound ends the search at its root
            assert not searches[0][1] and (solution, cost) == (report.solution, report.cost)
            certified += 1
            continue
        assert searches[0][1]
        if g.n_vertices <= 14:
            assert cost == min(g.total_weight(s) for s in enumerate_minimal_deletion_sets(g))
            enumerated += 1
    assert certified >= 100 and enumerated >= 1


@pytest.mark.parametrize("nc,ni,m", [(4, 8, 12), (5, 9, 16), (6, 8, 20), (3, 11, 15)])
def test_split_exact_costs_the_cheapest_minimal_set(nc, ni, m):
    # Weights are drawn after the edges, so each seed's three weightings share
    # one graph, and its minimal sets are enumerated once.
    for seed in range(40):
        graphs = [generate(GenSpec("split-random", 3, seed, {"nc": nc, "ni": ni, "m": m}, mode))
                  for mode in (("unit",), ("uniform", 0, 3), ("uniform", 1, 9))]
        assert len({tuple(h.adj) for h in graphs}) == 1
        minimal = enumerate_minimal_deletion_sets(graphs[0])
        for h in graphs:
            report = solve(h, "exact")[0]
            opt = min(h.total_weight(s) for s in minimal)
            assert report.cost == report.dual_lower_bound == opt
            assert is_feasible(h, report.solution) and is_minimal(h, report.solution)
