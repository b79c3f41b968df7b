import random
import tracemalloc

import pytest

from clawdel import (
    BipartiteGraph,
    GenSpec,
    SplitGraph,
    claws,
    degree,
    find_claw,
    find_claw_split,
    generate,
    is_feasible,
    is_minimal,
    reverse_delete,
    to_split,
)
from conftest import brute_force_split_claw, random_bipartite, random_split


def test_find_claw_examples(g1):
    w = find_claw(g1)
    assert w.center == 1 and w.leaves == (2, 3, 4)
    assert find_claw(g1, {1}) is None
    assert find_claw(g1, {2, 3}) is None


def test_find_claw_is_lowest_center_lowest_leaves(g2):
    w = find_claw(g2)
    assert w.center == 1 and w.leaves == (3, 4, 5)


def test_find_claw_split_examples(h2):
    w = find_claw_split(h2)
    assert w.center == 1 and w.leaves == (3, 4, 5)
    # removing one independent vertex leaves only two pairwise-nonadjacent
    # neighbors per center: the other clique vertex is adjacent to them all
    assert find_claw_split(h2, {3}) is None


def test_find_claw_split_single_clique_vertex():
    h = SplitGraph(1, 3, frozenset({(1, 2), (1, 3), (1, 4)}), 3)
    w = find_claw_split(h)
    assert w.center == 1 and w.leaves == (2, 3, 4)


def test_find_claw_split_uses_clique_leaf():
    # center 1 has cross neighbors 3, 4 and clique neighbor 2, which has
    # no cross edges at all: {2, 3, 4} is an independent leaf set
    h = SplitGraph(2, 2, frozenset({(1, 3), (1, 4)}), 3)
    w = find_claw_split(h)
    assert w.center == 1 and w.leaves == (2, 3, 4)


def test_split_claw_matches_brute_force():
    for seed in range(150):
        h = random_split(seed)
        ours = find_claw_split(h)
        brute = brute_force_split_claw(h)
        assert (ours is None) == (brute is None)
        if ours is not None:
            # returned witness is a genuine induced claw
            center, leaves = ours.center, ours.leaves
            assert center <= h.n_clique
            assert len(set(leaves)) == h.t
            got = brute_force_split_claw(h, set(h.vertices) - {center, *leaves})
            assert got == (center, tuple(sorted(leaves)))


def _with_isolated_clique_vertices(h, rng):
    """`h` with one to three edgeless clique vertices slotted in among its clique ids."""
    k = rng.randint(1, 3)
    n_clique = h.n_clique + k
    isolated = set(rng.sample(range(1, n_clique + 1), k))
    new_id = [0, *(c for c in range(1, n_clique + 1) if c not in isolated)]
    edges = frozenset((new_id[c], i + k) for c, i in h.cross_edges)
    return SplitGraph(n_clique, h.n_indep, edges, h.t)


def test_split_claw_witness_equals_brute_force_with_removed_sets():
    # the exact witness, not only its existence: lowest centre, then the
    # lexicographically smallest sorted leaf tuple; an isolated clique
    # vertex is never a centre but can be the clique leaf
    rng = random.Random(11)
    for seed in range(300):
        base = random_split(seed, nc_max=5, ni_max=7)
        for h in (base, _with_isolated_clique_vertices(base, rng)):
            for _ in range(4):
                removed = {v for v in h.vertices if rng.random() < 0.2}
                ours = find_claw_split(h, removed)
                brute = brute_force_split_claw(h, removed)
                assert (ours and (ours.center, ours.leaves)) == brute


def test_split_claw_search_spends_nothing_on_isolated_clique_vertices():
    # 200,000 clique vertices, one with two cross edges: a set per clique
    # vertex would take tens of MB
    h = SplitGraph(200_000, 3, frozenset({(7, 200_001), (7, 200_002)}), 3)
    tracemalloc.start()
    try:
        found = [find_claw_split(h), find_claw_split(h, {1, 2, 3}), find_claw_split(h, {7})]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [w and (w.center, w.leaves) for w in found] == [
        (7, (1, 200_001, 200_002)), (7, (4, 200_001, 200_002)), None]
    assert peak < 100_000


def test_split_claw_centers_never_independent():
    # brute force over both sides confirms the clique side hosts every center
    for seed in range(80):
        h = random_split(seed)
        found = brute_force_split_claw(h)
        if found is not None:
            assert found[0] <= h.n_clique


def test_is_feasible_examples(g1):
    assert is_feasible(g1, {1})
    assert not is_feasible(g1, set())
    assert is_feasible(g1, {2, 3})


def test_is_feasible_whole_sides():
    for seed in range(40):
        g = random_bipartite(seed)
        assert is_feasible(g, g.vertices)
        assert is_feasible(g, g.a_side)
    for seed in range(40):
        h = random_split(seed)
        assert is_feasible(h, h.vertices)
        assert is_feasible(h, h.clique_side)


def test_is_minimal_examples(g1):
    assert is_minimal(g1, {1})
    assert not is_minimal(g1, {1, 2})
    assert is_minimal(g1, {2, 3})
    with pytest.raises(ValueError):
        is_minimal(g1, set())


def test_reverse_delete_examples(g1):
    assert reverse_delete(g1, [1, 2, 3, 4]) == [1]
    assert reverse_delete(g1, [2, 3, 1]) == [2, 3]
    with pytest.raises(ValueError):
        reverse_delete(g1, [2])


def test_reverse_delete_fixes_minimal_sets(g1):
    assert reverse_delete(g1, [3, 2]) == [3, 2]
    assert reverse_delete(g1, [1]) == [1]


def test_reverse_delete_output_is_minimal():
    for seed in range(60):
        g = random_bipartite(seed)
        pruned = reverse_delete(g, list(g.vertices))
        assert is_minimal(g, pruned)


def test_claw_free_iff_degrees_below_t():
    for seed in range(60):
        g = random_bipartite(seed)
        free = find_claw(g) is None
        assert free == all(degree(g, a) <= g.t - 1 for a in g.a_side)


def test_touched_ids_and_centre_candidates_match_a_full_scan():
    graphs = [random_bipartite(seed, na_max=8, nb_max=10) for seed in range(60)]
    graphs += [random_split(seed) for seed in range(20)]
    graphs.append(BipartiteGraph(500, 900, frozenset({(3, 501), (3, 777), (3, 1400), (9, 600)}), 3))
    for g in graphs:
        assert g.touched == tuple(v for v in g.vertices if g.adj[v])
        if isinstance(g, BipartiteGraph):
            scan = [a for a in g.a_side if degree(g, a) >= g.t]
            assert claws.centre_candidates(g) == scan
            state = claws.DegreeState(g, removed=scan[:1])
            assert state.centres == max(len(scan) - 1, 0)
            assert state.centres == sum(map(state.is_centre, g.a_side))
    assert claws.centre_candidates(graphs[-1]) == [3]


def test_random_remove_and_restore_walks_keep_the_degree_state_exact():
    for seed in range(30):
        t = 3 + seed % 2
        g = generate(GenSpec("bip-random", t, seed, {"na": 6, "nb": 8, "m": 20 + seed % 9}))
        rng, state, removed = random.Random(seed), claws.DegreeState(g), set()
        for _ in range(80):
            if removed and (rng.random() < 0.5 or len(removed) == g.n_vertices):
                v = rng.choice(sorted(removed))
                removed.discard(v)
                state.restore(v)
            else:
                v = rng.choice([u for u in g.vertices if u not in removed])
                removed.add(v)
                state.remove(v)
            deg = [sum(b not in removed for b in g.adj[a]) for a in g.a_side]
            assert state.deg[1:] == deg
            assert state.centres == sum(a not in removed and d >= t
                                        for a, d in zip(g.a_side, deg))
            assert (state.centres == 0) == (find_claw(g, removed) is None)


def test_split_feasibility_implies_shadow_feasibility():
    # every claw of the cross-edge shadow is a claw of the split graph,
    # so a split-feasible set is always shadow-feasible; the converse
    # direction genuinely fails (see the acceptance suite)
    from itertools import chain, combinations

    for seed in range(25):
        g = random_bipartite(seed, na_max=3, nb_max=4)
        if g.n_vertices > 8:
            continue
        h, _ = to_split(g)
        vs = list(g.vertices)
        for subset in chain.from_iterable(
            combinations(vs, k) for k in range(len(vs) + 1)
        ):
            if is_feasible(h, subset):
                assert is_feasible(g, subset)


def test_shadow_counterexample_is_one_sided():
    g = BipartiteGraph(2, 2, frozenset({(1, 3), (1, 4)}), 3)
    h, _ = to_split(g)
    assert is_feasible(g, set())
    assert not is_feasible(h, set())
    w = find_claw_split(h)
    assert w.center == 1 and w.leaves == (2, 3, 4)
