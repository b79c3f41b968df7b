"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is exact (integer or rational arithmetic);
nothing is approximate. Two criteria are expected to fail and do so
honestly: the pad-set construction admits a cheaper optimum than the
intended vertex-cover offset (criterion 10), and completing the A side
into a clique can create claws invisible in the cross-edge shadow
(criterion 11; each run dumps its first counterexample to the test's
temporary directory, and counterexamples/ holds a committed copy).
"""

import contextlib
import csv
import io
import json
import random
import re
from fractions import Fraction
from itertools import chain, combinations

from clawdel import (
    BipartiteGraph,
    GenSpec,
    Hypergraph,
    PolymatroidContext,
    degree,
    dual_rank,
    dual_rank_from_definition,
    enumerate_minimal_deletion_sets,
    exact_max_subgraph,
    exact_min_deletion_set,
    exact_min_vc_graph,
    exact_min_vc_hypergraph,
    find_claw,
    find_claw_split,
    from_hypergraph_cover,
    from_regular_graph_cover,
    generate,
    incidence_dual_ranks,
    incident_edges,
    is_feasible,
    is_matching,
    is_minimal,
    is_spanning_dual,
    local_ratio_solve,
    max_subgraph_solve,
    primal_dual_solve,
    rank,
    serialize_split,
    to_split,
)
from clawdel.cli import main as cli_main


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d} {name}: {status}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def powerset(items):
    items = list(items)
    return chain.from_iterable(combinations(items, k) for k in range(len(items) + 1))


def random_graph(seed, na_max, nb_max, t_choices, m_cap=None, weighted=False):
    rng = random.Random(seed)
    t = rng.choice(list(t_choices))
    na = rng.randint(1, na_max)
    nb = rng.randint(1, nb_max)
    pairs = [(a, na + b) for a in range(1, na + 1) for b in range(1, nb + 1)]
    cap = len(pairs) if m_cap is None else min(m_cap, len(pairs))
    edges = frozenset(rng.sample(pairs, rng.randint(0, cap)))
    weights = {}
    if weighted and rng.random() < 0.5:
        weights = {v: rng.randint(1, 5) for v in range(1, na + nb + 1)}
    return BipartiteGraph(na, nb, edges, t, weights)


def dense_graph(seed, t=3, max_vertices=16, weighted=True):
    rng = random.Random(seed)
    dmin = 2 * (t - 1)
    nb = rng.randint(dmin, 10)
    na = rng.randint(1, min(6, max_vertices - nb))
    edges = set()
    for a in range(1, na + 1):
        deg = rng.randint(dmin, nb)
        edges.update((a, na + b) for b in rng.sample(range(1, nb + 1), deg))
    weights = {}
    if weighted and rng.random() < 0.5:
        weights = {v: rng.randint(1, 5) for v in range(1, na + nb + 1)}
    return BipartiteGraph(na, nb, frozenset(edges), t, weights)


def graphs_with_degree_floor(seed, floor_is_t=True):
    rng = random.Random(seed)
    t = rng.choice([3, 4, 5])
    floor = t if floor_is_t else 2 * (t - 1)
    nb = rng.randint(floor, 8)
    na = rng.randint(1, 4)
    edges = set()
    for a in range(1, na + 1):
        deg = rng.randint(floor, nb)
        edges.update((a, na + b) for b in rng.sample(range(1, nb + 1), deg))
    return BipartiteGraph(na, nb, frozenset(edges), t)


CRITERION_5_SUITE = [
    random_graph(500 + i, na_max=6, nb_max=10, t_choices=(3, 4), weighted=True)
    for i in range(300)
]


def test_criterion_01_polymatroid_axioms():
    checked = 0
    for i in range(200):
        g = random_graph(100 + i, na_max=8, nb_max=8, t_choices=(3, 4, 5))
        ctx = PolymatroidContext(g)
        edges = sorted(ctx.edges)
        assert rank(ctx, frozenset()) == 0
        for e in edges:
            assert rank(ctx, {e}) in (0, 2)
        rng = random.Random(9000 + i)
        for _ in range(50):
            size = rng.randint(0, len(edges)) if edges else 0
            x = frozenset(rng.sample(edges, size))
            rank_x = rank(ctx, x)
            rest = [e for e in edges if e not in x]
            for e in rest:
                assert rank(ctx, x | {e}) >= rank_x
            if len(rest) >= 2:
                e1, e2 = rng.sample(rest, 2)
                lhs = rank(ctx, x | {e1}) + rank(ctx, x | {e2})
                rhs = rank(ctx, x | {e1, e2}) + rank_x
                assert lhs >= rhs
                checked += 1
    report(1, "polymatroid-axioms", True, f"{checked} submodularity triples")


def duality_instance(seed):
    rng = random.Random(seed)
    t = rng.choice([3, 4])
    na = rng.randint(1, 4)
    nb = rng.randint(2, 6)
    pairs = [(a, na + b) for a in range(1, na + 1) for b in range(1, nb + 1)]
    cap = min(12, len(pairs))
    edges = frozenset(rng.sample(pairs, rng.randint((cap + 1) // 2, cap)))
    return BipartiteGraph(na, nb, edges, t)


DUALITY_SUITE = [duality_instance(200 + i) for i in range(30)]


def test_criterion_02_duality():
    pairs = 0
    for g in DUALITY_SUITE:
        ctx = PolymatroidContext(g)
        for f in powerset(sorted(ctx.edges)):
            fs = frozenset(f)
            assert is_matching(ctx, fs) == is_spanning_dual(ctx, ctx.edges - fs)
            pairs += 1
    report(2, "duality", True, f"{pairs} edge subsets, 30 instances")


def test_criterion_03_closed_forms():
    for i in range(200):
        g = graphs_with_degree_floor(300 + i)
        ctx = PolymatroidContext(g)
        t = g.t
        edges = sorted(ctx.edges)
        total = 2 * sum(degree(g, a) - t + 1 for a in g.a_side)
        assert dual_rank(ctx, ctx.edges) == dual_rank_from_definition(ctx, ctx.edges) == total
        for v in g.vertices:
            delta = incident_edges(g, v)
            expected = 2 * degree(g, v) if v > g.n_a else 2 * (degree(g, v) - t + 1)
            assert dual_rank(ctx, delta) == dual_rank_from_definition(ctx, delta) == expected
        rng = random.Random(9300 + i)
        for _ in range(100):
            f = frozenset(rng.sample(edges, rng.randint(0, len(edges))))
            assert dual_rank(ctx, f) == dual_rank_from_definition(ctx, f)
    report(3, "closed-forms", True, "200 graphs, 100 subsets each plus all incident sets")


def test_criterion_04_matching_iff_claw_free():
    for g in DUALITY_SUITE:
        ctx = PolymatroidContext(g)
        for f in powerset(sorted(ctx.edges)):
            sub = BipartiteGraph(g.n_a, g.n_b, frozenset(f), g.t)
            assert is_matching(ctx, frozenset(f)) == (find_claw(sub) is None)
    report(4, "matching-iff-claw-free", True, "exhaustive over the duality suite")


def test_criterion_05_primal_dual_correctness():
    for g in CRITERION_5_SUITE:
        solved, trace = primal_dual_solve(g)
        assert is_feasible(g, solved.solution)
        assert is_minimal(g, solved.solution)
        assert solved.cost >= solved.dual_lower_bound >= 0
        paid = {v: Fraction(0) for v in g.vertices}
        picks = [step.selected for step in trace]
        selected = set(picks)
        assert len(selected) == len(picks)
        for k, step in enumerate(trace):
            active = frozenset(g.vertices) - set(picks[:k])
            coeff = incidence_dual_ranks(PolymatroidContext(g, active))
            for v in active:
                paid[v] += step.amount * coeff[v]
        assert all(paid[v] <= g.weight(v) for v in g.vertices)
        assert all(paid[v] == g.weight(v) for v in selected)
    report(5, "primal-dual-correctness", True, "300 instances, trace-checked")


DENSE_SUITE = [dense_graph(600 + i) for i in range(100)]


def test_criterion_06_factor_two_on_dense():
    worst = Fraction(0)
    for g in DENSE_SUITE:
        solved, _ = primal_dual_solve(g)
        _, opt = exact_min_deletion_set(g)
        if opt == 0:
            assert solved.cost == 0
            continue
        assert solved.cost <= 2 * opt
        worst = max(worst, Fraction(solved.cost, opt))
    for i in range(30):
        rng = random.Random(650 + i)
        nb = rng.randint(4, 8)
        na = rng.randint(1, 10 - nb)
        edges = set()
        for a in range(1, na + 1):
            deg = rng.randint(4, nb)
            edges.update((a, na + b) for b in rng.sample(range(1, nb + 1), deg))
        g = BipartiteGraph(na, nb, frozenset(edges), 3)
        ctx = PolymatroidContext(g)
        total = dual_rank(ctx, ctx.edges)
        for x in enumerate_minimal_deletion_sets(g):
            lhs = sum(dual_rank(ctx, incident_edges(g, v)) for v in x)
            assert lhs <= 2 * total
    report(6, "factor-two-on-dense", True, f"worst ratio {worst}")


def test_criterion_07_local_ratio_bound():
    worst = Fraction(0)
    for g in CRITERION_5_SUITE:
        solved = local_ratio_solve(g)
        assert is_feasible(g, solved.solution)
        assert is_minimal(g, solved.solution)
        _, opt = exact_min_deletion_set(g)
        if opt == 0:
            assert solved.cost == 0
            continue
        assert solved.cost <= (g.t + 1) * opt
        worst = max(worst, Fraction(solved.cost, opt))
    report(7, "local-ratio-bound", True, f"worst ratio {worst}")


def test_criterion_08_max_subgraph_bounds():
    worst_dense = worst_general = Fraction(1)
    for g in DENSE_SUITE:
        _, weight = max_subgraph_solve(g)
        _, opt_max = exact_max_subgraph(g)
        assert 3 * weight >= 2 * opt_max
        if weight > 0:
            worst_dense = max(worst_dense, Fraction(opt_max, weight))
    for g in CRITERION_5_SUITE:
        _, weight = max_subgraph_solve(g)
        assert 2 * weight >= g.total_weight(g.vertices)
        solved, _ = primal_dual_solve(g)
        _, opt = exact_min_deletion_set(g)
        _, opt_max = exact_max_subgraph(g)
        if weight > 0:
            worst_general = max(worst_general, Fraction(opt_max, weight))
        if solved.cost <= g.t * opt:
            assert (2 * g.t - 1) * weight >= g.t * opt_max
    report(
        8,
        "max-subgraph-bounds",
        True,
        f"worst achieved ratio {worst_dense} on dense, {worst_general} on general",
    )


def test_criterion_09_hypergraph_cover_equality():
    for i in range(20):
        hy = generate(GenSpec("hyp-uniform", 3, 900 + i, {"n": 7 + (i % 2), "m": 2 + (i % 4)}))
        g, rmap = from_hypergraph_cover(hy)
        assert rmap.warnings == ()
        _, vc = exact_min_vc_hypergraph(hy)
        _, opt = exact_min_deletion_set(g)
        assert vc == opt
    report(9, "hypergraph-cover-equality", True, "20 hypergraphs")


def test_criterion_10_dense_construction_equality():
    inputs = [Hypergraph(4, 2, tuple(tuple(e) for e in combinations(range(1, 5), 2)))]
    inputs.extend(
        generate(GenSpec("regular-graph", 3, 1000 + i, {"n": 4 if i % 2 else 6}))
        for i in range(5)
    )
    failures = []
    for idx, src in enumerate(inputs):
        built, rmap = from_regular_graph_cover(src)
        assert all(degree(built, a) == 2 * (built.t - 1) for a in built.a_side)
        _, vc = exact_min_vc_graph(src)
        _, opt = exact_min_deletion_set(built)
        expected = rmap.offset + vc
        if opt != expected:
            failures.append(f"instance {idx}: expected {expected}, oracle found {opt}")
    report(
        10,
        "dense-construction-equality",
        not failures,
        "; ".join(failures[:2]) + (
            "; removing the pad group alone already deletes every claw"
            if failures else ""
        ),
    )


def test_criterion_11_split_completion_equivalence(tmp_path):
    disagreements = 0
    first_dump = None
    for i in range(30):
        g = random_graph(1100 + i, na_max=4, nb_max=6, t_choices=(3, 4))
        if g.n_vertices > 10:
            continue
        h, _ = to_split(g)
        for subset in powerset(list(g.vertices)):
            bip_ok = is_feasible(g, subset)
            split_ok = is_feasible(h, subset)
            if bip_ok != split_ok:
                disagreements += 1
                if first_dump is None:
                    witness = find_claw_split(h, subset)
                    dump = tmp_path / "split_completion_equivalence.txt"
                    dump.write_text(
                        "# bipartite feasibility and split-completion feasibility disagree\n"
                        f"# deletion set: {sorted(subset)}\n"
                        f"# bipartite shadow feasible: {bip_ok}\n"
                        f"# split graph feasible: {split_ok}\n"
                        f"# surviving split claw: center {witness.center}, "
                        f"leaves {list(witness.leaves)} (one leaf is a clique vertex)\n"
                        + serialize_split(h),
                        encoding="utf-8",
                    )
                    first_dump = dump
                break
    report(
        11,
        "split-completion-equivalence",
        disagreements == 0,
        f"{disagreements}/30 instances disagree"
        + (f"; first counterexample dumped to {first_dump}" if first_dump else ""),
    )


def _run_cli(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli_main(argv)
    return code, buffer.getvalue()


def _mask_json_time(text):
    return re.sub(r'"time_ms": \d+', '"time_ms": 0', text)


def _mask_csv_time(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    for row in rows:
        row["time_ms"] = "0"
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def test_criterion_12_determinism(tmp_path):
    gen_cases = [
        ("bip-random", ["--na", "4", "--nb", "6", "--m", "10", "--weights", "1:5"]),
        ("bip-dense", ["--na", "3", "--nb", "8", "--weights", "1:5"]),
        ("hyp-uniform", ["--n", "8", "--m", "4"]),
        ("regular-graph", ["--n", "6"]),
        ("split-random", ["--nc", "3", "--ni", "5", "--m", "8", "--weights", "1:5"]),
    ]
    for family, flags in gen_cases:
        paths = [tmp_path / f"{family}-{k}.out" for k in (1, 2)]
        for path in paths:
            code, _ = _run_cli(
                ["gen", "--family", family, "--seed", "42", "--t", "3",
                 "--output", str(path)] + flags
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    instance = tmp_path / "instance.bip"
    assert _run_cli(
        ["gen", "--family", "bip-dense", "--seed", "42", "--t", "3",
         "--na", "3", "--nb", "6", "--output", str(instance)]
    )[0] == 0
    # complete cross edges: no claw can use a clique leaf, so the shadow
    # solve is guaranteed to verify on the split side
    split_instance = tmp_path / "instance.split"
    assert _run_cli(
        ["gen", "--family", "split-random", "--seed", "42", "--t", "3",
         "--nc", "2", "--ni", "5", "--m", "10", "--output", str(split_instance)]
    )[0] == 0
    for target in (instance, split_instance):
        for alg in ("primal-dual", "local-ratio", "exact", "max-subgraph"):
            outputs = []
            for _ in range(2):
                code, out = _run_cli(["solve", "--alg", alg, "--input", str(target), "--json"])
                assert code == 0
                outputs.append(_mask_json_time(out))
            assert json.loads(outputs[0])
            assert outputs[0] == outputs[1]

    csvs = []
    for k in (1, 2):
        path = tmp_path / f"bench-{k}.csv"
        code, _ = _run_cli(
            ["bench", "--suite", str(tmp_path), "--algs",
             "primal-dual,local-ratio,exact,max-subgraph", "--csv", str(path)]
        )
        assert code == 0
        csvs.append(_mask_csv_time(path.read_text()))
    assert csvs[0] == csvs[1]
    report(12, "determinism", True, "generators byte-exact; solver JSON/CSV exact up to time_ms")
