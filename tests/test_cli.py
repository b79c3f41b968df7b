import contextlib
import csv
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import reference_solvers as ref
from clawdel import (GenSpec, SplitGraph, cli, formats, generate, oracle, parse_auto,
                     primal_dual_solve)
from clawdel.cli import main
from clawdel.generate import FAMILIES
from clawdel.solvers import TraceStep

G1_TEXT = "p bip 1 4 4 3\ne 1 2\ne 1 3\ne 1 4\ne 1 5\n"
MISMATCH_SPLIT = "p split 2 2 2 3\ne 1 3\ne 1 4\n"


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def thirteen_stars():
    lines = ["p bip 13 39 39 3"]
    for k in range(13):
        base = 13 + 3 * k
        lines.extend(f"e {k + 1} {base + i}" for i in (1, 2, 3))
    return "\n".join(lines) + "\n"


def gen_hard(path):
    """A 13x16 bip-random graph whose primal-dual bound is not tight and whose
    search reaches the depth bound before it certifies an optimum."""
    assert main(["gen", "--family", "bip-random", "--seed", "0", "--t", "3", "--na", "13",
                 "--nb", "16", "--m", "100", "--output", str(path)]) == 0
    return str(path)


def test_solve_text_output(tmp_path, capsys):
    instance = write(tmp_path / "g1.bip", G1_TEXT)
    assert main(["solve", "--alg", "primal-dual", "--input", instance]) == 0
    out = capsys.readouterr().out
    assert "solution: 1" in out
    assert "cost: 1" in out
    assert "lower_bound: 1" in out
    assert "theta: 1" in out


def test_text_solution_line_takes_no_string_per_id(capsys):
    payload = {"algorithm": "max-subgraph", "cost": "3", "lower_bound": None, "theta": None,
               "iterations": 0, "time_ms": 0}
    for ids in ([], [7], [1, 20, 300]):
        cli._print_payload({**payload, "solution": ids}, False)
        line = capsys.readouterr().out.splitlines()[1]
        assert line == "solution: " + " ".join(str(v) for v in ids)
    with capsys.disabled(), open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        ids = list(range(1, 1_000_001))
        tracemalloc.start()
        try:
            cli._print_payload({**payload, "solution": ids}, False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    # one str per id came to about 70 MB; the line itself is under 7 MB
    assert peak < 35_000_000


def test_json_solution_is_the_bytes_of_json_dumps_without_a_whole_list_pass(capsys):
    payload = {"cost": "3/2", "lower_bound": None, "theta": "1", "algorithm": "primal-dual",
               "iterations": 2, "time_ms": 0}
    for ids in ([], [7], [1, 20, 300]):
        for ordered in ({"solution": ids, **payload}, {**payload, "solution": tuple(ids)}):
            cli._print_payload(ordered, True)
            assert capsys.readouterr().out == json.dumps(ordered) + "\n"
    with capsys.disabled(), open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        ids = tuple(range(1, 1_000_001))
        tracemalloc.start()
        try:
            cli._print_payload({"solution": ids, **payload}, True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    # json.dumps of the whole list peaked at about 16 MB; ids go out in 65,536-id writes
    assert peak < 5_000_000


def test_solve_json_keys(tmp_path, capsys):
    instance = write(tmp_path / "g1.bip", G1_TEXT)
    for alg in ("primal-dual", "local-ratio", "exact", "max-subgraph"):
        assert main(["solve", "--alg", alg, "--input", instance, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == [
            "solution", "cost", "lower_bound", "theta", "algorithm", "iterations", "time_ms",
        ]
        assert payload["algorithm"] == alg
    assert main(["solve", "--alg", "max-subgraph", "--input", instance, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["solution"] == [2, 3, 4, 5]
    assert payload["cost"] == "4"
    assert payload["lower_bound"] is None


def test_solve_trace_written(tmp_path, capsys):
    instance = write(tmp_path / "g1.bip", G1_TEXT)
    trace = tmp_path / "trace.txt"
    assert main(["solve", "--alg", "primal-dual", "--input", instance,
                 "--trace", str(trace)]) == 0
    capsys.readouterr()
    body = trace.read_text()
    assert "raise 1/4 tight 1 active 1 2 3 4 5" in body


def _trace_bytes(writer, path, trace, vertices):
    writer(str(path), trace, vertices)
    return path.read_bytes()


# Tight ids next to surviving ids they are a prefix or suffix of (1 beside
# 10, 11 and 21; 2 beside 12, 20 and 22), the last id, an empty trace, and
# an empty graph. The larger graphs have tight ids at each end of a whole
# hundred and at the last id, around the ids where the active-set text
# changes from one `%` format to whole hundreds and back.
@pytest.mark.parametrize("n, selected", [
    (30, [1, 11, 2, 21, 10, 12]),
    (30, [30, 3, 29]),
    (22, [21, 1, 22, 2, 20, 12, 11]),
    (9, []),
    (0, []),
    *((n, sorted({v for v in (99, 100, 101, 199, 9999, 10000) if v <= n} | {n}))
      for n in (99, 100, 101, 199, 200, 1000, 10000, 10001, 24000)),
])
def test_trace_writer_matches_the_reference_bytes(tmp_path, n, selected):
    trace = [TraceStep(Fraction(k + 1, 3), v) for k, v in enumerate(selected)]
    vertices = range(1, n + 1)
    assert (_trace_bytes(cli._write_trace, tmp_path / "new.txt", trace, vertices)
            == _trace_bytes(ref.write_trace, tmp_path / "old.txt", trace, vertices))


def test_the_active_set_text_is_each_id_and_a_space():
    for n in (*range(1201), 9999, 10_000, 10_001, 100_000):
        assert cli._id_text(n) == b"%d " * n % tuple(range(1, n + 1)), n


def test_trace_writer_matches_the_reference_on_solved_instances(tmp_path):
    graphs = [generate(GenSpec(family, 3, seed, sizes, ("uniform", 1, 9)))
              for seed in range(3)
              for family, sizes in (("bip-random", {"na": 12, "nb": 24, "m": 70}),
                                    ("bip-dense", {"na": 9, "nb": 18}))]
    # a header that declares thousands of isolated vertices around one claw
    graphs.append(parse_auto(b"p bip 4000 6000 3 3\ne 7 4001\ne 7 4010\ne 7 10000\n"))
    raises = 0
    for g in graphs:
        _, trace = primal_dual_solve(g)
        raises += len(trace)
        assert (_trace_bytes(cli._write_trace, tmp_path / "new.txt", trace, g.vertices)
                == _trace_bytes(ref.write_trace, tmp_path / "old.txt", trace, g.vertices))
    assert raises >= 30


def test_solve_trace_requires_primal_dual(tmp_path, capsys):
    instance = write(tmp_path / "g1.bip", G1_TEXT)
    assert main(["solve", "--alg", "exact", "--input", instance,
                 "--trace", str(tmp_path / "t.txt")]) == 2
    assert "primal-dual" in capsys.readouterr().err


def test_solve_split_input(tmp_path, capsys):
    text = "p split 2 3 6 3\n" + "".join(f"e {c} {i}\n" for c in (1, 2) for i in (3, 4, 5))
    instance = write(tmp_path / "h2.split", text)
    assert main(["solve", "--alg", "primal-dual", "--input", instance, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cost"] == "1"


def test_solve_shadow_mismatch_exits_1(tmp_path, capsys):
    instance = write(tmp_path / "bad.split", MISMATCH_SPLIT)
    assert main(["solve", "--alg", "primal-dual", "--input", instance]) == 1
    assert capsys.readouterr().err == (
        "error: shadow solution [] leaves a split claw with center 1 and leaves [2, 3, 4]\n"
    )


def test_solve_parse_error_exits_2(tmp_path, capsys):
    instance = write(tmp_path / "bad.bip", "p bip 1 1 1 3\ne 1 9\n")
    assert main(["solve", "--alg", "primal-dual", "--input", instance]) == 2
    assert "line 2" in capsys.readouterr().err


def test_solve_non_ascii_integer_tokens_exit_2(tmp_path, capsys):
    instance = write(tmp_path / "bad.bip", "p bip 1_0 \u0663 1 3\ne +1 1_1\n")
    assert main(["solve", "--alg", "primal-dual", "--input", instance]) == 2
    assert capsys.readouterr().err == "error: line 1: header field is not an integer: '1_0'\n"


def test_solve_oracle_guard_exits_3(tmp_path, capsys):
    instance = gen_hard(tmp_path / "hard.bip")
    assert main(["solve", "--alg", "exact", "--input", instance]) == 3
    assert capsys.readouterr() == (
        "", "error: too large for oracle: search depth bound 12 exceeded\n")


def test_solve_exact_certifies_thirteen_stars_by_the_bound(tmp_path, capsys):
    # An optimum of 13 is deeper than the search goes, but primal-dual's
    # bound equals its cost, so no search is needed.
    instance = write(tmp_path / "stars.bip", thirteen_stars())
    assert main(["solve", "--alg", "exact", "--input", instance, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["solution"] == list(range(1, 14))
    assert payload["cost"] == payload["lower_bound"] == "13"


def test_solve_hypergraph_rejected(tmp_path, capsys):
    instance = write(tmp_path / "x.hyp", "p hyp 6 2 3\nh 1 2 3\nh 4 5 6\n")
    assert main(["solve", "--alg", "primal-dual", "--input", instance]) == 2
    capsys.readouterr()


def test_verify_feasible_and_minimal(tmp_path, capsys):
    instance = write(tmp_path / "g1.bip", G1_TEXT)
    solution = write(tmp_path / "sol.txt", "1\n")
    assert main(["verify", "--input", instance, "--solution", solution]) == 0
    assert capsys.readouterr().out.strip() == "feasible=true minimal=true cost=1"


def test_verify_infeasible_exits_4(tmp_path, capsys):
    instance = write(tmp_path / "g1.bip", G1_TEXT)
    solution = write(tmp_path / "sol.txt", "")
    assert main(["verify", "--input", instance, "--solution", solution]) == 4
    assert capsys.readouterr().out.strip() == "feasible=false minimal=false cost=0"


def test_verify_non_minimal_solution(tmp_path, capsys):
    instance = write(tmp_path / "g1.bip", G1_TEXT)
    solution = write(tmp_path / "sol.txt", "1 2\n")
    assert main(["verify", "--input", instance, "--solution", solution]) == 0
    assert capsys.readouterr().out.strip() == "feasible=true minimal=false cost=2"


def test_verify_bad_ids_exit_2(tmp_path, capsys):
    instance = write(tmp_path / "g1.bip", G1_TEXT)  # ids 1..5
    for ids, bad in (("42", [42]), ("0", [0]), ("1 -1", [-1]), ("6 5", [6]), ("2 0 6", [0, 6])):
        solution = write(tmp_path / "sol.txt", ids)
        assert main(["verify", "--input", instance, "--solution", solution]) == 2
        assert capsys.readouterr().err == f"error: solution ids {bad} out of range\n"


@pytest.mark.parametrize("token", ["+1", "\u0661", "1_0", "\uff11"])
def test_verify_rejects_non_ascii_integer_ids(tmp_path, capsys, token):
    """Solution ids follow the instance rule: ASCII digits with an optional leading '-'."""
    instance = write(tmp_path / "g1.bip", G1_TEXT)
    solution = write(tmp_path / "sol.txt", f"2 {token}\n")
    assert main(["verify", "--input", instance, "--solution", solution]) == 2
    err = capsys.readouterr().err
    assert err == "error: solution file must hold whitespace-separated vertex ids\n"


def test_reduce_hypergraph_to_bipartite(tmp_path, capsys):
    instance = write(tmp_path / "hy1.hyp", "p hyp 6 2 3\nh 1 2 3\nh 4 5 6\n")
    out = tmp_path / "out.bip"
    sidecar = tmp_path / "out.map"
    assert main(["reduce", "--kind", "hvc-osbcd", "--input", instance,
                 "--output", str(out), "--map", str(sidecar)]) == 0
    body = out.read_text()
    assert body.startswith("p bip 12 6 36 3\n")
    side = sidecar.read_text()
    assert "map hvc-osbcd" in side and "g V 13 18" in side


def test_reduce_bipartite_to_split(tmp_path, capsys):
    text = "p bip 2 3 6 3\n" + "".join(f"e {a} {b}\n" for a in (1, 2) for b in (3, 4, 5))
    instance = write(tmp_path / "g2.bip", text)
    out = tmp_path / "h2.split"
    assert main(["reduce", "--kind", "osbcd-split", "--input", instance,
                 "--output", str(out)]) == 0
    assert out.read_text().startswith("p split 2 3 6 3\n")


def test_reduce_warning_goes_to_stderr(tmp_path, capsys):
    instance = write(tmp_path / "one.hyp", "p hyp 3 1 3\nh 1 2 3\n")
    out = tmp_path / "out.bip"
    assert main(["reduce", "--kind", "hvc-osbcd", "--input", instance,
                 "--output", str(out)]) == 0
    assert "disjoint" in capsys.readouterr().err


def test_reduce_vc_dense_rejects_irregular(tmp_path, capsys):
    instance = write(tmp_path / "path.hyp", "p hyp 3 2 2\nh 1 2\nh 2 3\n")
    assert main(["reduce", "--kind", "vc-dense", "--input", instance,
                 "--output", str(tmp_path / "o.bip")]) == 2
    assert "regular" in capsys.readouterr().err


def test_reduce_over_the_vertex_cap_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch):
    # two triples on six vertices build 2 * 6 + 6 = 18 vertices
    instance = write(tmp_path / "two.hyp", "p hyp 6 2 3\nh 1 2 3\nh 4 5 6\n")
    out, rmap = tmp_path / "out.bip", tmp_path / "out.map"
    argv = ["reduce", "--kind", "hvc-osbcd", "--input", instance, "--output", str(out),
            "--map", str(rmap)]
    monkeypatch.setattr(formats, "MAX_VERTICES", 17)
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "", "error: reduction hvc-osbcd declares 18 vertices, more than the limit 17\n")
    assert not out.exists() and not rmap.exists()
    monkeypatch.setattr(formats, "MAX_VERTICES", 18)
    assert main(argv) == 0
    assert out.read_text(encoding="utf-8").startswith("p bip 12 6 36 3\n")


def test_reduce_kind_input_mismatch(tmp_path, capsys):
    instance = write(tmp_path / "g1.bip", G1_TEXT)
    assert main(["reduce", "--kind", "hvc-osbcd", "--input", instance,
                 "--output", str(tmp_path / "o.bip")]) == 2
    assert capsys.readouterr().err == "error: hvc-osbcd needs a 'p hyp' instance with t >= 3\n"


@pytest.mark.parametrize("kind, text, message", [
    ("osbcd-split", MISMATCH_SPLIT, "osbcd-split needs a 'p bip' instance"),
    ("split-osbcd", G1_TEXT, "split-osbcd needs a 'p split' instance"),
    ("vc-dense", G1_TEXT, "vc-dense needs a 2-uniform 'p hyp' instance"),
])
def test_reduce_wrong_input_kind_messages(tmp_path, capsys, kind, text, message):
    instance = write(tmp_path / "in.txt", text)
    out = tmp_path / "o.txt"
    assert main(["reduce", "--kind", kind, "--input", instance, "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_reduce_hvc_osbcd_refuses_a_hypergraph_with_t_below_3(tmp_path, capsys):
    instance = write(tmp_path / "pairs.hyp", "p hyp 4 2 2\nh 1 2\nh 3 4\n")
    out = tmp_path / "o.bip"
    assert main(["reduce", "--kind", "hvc-osbcd", "--input", instance, "--output", str(out)]) == 2
    assert capsys.readouterr().err == "error: hvc-osbcd needs a 'p hyp' instance with t >= 3\n"
    assert not out.exists()


def test_reduce_kind_choices_are_the_reduction_table_keys():
    import argparse

    commands = next(a for a in cli._build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    kind = next(a for a in commands.choices["reduce"]._actions if a.dest == "kind")
    assert list(kind.choices) == list(cli.REDUCTIONS)
    assert list(cli.REDUCTIONS) == ["hvc-osbcd", "osbcd-split", "split-osbcd", "vc-dense"]


@pytest.mark.parametrize("kind, name, text", [
    ("hvc-osbcd", "from_hypergraph_cover", "p hyp 6 2 3\nh 1 2 3\nh 4 5 6\n"),
    ("osbcd-split", "to_split", G1_TEXT),
    ("split-osbcd", "to_bipartite", MISMATCH_SPLIT),
    ("vc-dense", "from_regular_graph_cover",
     "p hyp 4 6 2\nh 1 2\nh 1 3\nh 1 4\nh 2 3\nh 2 4\nh 3 4\n"),
])
def test_reduce_looks_its_construction_up_when_called(tmp_path, monkeypatch, kind, name, text):
    # a wrapper installed on the cli module's name (as a profiler does) sees the call
    calls = []
    original = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda g: calls.append(g) or original(g))
    instance = write(tmp_path / "in.txt", text)
    assert main(["reduce", "--kind", kind, "--input", instance,
                 "--output", str(tmp_path / "o.txt")]) == 0
    assert len(calls) == 1


def test_gen_writes_deterministic_instance(tmp_path):
    out1, out2 = tmp_path / "a.bip", tmp_path / "b.bip"
    args = ["gen", "--family", "bip-dense", "--seed", "7", "--t", "3",
            "--na", "3", "--nb", "8"]
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text().startswith("# gen bip-dense seed=7")


def test_gen_missing_size_exits_2(tmp_path, capsys):
    assert main(["gen", "--family", "bip-dense", "--seed", "1", "--t", "3",
                 "--na", "2", "--output", str(tmp_path / "x.bip")]) == 2
    assert capsys.readouterr().err == "error: family bip-dense needs --nb\n"


@pytest.mark.parametrize("family, flags, message", [
    ("bip-random", ["--na", "2", "--nb", "2", "--m", "5"],
     "cannot place 5 edges in a 2x2 bipartite graph"),
    ("split-random", ["--nc", "2", "--ni", "2", "--m", "5"],
     "cannot place 5 cross edges in a 2x2 split graph"),
    ("bip-dense", ["--na", "2", "--nb", "4", "--weights", "1-9"],
     "--weights must be 'unit' or 'LO:HI'"),
    ("bip-dense", ["--na", "2", "--nb", "4", "--weights", "+1:\u0669"],
     "--weights must be 'unit' or 'LO:HI'"),
    ("bip-dense", ["--na", "2", "--nb", "4", "--weights", "1:1_0"],
     "--weights must be 'unit' or 'LO:HI'"),
    ("bip-random", ["--na", "3000000", "--nb", "3000000", "--m", "1"],
     "family bip-random declares 6000000 vertices, more than the limit 5000000"),
])
def test_gen_precondition_messages(tmp_path, capsys, family, flags, message):
    out = tmp_path / "x.txt"
    assert main(["gen", "--family", family, "--seed", "1", "--t", "3", *flags,
                 "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("flag, token", [
    ("--seed", "+7"), ("--t", "\u0663"), ("--na", "1_0"), ("--nb", "\uff18"), ("--seed", " 7"),
    ("--t", "abc"),
])
def test_gen_rejects_lax_integer_flags(tmp_path, capsys, flag, token):
    values = {"--seed": "7", "--t": "3", "--na": "2", "--nb": "8"}
    values[flag] = token
    argv = ["gen", "--family", "bip-dense", "--output", str(tmp_path / "x.bip")]
    for key, value in values.items():
        argv += [key, value]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: argument {flag}: invalid int value: {token!r}\n")
    assert not (tmp_path / "x.bip").exists()


SIZE_VALUES = {"na": 3, "nb": 6, "m": 4, "n": 6, "nc": 3, "ni": 5}


@pytest.mark.parametrize("family", list(FAMILIES))
def test_every_family_generates_with_exactly_its_size_flags(tmp_path, capsys, family):
    keys, _ = FAMILIES[family]
    flags = [f for key in keys for f in (f"--{key}", str(SIZE_VALUES[key]))]
    out = tmp_path / "x.txt"
    base = ["gen", "--family", family, "--seed", "5", "--t", "3", "--output", str(out)]
    assert main(base + flags) == 0
    header = out.read_text(encoding="utf-8").split("\n", 1)[0].split()
    assert header[:5] == ["#", "gen", family, "seed=5", "t=3"]
    assert header[5:-2] == [f"{key}={SIZE_VALUES[key]}" for key in sorted(keys)]
    for i, key in enumerate(keys):
        assert main(base + flags[:2 * i] + flags[2 * i + 2:]) == 2
        assert capsys.readouterr().err == f"error: family {family} needs --{key}\n"


def test_gen_infeasible_spec_exits_2(tmp_path, capsys):
    assert main(["gen", "--family", "regular-graph", "--seed", "1", "--t", "3",
                 "--n", "5", "--output", str(tmp_path / "x.hyp")]) == 2
    assert "odd" in capsys.readouterr().err


def test_bench_writes_csv(tmp_path, capsys):
    for seed in (1, 2):
        assert main(["gen", "--family", "bip-dense", "--seed", str(seed), "--t", "3",
                     "--na", "3", "--nb", "6",
                     "--output", str(tmp_path / f"i{seed}.bip")]) == 0
    write(tmp_path / "h.hyp", "p hyp 6 2 3\nh 1 2 3\nh 4 5 6\n")
    csv_path = tmp_path / "report.csv"
    assert main(["bench", "--suite", str(tmp_path), "--algs",
                 "primal-dual,local-ratio,exact,max-subgraph",
                 "--csv", str(csv_path)]) == 0
    assert capsys.readouterr().err == "warning: skipping hypergraph instance h.hyp\n"
    with open(csv_path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 8
    assert rows[0]["instance"] == "i1.bip"
    assert [r["algorithm"] for r in rows[:4]] == [
        "primal-dual", "local-ratio", "exact", "max-subgraph",
    ]
    for row in rows:
        if row["algorithm"] in ("primal-dual", "local-ratio", "exact"):
            assert row["opt"] != "" and row["ratio"] != ""
    exact_rows = [r for r in rows if r["algorithm"] == "exact"]
    assert all(r["ratio"] == "1" for r in exact_rows)


def _count_oracle_calls(monkeypatch):
    """The graphs every oracle search from here on is run on, in order."""
    calls = []
    oracle_fn = oracle.exact_min_deletion_set

    def counting(*args, **kwargs):
        calls.append(args[0])
        return oracle_fn(*args, **kwargs)

    for site in (oracle, cli):
        monkeypatch.setattr(site, "exact_min_deletion_set", counting)
    return calls


def test_bench_runs_the_oracle_once_per_instance(tmp_path, capsys, monkeypatch):
    oracle_fn = oracle.exact_min_deletion_set
    calls = _count_oracle_calls(monkeypatch)
    assert main(["gen", "--family", "bip-random", "--seed", "5", "--t", "3", "--na", "5",
                 "--nb", "9", "--m", "25", "--weights", "1:9",
                 "--output", str(tmp_path / "i.bip")]) == 0
    csv_path = tmp_path / "report.csv"
    for algs in ("exact", "primal-dual,exact", "primal-dual"):
        calls.clear()
        assert main(["bench", "--suite", str(tmp_path), "--algs", algs,
                     "--csv", str(csv_path)]) == 0
        assert len(calls) == 1
        with open(csv_path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        _, opt = oracle_fn(calls[0])
        assert opt > 0 and {r["opt"] for r in rows} == {str(opt)}
    assert capsys.readouterr().err == ""


def test_bench_runs_the_oracle_once_when_it_refuses(tmp_path, capsys, monkeypatch):
    # The hard graph is past the oracle's depth guard. The exact row is the
    # oracle's own search of this bipartite graph, so its refusal stands for
    # the optimum's too.
    calls = _count_oracle_calls(monkeypatch)
    gen_hard(tmp_path / "hard.bip")
    csv_path = tmp_path / "report.csv"
    for algs in ("exact,primal-dual", "primal-dual"):
        calls.clear()
        assert main(["bench", "--suite", str(tmp_path), "--algs", algs,
                     "--csv", str(csv_path)]) == 0
        assert len(calls) == 1
        with open(csv_path, newline="") as handle:
            assert {r["opt"] for r in csv.DictReader(handle)} == {""}
    assert capsys.readouterr().err == (
        "warning: hard.bip: oracle skipped (size guard)\n"
        "warning: hard.bip [exact]: too large for oracle: search depth bound 12 exceeded\n"
        "warning: hard.bip: oracle skipped (size guard)\n")


def test_bench_takes_a_split_optimum_from_the_exact_row(tmp_path, capsys, monkeypatch):
    # The oracle certifies this split graph by its shadow's optimum, which is
    # split feasible, so the exact row costs the optimum and is the one oracle run.
    calls = _count_oracle_calls(monkeypatch)
    instance = tmp_path / "s.split"
    assert main(["gen", "--family", "split-random", "--seed", "11", "--t", "3", "--nc", "10",
                 "--ni", "20", "--m", "60", "--weights", "1:9", "--output", str(instance)]) == 0
    csv_path = tmp_path / "report.csv"
    assert main(["bench", "--suite", str(tmp_path), "--algs", "exact,max-subgraph",
                 "--csv", str(csv_path)]) == 0
    assert len(calls) == 1 and isinstance(calls[0], SplitGraph)
    assert capsys.readouterr().err == ""
    with open(csv_path, newline="") as handle:
        exact, kept = csv.DictReader(handle)
    assert exact["cost"] == exact["lower_bound"] == exact["opt"] == "28"
    assert (kept["cost"], kept["opt"], kept["ratio"]) == ("87", "89", "89/87")


def test_verify_accepts_solver_output(tmp_path, capsys):
    # a solved instance always verifies as feasible and minimal
    for seed in (3, 4, 5):
        instance = tmp_path / f"v{seed}.bip"
        assert main(["gen", "--family", "bip-random", "--seed", str(seed), "--t", "3",
                     "--na", "4", "--nb", "7", "--m", "18",
                     "--output", str(instance)]) == 0
        for alg in ("primal-dual", "local-ratio"):
            assert main(["solve", "--alg", alg, "--input", str(instance), "--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            solution = tmp_path / "sol.txt"
            solution.write_text(" ".join(str(v) for v in payload["solution"]))
            assert main(["verify", "--input", str(instance),
                         "--solution", str(solution)]) == 0
            line = capsys.readouterr().out
            assert "feasible=true minimal=true" in line


# Each command names one path it cannot write or read: {out} lies in a missing
# directory, {tmp} holds g1.bip, h.hyp and sol.txt, and {tmp}/suite holds g1.bip.
FILE_ERRORS = {
    "gen-output": ("gen --family bip-dense --seed 1 --t 3 --na 2 --nb 4 --output {out}", "{out}"),
    "reduce-output": ("reduce --kind hvc-osbcd --input {tmp}/h.hyp --output {out}", "{out}"),
    "reduce-map": ("reduce --kind hvc-osbcd --input {tmp}/h.hyp --output {tmp}/g.bip --map {out}",
                   "{out}"),
    "solve-trace": ("solve --alg primal-dual --input {tmp}/g1.bip --trace {out}", "{out}"),
    "bench-csv": ("bench --suite {tmp}/suite --algs primal-dual --csv {out}", "{out}"),
    "missing-input": ("solve --alg primal-dual --input {tmp}/none.bip", "{tmp}/none.bip"),
    "directory-input": ("verify --input {tmp}/suite --solution {tmp}/sol.txt", "{tmp}/suite"),
    "missing-solution": ("verify --input {tmp}/g1.bip --solution {tmp}/none.txt",
                         "{tmp}/none.txt"),
    "directory-solution": ("verify --input {tmp}/g1.bip --solution {tmp}/suite", "{tmp}/suite"),
    "missing-suite": ("bench --suite {tmp}/none --algs primal-dual --csv {tmp}/x.csv",
                      "{tmp}/none"),
    "file-suite": ("bench --suite {tmp}/g1.bip --algs primal-dual --csv {tmp}/x.csv",
                   "{tmp}/g1.bip"),
}


@pytest.mark.parametrize("argv, path", FILE_ERRORS.values(), ids=FILE_ERRORS)
def test_a_file_error_exits_2_with_one_line_naming_the_path(tmp_path, capsys, argv, path):
    write(tmp_path / "g1.bip", G1_TEXT)
    write(tmp_path / "h.hyp", "p hyp 6 2 3\nh 1 2 3\nh 4 5 6\n")
    write(tmp_path / "sol.txt", "1\n")
    (tmp_path / "suite").mkdir()
    write(tmp_path / "suite" / "g1.bip", G1_TEXT)
    paths = {"tmp": tmp_path, "out": tmp_path / "missing" / "out.txt"}
    assert main([token.format(**paths) for token in argv.split()]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert path.format(**paths) in err and "Traceback" not in err


def test_bench_unknown_algorithm(tmp_path, capsys):
    assert main(["bench", "--suite", str(tmp_path), "--algs", "magic",
                 "--csv", str(tmp_path / "x.csv")]) == 2
    capsys.readouterr()


def test_unknown_subcommand_is_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_one_parser_serves_many_calls_like_fresh_processes(tmp_path, capsys, monkeypatch):
    """Each call in one process prints and exits as `python -m clawdel` does."""
    instance = write(tmp_path / "g1.bip", G1_TEXT)
    solution = write(tmp_path / "sol.txt", "1\n")
    calls = [
        ["verify", "--input", instance, "--solution", solution],
        ["solve", "--alg", "magic", "--input", instance],
        ["gen", "--family", "bip-dense", "--seed", "+7", "--t", "3", "--na", "2", "--nb", "4",
         "--output", str(tmp_path / "x.bip")],
        ["verify", "--input", instance, "--solution", solution],
        ["solve", "--help"],
        ["verify", "--input", instance],
        ["verify", "--input", instance, "--solution", solution],
    ]
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        got = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "clawdel", *argv], capture_output=True,
                               text=True, env=env, check=False)
        assert (code, got.out, got.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize(
    "text, argv",
    [
        ("p bip 200000000 0 0 3\n", ["solve", "--alg", "primal-dual"]),
        ("p split 200000000 0 0 3\n", ["solve", "--alg", "primal-dual"]),
        ("p hyp 200000000 0 3\n", ["reduce", "--kind", "hvc-osbcd", "--output", "out.bip"]),
    ],
)
def test_oversized_header_exits_2_on_line_1(tmp_path, capsys, monkeypatch, text, argv):
    monkeypatch.chdir(tmp_path)
    instance = write(tmp_path / "huge.txt", text)
    assert main(argv + ["--input", instance]) == 2
    err = capsys.readouterr().err
    assert err == ("error: line 1: header declares 200000000 vertices, "
                   "more than the limit 5000000\n")
    assert not (tmp_path / "out.bip").exists()


def test_a_token_with_too_many_digits_exits_2(tmp_path, capsys):
    # int() refuses more than 4,300 digits by default; that is a bad input, not a crash
    long = "9" * 5000
    instance = write(tmp_path / "long.bip", f"p bip 1 1 1 3\ne 1 {long}\n")
    assert main(["solve", "--alg", "primal-dual", "--input", instance]) == 2
    assert capsys.readouterr().err == "error: line 2: edge endpoint has too many digits\n"
    good = write(tmp_path / "g.bip", "p bip 1 1 1 3\ne 1 2\n")
    solution = write(tmp_path / "long.sol", f"{long}\n")
    assert main(["verify", "--input", good, "--solution", solution]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--family", "bip-random", "--seed", "1", "--t", "3", "--na", long,
              "--nb", "1", "--m", "0", "--output", str(tmp_path / "out.bip")])
    assert exc.value.code == 2
    assert not (tmp_path / "out.bip").exists()


@pytest.mark.parametrize("alg", ["primal-dual", "local-ratio"])
def test_two_million_isolated_vertices_still_solve(tmp_path, capsys, alg):
    instance = write(tmp_path / "wide.bip", "p bip 2000000 0 0 3\n")
    assert main(["solve", "--alg", alg, "--input", instance, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["solution"], payload["cost"], payload["lower_bound"]) == ([], "0", "0")
