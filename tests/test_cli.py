import csv
import json

import pytest

from clawdel.cli import main

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


def test_solve_text_output(tmp_path, capsys):
    instance = write(tmp_path / "g1.bip", G1_TEXT)
    assert main(["solve", "--alg", "primal-dual", "--input", instance]) == 0
    out = capsys.readouterr().out
    assert "solution: 1" in out
    assert "cost: 1" in out
    assert "lower_bound: 1" in out
    assert "theta: 1" in out


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


def test_solve_oracle_guard_exits_3(tmp_path, capsys):
    instance = write(tmp_path / "big.bip", thirteen_stars())
    assert main(["solve", "--alg", "exact", "--input", instance]) == 3
    assert "too large for oracle" in capsys.readouterr().err


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
    instance = write(tmp_path / "g1.bip", G1_TEXT)
    solution = write(tmp_path / "sol.txt", "42")
    assert main(["verify", "--input", instance, "--solution", solution]) == 2
    capsys.readouterr()


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


def test_reduce_kind_input_mismatch(tmp_path, capsys):
    instance = write(tmp_path / "g1.bip", G1_TEXT)
    assert main(["reduce", "--kind", "hvc-osbcd", "--input", instance,
                 "--output", str(tmp_path / "o.bip")]) == 2
    capsys.readouterr()


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
    capsys.readouterr()


def test_gen_infeasible_spec_exits_2(tmp_path, capsys):
    assert main(["gen", "--family", "regular-graph", "--seed", "1", "--t", "3",
                 "--n", "5", "--output", str(tmp_path / "x.hyp")]) == 2
    assert "odd" in capsys.readouterr().err


def test_bench_writes_csv(tmp_path, capsys):
    for seed in (1, 2):
        assert main(["gen", "--family", "bip-dense", "--seed", str(seed), "--t", "3",
                     "--na", "3", "--nb", "6",
                     "--output", str(tmp_path / f"i{seed}.bip")]) == 0
    csv_path = tmp_path / "report.csv"
    assert main(["bench", "--suite", str(tmp_path), "--algs",
                 "primal-dual,local-ratio,exact,max-subgraph",
                 "--csv", str(csv_path)]) == 0
    capsys.readouterr()
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


def test_bench_unknown_algorithm(tmp_path, capsys):
    assert main(["bench", "--suite", str(tmp_path), "--algs", "magic",
                 "--csv", str(tmp_path / "x.csv")]) == 2
    capsys.readouterr()


def test_unknown_subcommand_is_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
