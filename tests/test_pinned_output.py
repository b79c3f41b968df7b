"""Byte-exact CLI output, pinned to recorded literals.

Criterion 12 compares a run with a second run of the same code, so it
cannot notice a change that alters the output for good. This module
holds the recorded `solve --json` output (time_ms masked), the
`--trace` text, the exit codes, the stderr text and the `bench` CSV for
every algorithm on the seed-42 determinism instances, the g1/h2
fixtures, a split instance whose shadow solution fails on the split
graph, and a seed-0 graph the exact oracle refuses (exit 3, blank
`opt`). It also holds the `gen` bytes of the generated instances, the
`reduce` output and map bytes of both split reductions, and the exit
code and stderr of `solve` on malformed `p bip` and `p split` text.
Any diff here is a change of the CLI contract.
"""

import contextlib
import io
import re

import pytest

from clawdel.cli import main

ALGS = ("primal-dual", "local-ratio", "exact", "max-subgraph")

GENERATED = {
    "bip-random.bip": ["bip-random", "--na", "4", "--nb", "6", "--m", "10", "--weights", "1:5"],
    "bip-dense.bip": ["bip-dense", "--na", "3", "--nb", "8", "--weights", "1:5"],
    "split-random.split": ["split-random", "--nc", "3", "--ni", "5", "--m", "8",
                           "--weights", "1:5"],
    "instance.bip": ["bip-dense", "--na", "3", "--nb", "6"],
    "instance.split": ["split-random", "--nc", "2", "--ni", "5", "--m", "10"],
    # primal-dual's bound is not tight here, and the oracle's search reaches
    # its depth bound before it certifies an optimum
    "hard.bip": ["bip-random", "--na", "13", "--nb", "16", "--m", "100"],
}
SEEDS = {"hard.bip": 0}  # every other instance is drawn with seed 42
WRITTEN = {
    "g1.bip": "p bip 1 4 4 3\ne 1 2\ne 1 3\ne 1 4\ne 1 5\n",
    "h2.split": "p split 2 3 6 3\n" + "".join(f"e {c} {i}\n" for c in (1, 2) for i in (3, 4, 5)),
    "mismatch.split": "p split 2 2 2 3\ne 1 3\ne 1 4\n",
    "claw-free.bip": "p bip 1 2 2 3\ne 1 2\ne 1 3\n",
    # thirteen disjoint stars: past the oracle's search depth, but certified by
    # primal-dual's bound
    "stars.bip": "p bip 13 39 39 3\n" + "".join(
        f"e {k + 1} {14 + 3 * k + i}\n" for k in range(13) for i in range(3)
    ),
}
SUITE = sorted([*GENERATED, *WRITTEN])


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def build_suite(directory):
    for name, (family, *flags) in GENERATED.items():
        argv = ["gen", "--family", family, "--seed", str(SEEDS.get(name, 42)), "--t", "3",
                "--output", str(directory / name), *flags]
        assert run(argv)[0] == 0
    for name, text in WRITTEN.items():
        (directory / name).write_text(text, encoding="utf-8")


def solve_json(path, alg):
    code, out, err = run(["solve", "--alg", alg, "--input", str(path), "--json"])
    return code, re.sub(r'"time_ms": \d+', '"time_ms": 0', out), err


def solve_trace(path, trace):
    trace.unlink(missing_ok=True)
    code, _, err = run(["solve", "--alg", "primal-dual", "--input", str(path),
                        "--trace", str(trace)])
    return code, trace.read_text(encoding="utf-8") if trace.exists() else None, err


def reduce_outputs(path, kind, directory):
    out, rmap = directory / f"reduced-{kind}.txt", directory / f"reduced-{kind}.map"
    code, stdout, err = run(["reduce", "--kind", kind, "--input", str(path),
                             "--output", str(out), "--map", str(rmap)])
    return (code, stdout, err, out.read_text(encoding="utf-8"),
            rmap.read_text(encoding="utf-8"))


def bench_csv(directory, csv_path):
    code, out, err = run(["bench", "--suite", str(directory), "--algs", ",".join(ALGS),
                          "--csv", str(csv_path)])
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    masked = [re.sub(r",\d+$", ",0", line) for line in lines]
    return code, out, err, "\n".join(masked) + "\n"


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    directory = tmp_path_factory.mktemp("pinned")
    build_suite(directory)
    return directory


SOLVE = {
    ('bip-dense.bip', 'primal-dual'): (0, '{"solution": [2, 3, 4, 6], "cost": "13", "lower_bound": "29/3", "theta": "15/11", "algorithm": "primal-dual", "iterations": 4, "time_ms": 0}\n', ''),
    ('bip-dense.bip', 'local-ratio'): (0, '{"solution": [4, 5, 6, 7, 8, 9], "cost": "19", "lower_bound": "7", "theta": "14/11", "algorithm": "local-ratio", "iterations": 4, "time_ms": 0}\n', ''),
    ('bip-dense.bip', 'exact'): (0, '{"solution": [1, 2, 3], "cost": "11", "lower_bound": "11", "theta": "1", "algorithm": "exact", "iterations": 0, "time_ms": 0}\n', ''),
    ('bip-dense.bip', 'max-subgraph'): (0, '{"solution": [4, 5, 6, 7, 8, 9, 10, 11], "cost": "25", "lower_bound": null, "theta": null, "algorithm": "max-subgraph", "iterations": 0, "time_ms": 0}\n', ''),
    ('bip-random.bip', 'primal-dual'): (0, '{"solution": [2, 5, 9], "cost": "4", "lower_bound": "4", "theta": "1", "algorithm": "primal-dual", "iterations": 3, "time_ms": 0}\n', ''),
    ('bip-random.bip', 'local-ratio'): (0, '{"solution": [2, 5, 9], "cost": "4", "lower_bound": "4", "theta": "1", "algorithm": "local-ratio", "iterations": 3, "time_ms": 0}\n', ''),
    ('bip-random.bip', 'exact'): (0, '{"solution": [2, 5, 9], "cost": "4", "lower_bound": "4", "theta": "1", "algorithm": "exact", "iterations": 0, "time_ms": 0}\n', ''),
    ('bip-random.bip', 'max-subgraph'): (0, '{"solution": [1, 3, 4, 6, 7, 8, 10], "cost": "23", "lower_bound": null, "theta": null, "algorithm": "max-subgraph", "iterations": 0, "time_ms": 0}\n', ''),
    ('claw-free.bip', 'primal-dual'): (0, '{"solution": [], "cost": "0", "lower_bound": "0", "theta": "0", "algorithm": "primal-dual", "iterations": 0, "time_ms": 0}\n', ''),
    ('claw-free.bip', 'local-ratio'): (0, '{"solution": [], "cost": "0", "lower_bound": "0", "theta": "0", "algorithm": "local-ratio", "iterations": 0, "time_ms": 0}\n', ''),
    ('claw-free.bip', 'exact'): (0, '{"solution": [], "cost": "0", "lower_bound": "0", "theta": "0", "algorithm": "exact", "iterations": 0, "time_ms": 0}\n', ''),
    ('claw-free.bip', 'max-subgraph'): (0, '{"solution": [1, 2, 3], "cost": "3", "lower_bound": null, "theta": null, "algorithm": "max-subgraph", "iterations": 0, "time_ms": 0}\n', ''),
    ('g1.bip', 'primal-dual'): (0, '{"solution": [1], "cost": "1", "lower_bound": "1", "theta": "1", "algorithm": "primal-dual", "iterations": 1, "time_ms": 0}\n', ''),
    ('g1.bip', 'local-ratio'): (0, '{"solution": [1], "cost": "1", "lower_bound": "1", "theta": "1", "algorithm": "local-ratio", "iterations": 1, "time_ms": 0}\n', ''),
    ('g1.bip', 'exact'): (0, '{"solution": [1], "cost": "1", "lower_bound": "1", "theta": "1", "algorithm": "exact", "iterations": 0, "time_ms": 0}\n', ''),
    ('g1.bip', 'max-subgraph'): (0, '{"solution": [2, 3, 4, 5], "cost": "4", "lower_bound": null, "theta": null, "algorithm": "max-subgraph", "iterations": 0, "time_ms": 0}\n', ''),
    ('h2.split', 'primal-dual'): (0, '{"solution": [3], "cost": "1", "lower_bound": "1", "theta": "1", "algorithm": "primal-dual", "iterations": 1, "time_ms": 0}\n', ''),
    ('h2.split', 'local-ratio'): (0, '{"solution": [3], "cost": "1", "lower_bound": "1", "theta": "1", "algorithm": "local-ratio", "iterations": 1, "time_ms": 0}\n', ''),
    ('h2.split', 'exact'): (0, '{"solution": [3], "cost": "1", "lower_bound": "1", "theta": "1", "algorithm": "exact", "iterations": 0, "time_ms": 0}\n', ''),
    ('h2.split', 'max-subgraph'): (0, '{"solution": [1, 2, 4, 5], "cost": "4", "lower_bound": null, "theta": null, "algorithm": "max-subgraph", "iterations": 0, "time_ms": 0}\n', ''),
    ('hard.bip', 'primal-dual'): (0, '{"solution": [2, 6, 14, 15, 16, 18, 21, 24, 25, 26, 27, 28, 29], "cost": "13", "lower_bound": "72697/6720", "theta": "89/74", "algorithm": "primal-dual", "iterations": 17, "time_ms": 0}\n', ''),
    ('hard.bip', 'local-ratio'): (0, '{"solution": [6, 14, 15, 16, 17, 18, 19, 20, 21, 22, 26, 27, 28, 29], "cost": "14", "lower_bound": "5", "theta": "87/74", "algorithm": "local-ratio", "iterations": 5, "time_ms": 0}\n', ''),
    ('hard.bip', 'exact'): (3, '', 'error: too large for oracle: search depth bound 12 exceeded\n'),
    ('hard.bip', 'max-subgraph'): (0, '{"solution": [1, 3, 4, 5, 7, 8, 9, 10, 11, 12, 13, 17, 19, 20, 22, 23], "cost": "16", "lower_bound": null, "theta": null, "algorithm": "max-subgraph", "iterations": 0, "time_ms": 0}\n', ''),
    ('instance.bip', 'primal-dual'): (0, '{"solution": [1, 2, 3], "cost": "3", "lower_bound": "3", "theta": "1", "algorithm": "primal-dual", "iterations": 3, "time_ms": 0}\n', ''),
    ('instance.bip', 'local-ratio'): (0, '{"solution": [1, 2, 4, 5], "cost": "4", "lower_bound": "2", "theta": "7/5", "algorithm": "local-ratio", "iterations": 2, "time_ms": 0}\n', ''),
    ('instance.bip', 'exact'): (0, '{"solution": [1, 2, 3], "cost": "3", "lower_bound": "3", "theta": "1", "algorithm": "exact", "iterations": 0, "time_ms": 0}\n', ''),
    ('instance.bip', 'max-subgraph'): (0, '{"solution": [4, 5, 6, 7, 8, 9], "cost": "6", "lower_bound": null, "theta": null, "algorithm": "max-subgraph", "iterations": 0, "time_ms": 0}\n', ''),
    ('instance.split', 'primal-dual'): (0, '{"solution": [1, 2], "cost": "2", "lower_bound": "2", "theta": "1", "algorithm": "primal-dual", "iterations": 2, "time_ms": 0}\n', ''),
    ('instance.split', 'local-ratio'): (0, '{"solution": [3, 4, 5], "cost": "3", "lower_bound": "1", "theta": "1", "algorithm": "local-ratio", "iterations": 1, "time_ms": 0}\n', ''),
    ('instance.split', 'exact'): (0, '{"solution": [1, 2], "cost": "2", "lower_bound": "2", "theta": "1", "algorithm": "exact", "iterations": 0, "time_ms": 0}\n', ''),
    ('instance.split', 'max-subgraph'): (0, '{"solution": [3, 4, 5, 6, 7], "cost": "5", "lower_bound": null, "theta": null, "algorithm": "max-subgraph", "iterations": 0, "time_ms": 0}\n', ''),
    ('mismatch.split', 'primal-dual'): (1, '', 'error: shadow solution [] leaves a split claw with center 1 and leaves [2, 3, 4]\n'),
    ('mismatch.split', 'local-ratio'): (1, '', 'error: shadow solution [] leaves a split claw with center 1 and leaves [2, 3, 4]\n'),
    ('mismatch.split', 'exact'): (0, '{"solution": [1], "cost": "1", "lower_bound": "1", "theta": "0", "algorithm": "exact", "iterations": 0, "time_ms": 0}\n', ''),
    ('mismatch.split', 'max-subgraph'): (0, '{"solution": [1, 2], "cost": "2", "lower_bound": null, "theta": null, "algorithm": "max-subgraph", "iterations": 0, "time_ms": 0}\n', ''),
    ('split-random.split', 'primal-dual'): (1, '', 'error: shadow solution [1] leaves a split claw with center 3 and leaves [2, 4, 5]\n'),
    ('split-random.split', 'local-ratio'): (1, '', 'error: shadow solution [1] leaves a split claw with center 3 and leaves [2, 4, 5]\n'),
    ('split-random.split', 'exact'): (0, '{"solution": [1, 3], "cost": "2", "lower_bound": "2", "theta": "1", "algorithm": "exact", "iterations": 0, "time_ms": 0}\n', ''),
    ('split-random.split', 'max-subgraph'): (0, '{"solution": [4, 5, 6, 7, 8], "cost": "12", "lower_bound": null, "theta": null, "algorithm": "max-subgraph", "iterations": 0, "time_ms": 0}\n', ''),
    ('stars.bip', 'primal-dual'): (0, '{"solution": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13], "cost": "13", "lower_bound": "13", "theta": "1", "algorithm": "primal-dual", "iterations": 13, "time_ms": 0}\n', ''),
    ('stars.bip', 'local-ratio'): (0, '{"solution": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13], "cost": "13", "lower_bound": "13", "theta": "1", "algorithm": "local-ratio", "iterations": 13, "time_ms": 0}\n', ''),
    ('stars.bip', 'exact'): (0, '{"solution": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13], "cost": "13", "lower_bound": "13", "theta": "1", "algorithm": "exact", "iterations": 0, "time_ms": 0}\n', ''),
    ('stars.bip', 'max-subgraph'): (0, '{"solution": [14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52], "cost": "39", "lower_bound": null, "theta": null, "algorithm": "max-subgraph", "iterations": 0, "time_ms": 0}\n', ''),
}
TRACES = {
    'bip-dense.bip': (0, '# dual trace (primal-dual): raise amount, tight vertex, active set\nraise 1/6 tight 3 active 1 2 3 4 5 6 7 8 9 10 11\nraise 1/2 tight 2 active 1 2 4 5 6 7 8 9 10 11\nraise 0 tight 6 active 1 4 5 6 7 8 9 10 11\nraise 1/2 tight 4 active 1 4 5 7 8 9 10 11\n', ''),
    'bip-random.bip': (0, '# dual trace (primal-dual): raise amount, tight vertex, active set\nraise 1/4 tight 9 active 1 2 3 4 5 6 7 8 9 10\nraise 1/4 tight 2 active 1 2 3 4 5 6 7 8 10\nraise 1/2 tight 5 active 1 3 4 5 6 7 8 10\n', ''),
    'claw-free.bip': (0, '# dual trace (primal-dual): raise amount, tight vertex, active set\n', ''),
    'g1.bip': (0, '# dual trace (primal-dual): raise amount, tight vertex, active set\nraise 1/4 tight 1 active 1 2 3 4 5\n', ''),
    'h2.split': (0, '# dual trace (primal-dual): raise amount, tight vertex, active set\nraise 1/4 tight 3 active 1 2 3 4 5\n', ''),
    'hard.bip': (0, '# dual trace (primal-dual): raise amount, tight vertex, active set\nraise 1/16 tight 9 active 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29\nraise 0 tight 13 active 1 2 3 4 5 6 7 8 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29\nraise 0 tight 15 active 1 2 3 4 5 6 7 8 10 11 12 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29\nraise 0 tight 18 active 1 2 3 4 5 6 7 8 10 11 12 14 16 17 18 19 20 21 22 23 24 25 26 27 28 29\nraise 0 tight 24 active 1 2 3 4 5 6 7 8 10 11 12 14 16 17 19 20 21 22 23 24 25 26 27 28 29\nraise 0 tight 29 active 1 2 3 4 5 6 7 8 10 11 12 14 16 17 19 20 21 22 23 25 26 27 28 29\nraise 1/112 tight 14 active 1 2 3 4 5 6 7 8 10 11 12 14 16 17 19 20 21 22 23 25 26 27 28\nraise 1/280 tight 25 active 1 2 3 4 5 6 7 8 10 11 12 16 17 19 20 21 22 23 25 26 27 28\nraise 1/840 tight 2 active 1 2 3 4 5 6 7 8 10 11 12 16 17 19 20 21 22 23 26 27 28\nraise 0 tight 8 active 1 3 4 5 6 7 8 10 11 12 16 17 19 20 21 22 23 26 27 28\nraise 23/3360 tight 6 active 1 3 4 5 6 7 10 11 12 16 17 19 20 21 22 23 26 27 28\nraise 7/960 tight 21 active 1 3 4 5 7 10 11 12 16 17 19 20 21 22 23 26 27 28\nraise 187/20160 tight 27 active 1 3 4 5 7 10 11 12 16 17 19 20 22 23 26 27 28\nraise 1/420 tight 5 active 1 3 4 5 7 10 11 12 16 17 19 20 22 23 26 28\nraise 13/5760 tight 26 active 1 3 4 7 10 11 12 16 17 19 20 22 23 26 28\nraise 367/80640 tight 28 active 1 3 4 7 10 11 12 16 17 19 20 22 23 28\nraise 191/16128 tight 16 active 1 3 4 7 10 11 12 16 17 19 20 22 23\n', ''),
    'instance.bip': (0, '# dual trace (primal-dual): raise amount, tight vertex, active set\nraise 1/8 tight 1 active 1 2 3 4 5 6 7 8 9\nraise 0 tight 2 active 2 3 4 5 6 7 8 9\nraise 1/8 tight 3 active 3 4 5 6 7 8 9\n', ''),
    'instance.split': (0, '# dual trace (primal-dual): raise amount, tight vertex, active set\nraise 1/6 tight 1 active 1 2 3 4 5 6 7\nraise 0 tight 2 active 2 3 4 5 6 7\n', ''),
    'mismatch.split': (1, None, 'error: shadow solution [] leaves a split claw with center 1 and leaves [2, 3, 4]\n'),
    'split-random.split': (1, None, 'error: shadow solution [1] leaves a split claw with center 3 and leaves [2, 4, 5]\n'),
    'stars.bip': (0, '# dual trace (primal-dual): raise amount, tight vertex, active set\nraise 1/2 tight 1 active 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52\nraise 0 tight 2 active 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52\nraise 0 tight 3 active 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52\nraise 0 tight 4 active 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52\nraise 0 tight 5 active 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52\nraise 0 tight 6 active 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52\nraise 0 tight 7 active 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52\nraise 0 tight 8 active 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52\nraise 0 tight 9 active 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52\nraise 0 tight 10 active 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52\nraise 0 tight 11 active 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52\nraise 0 tight 12 active 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52\nraise 0 tight 13 active 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52\n', ''),
}
BENCH_STDERR = """\
warning: hard.bip: oracle skipped (size guard)
warning: hard.bip [exact]: too large for oracle: search depth bound 12 exceeded
warning: mismatch.split [primal-dual]: shadow solution [] leaves a split claw with center 1 and leaves [2, 3, 4]
warning: mismatch.split [local-ratio]: shadow solution [] leaves a split claw with center 1 and leaves [2, 3, 4]
warning: split-random.split [primal-dual]: shadow solution [1] leaves a split claw with center 3 and leaves [2, 4, 5]
warning: split-random.split [local-ratio]: shadow solution [1] leaves a split claw with center 3 and leaves [2, 4, 5]
"""
BENCH_CSV = """\
instance,algorithm,t,cost,lower_bound,opt,ratio,theta,time_ms
bip-dense.bip,primal-dual,3,13,29/3,11,13/11,15/11,0
bip-dense.bip,local-ratio,3,19,7,11,19/11,14/11,0
bip-dense.bip,exact,3,11,11,11,1,1,0
bip-dense.bip,max-subgraph,3,25,,25,1,,0
bip-random.bip,primal-dual,3,4,4,4,1,1,0
bip-random.bip,local-ratio,3,4,4,4,1,1,0
bip-random.bip,exact,3,4,4,4,1,1,0
bip-random.bip,max-subgraph,3,23,,23,1,,0
claw-free.bip,primal-dual,3,0,0,0,1,0,0
claw-free.bip,local-ratio,3,0,0,0,1,0,0
claw-free.bip,exact,3,0,0,0,1,0,0
claw-free.bip,max-subgraph,3,3,,3,1,,0
g1.bip,primal-dual,3,1,1,1,1,1,0
g1.bip,local-ratio,3,1,1,1,1,1,0
g1.bip,exact,3,1,1,1,1,1,0
g1.bip,max-subgraph,3,4,,4,1,,0
h2.split,primal-dual,3,1,1,1,1,1,0
h2.split,local-ratio,3,1,1,1,1,1,0
h2.split,exact,3,1,1,1,1,1,0
h2.split,max-subgraph,3,4,,4,1,,0
hard.bip,primal-dual,3,13,72697/6720,,,89/74,0
hard.bip,local-ratio,3,14,5,,,87/74,0
hard.bip,exact,3,,,,,,
hard.bip,max-subgraph,3,16,,,,,0
instance.bip,primal-dual,3,3,3,3,1,1,0
instance.bip,local-ratio,3,4,2,3,4/3,7/5,0
instance.bip,exact,3,3,3,3,1,1,0
instance.bip,max-subgraph,3,6,,6,1,,0
instance.split,primal-dual,3,2,2,2,1,1,0
instance.split,local-ratio,3,3,1,2,3/2,1,0
instance.split,exact,3,2,2,2,1,1,0
instance.split,max-subgraph,3,5,,5,1,,0
mismatch.split,primal-dual,3,,,,,,
mismatch.split,local-ratio,3,,,,,,
mismatch.split,exact,3,1,1,1,1,0,0
mismatch.split,max-subgraph,3,2,,3,3/2,,0
split-random.split,primal-dual,3,,,,,,
split-random.split,local-ratio,3,,,,,,
split-random.split,exact,3,2,2,2,1,1,0
split-random.split,max-subgraph,3,12,,17,17/12,,0
stars.bip,primal-dual,3,13,13,13,1,1,0
stars.bip,local-ratio,3,13,13,13,1,1,0
stars.bip,exact,3,13,13,13,1,1,0
stars.bip,max-subgraph,3,39,,39,1,,0
"""


@pytest.mark.parametrize("name,alg", sorted(SOLVE))
def test_solve_json_is_pinned(suite, name, alg):
    assert solve_json(suite / name, alg) == SOLVE[name, alg]


@pytest.mark.parametrize("name", SUITE)
def test_trace_is_pinned(suite, tmp_path, name):
    assert solve_trace(suite / name, tmp_path / "trace.txt") == TRACES[name]


def test_bench_csv_is_pinned(suite, tmp_path):
    assert bench_csv(suite, tmp_path / "bench.csv") == (0, "", BENCH_STDERR, BENCH_CSV)


GEN = {
    'bip-dense.bip': '# gen bip-dense seed=42 t=3 na=3 nb=8 weights=uniform:1:5 rng=mersenne-twister\np bip 3 8 17 3\nn 1 5\nn 2 4\nn 3 2\nn 4 4\nn 5 5\nn 6 3\nn 8 2\nn 9 4\nn 10 3\nn 11 3\ne 1 4\ne 1 5\ne 1 6\ne 1 9\ne 2 4\ne 2 6\ne 2 8\ne 2 9\ne 2 10\ne 3 4\ne 3 5\ne 3 6\ne 3 7\ne 3 8\ne 3 9\ne 3 10\ne 3 11\n',
    'bip-random.bip': '# gen bip-random seed=42 t=3 m=10 na=4 nb=6 weights=uniform:1:5 rng=mersenne-twister\np bip 4 6 10 3\nn 1 4\nn 5 2\nn 6 2\nn 7 5\nn 8 5\nn 10 5\ne 1 5\ne 1 7\ne 1 8\ne 1 9\ne 2 6\ne 2 7\ne 2 8\ne 4 6\ne 4 7\ne 4 9\n',
    'hard.bip': '# gen bip-random seed=0 t=3 m=100 na=13 nb=16 weights=unit rng=mersenne-twister\np bip 13 16 100 3\ne 1 14\ne 1 17\ne 1 18\ne 1 22\ne 1 24\ne 1 25\ne 1 29\ne 2 14\ne 2 16\ne 2 17\ne 2 18\ne 2 21\ne 2 22\ne 2 23\ne 2 25\ne 2 29\ne 3 15\ne 3 17\ne 3 18\ne 3 19\ne 3 29\ne 4 14\ne 4 18\ne 4 21\ne 4 22\ne 4 26\ne 4 27\ne 4 28\ne 5 14\ne 5 16\ne 5 22\ne 5 23\ne 5 24\ne 5 27\ne 5 28\ne 5 29\ne 6 14\ne 6 15\ne 6 17\ne 6 18\ne 6 19\ne 6 20\ne 6 23\ne 6 24\ne 6 25\ne 7 14\ne 7 16\ne 7 20\ne 7 21\ne 7 23\ne 7 25\ne 7 29\ne 8 14\ne 8 15\ne 8 16\ne 8 22\ne 8 24\ne 8 25\ne 8 26\ne 8 27\ne 8 28\ne 9 15\ne 9 16\ne 9 18\ne 9 19\ne 9 22\ne 9 24\ne 9 25\ne 9 26\ne 9 27\ne 9 29\ne 10 15\ne 10 19\ne 10 21\ne 10 23\ne 10 24\ne 10 26\ne 10 28\ne 11 15\ne 11 17\ne 11 21\ne 11 24\ne 11 26\ne 11 29\ne 12 15\ne 12 17\ne 12 18\ne 12 20\ne 12 27\ne 12 28\ne 13 15\ne 13 16\ne 13 18\ne 13 20\ne 13 21\ne 13 24\ne 13 25\ne 13 26\ne 13 27\ne 13 29\n',
    'instance.bip': '# gen bip-dense seed=42 t=3 na=3 nb=6 weights=unit rng=mersenne-twister\np bip 3 6 16 3\ne 1 4\ne 1 5\ne 1 6\ne 1 7\ne 1 8\ne 1 9\ne 2 4\ne 2 5\ne 2 6\ne 2 7\ne 2 8\ne 2 9\ne 3 4\ne 3 5\ne 3 6\ne 3 8\n',
    'instance.split': '# gen split-random seed=42 t=3 m=10 nc=2 ni=5 weights=unit rng=mersenne-twister\np split 2 5 10 3\ne 1 3\ne 1 4\ne 1 5\ne 1 6\ne 1 7\ne 2 3\ne 2 4\ne 2 5\ne 2 6\ne 2 7\n',
    'split-random.split': '# gen split-random seed=42 t=3 m=8 nc=3 ni=5 weights=uniform:1:5 rng=mersenne-twister\np split 3 5 8 3\nn 2 5\nn 4 5\nn 5 4\ne 1 4\ne 1 5\ne 1 6\ne 1 7\ne 1 8\ne 2 8\ne 3 4\ne 3 5\n',
}
REDUCE = {
    ('osbcd-split', 'bip-random.bip'): (0, '', '', 'p split 4 6 10 3\nn 1 4\nn 5 2\nn 6 2\nn 7 5\nn 8 5\nn 10 5\ne 1 5\ne 1 7\ne 1 8\ne 1 9\ne 2 6\ne 2 7\ne 2 8\ne 4 6\ne 4 7\ne 4 9\n', 'map osbcd-split\ng clique 1 4\ng independent 5 10\noffset 0\n'),
    ('osbcd-split', 'bip-dense.bip'): (0, '', '', 'p split 3 8 17 3\nn 1 5\nn 2 4\nn 3 2\nn 4 4\nn 5 5\nn 6 3\nn 8 2\nn 9 4\nn 10 3\nn 11 3\ne 1 4\ne 1 5\ne 1 6\ne 1 9\ne 2 4\ne 2 6\ne 2 8\ne 2 9\ne 2 10\ne 3 4\ne 3 5\ne 3 6\ne 3 7\ne 3 8\ne 3 9\ne 3 10\ne 3 11\n', 'map osbcd-split\ng clique 1 3\ng independent 4 11\noffset 0\n'),
    ('split-osbcd', 'split-random.split'): (0, '', '', 'p bip 3 5 8 3\nn 2 5\nn 4 5\nn 5 4\ne 1 4\ne 1 5\ne 1 6\ne 1 7\ne 1 8\ne 2 8\ne 3 4\ne 3 5\n', 'map split-osbcd\ng A 1 3\ng B 4 8\noffset 0\n'),
    ('split-osbcd', 'mismatch.split'): (0, '', 'warning: split graph has a claw with a clique-vertex leaf; the bipartite shadow is claw free\n', 'p bip 2 2 2 3\ne 1 3\ne 1 4\n', '# warning: split graph has a claw with a clique-vertex leaf; the bipartite shadow is claw free\nmap split-osbcd\ng A 1 2\ng B 3 4\noffset 0\n'),
}
MALFORMED = {
    "bip-a-range": "p bip 2 3 1 3\ne 3 4\n",
    "bip-b-range": "p bip 2 3 1 3\ne 1 6\n",
    "bip-duplicate": "p bip 2 3 2 3\ne 1 3\ne 1 3\n",
    "bip-weight": "p bip 2 3 1 3\nn 4 x\ne 1 3\n",
    "bip-count": "p bip 2 3 2 3\ne 1 3\n",
    "bip-t2": "p bip 2 3 1 2\ne 1 3\n",
    "split-clique-range": "p split 2 3 1 3\ne 0 4\n",
    "split-indep-range": "p split 2 3 1 3\ne 1 2\n",
    "split-duplicate": "p split 2 3 2 3\ne 2 5\ne 2 5\n",
    "split-weight": "p split 2 3 1 3\nn 1 1/0\ne 1 3\n",
    "split-count": "p split 2 3 0 3\ne 1 3\n",
    "split-t2": "p split 2 3 1 2\ne 1 3\n",
}
MALFORMED_SOLVE = {
    'bip-a-range': (2, '', 'error: line 2: index 3 out of A-side range\n'),
    'bip-b-range': (2, '', 'error: line 2: index 6 out of B-side range\n'),
    'bip-count': (2, '', 'error: header declares 2 edges but 1 were listed\n'),
    'bip-duplicate': (2, '', 'error: line 3: duplicate edge (1, 3)\n'),
    'bip-t2': (2, '', 'error: line 1: claw parameter t must be >= 3, got 2\n'),
    'bip-weight': (2, '', "error: line 2: bad weight 'x' (expected 'k' or 'p/q')\n"),
    'split-clique-range': (2, '', 'error: line 2: index 0 out of clique-side range\n'),
    'split-count': (2, '', 'error: header declares 0 edges but 1 were listed\n'),
    'split-duplicate': (2, '', 'error: line 3: duplicate edge (2, 5)\n'),
    'split-indep-range': (2, '', 'error: line 2: index 2 out of independent-side range\n'),
    'split-t2': (2, '', 'error: line 1: claw parameter t must be >= 3, got 2\n'),
    'split-weight': (2, '', "error: line 2: bad weight '1/0' (expected 'k' or 'p/q')\n"),
}


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_gen_output_is_pinned(suite, name):
    assert (suite / name).read_text(encoding="utf-8") == GEN[name]


@pytest.mark.parametrize("kind,name", sorted(REDUCE))
def test_reduce_output_is_pinned(suite, tmp_path, kind, name):
    assert reduce_outputs(suite / name, kind, tmp_path) == REDUCE[kind, name]


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_solve_is_pinned(tmp_path, name):
    path = tmp_path / name
    path.write_text(MALFORMED[name], encoding="utf-8")
    assert run(["solve", "--alg", "primal-dual", "--input", str(path)]) == MALFORMED_SOLVE[name]
