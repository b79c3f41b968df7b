"""Byte-exact CLI output, pinned to recorded literals.

Criterion 12 compares a run with a second run of the same code, so it
cannot notice a change that alters the output for good. This module
holds the recorded `solve --json` output (time_ms masked), the
`--trace` text, the exit codes, the stderr text and the `bench` CSV for
every algorithm on the seed-42 determinism instances, the g1/h2
fixtures and a split instance whose shadow solution fails on the split
graph. Any diff here is a change of the CLI contract.
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
}
WRITTEN = {
    "g1.bip": "p bip 1 4 4 3\ne 1 2\ne 1 3\ne 1 4\ne 1 5\n",
    "h2.split": "p split 2 3 6 3\n" + "".join(f"e {c} {i}\n" for c in (1, 2) for i in (3, 4, 5)),
    "mismatch.split": "p split 2 2 2 3\ne 1 3\ne 1 4\n",
    "claw-free.bip": "p bip 1 2 2 3\ne 1 2\ne 1 3\n",
    # thirteen disjoint stars: past the oracle's depth guard
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
        argv = ["gen", "--family", family, "--seed", "42", "--t", "3",
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
    ('mismatch.split', 'exact'): (1, '', 'error: shadow solution [] leaves a split claw with center 1 and leaves [2, 3, 4]\n'),
    ('mismatch.split', 'max-subgraph'): (1, '', 'error: shadow solution [] leaves a split claw with center 1 and leaves [2, 3, 4]\n'),
    ('split-random.split', 'primal-dual'): (1, '', 'error: shadow solution [1] leaves a split claw with center 3 and leaves [2, 4, 5]\n'),
    ('split-random.split', 'local-ratio'): (1, '', 'error: shadow solution [1] leaves a split claw with center 3 and leaves [2, 4, 5]\n'),
    ('split-random.split', 'exact'): (1, '', 'error: shadow solution [1] leaves a split claw with center 3 and leaves [2, 4, 5]\n'),
    ('split-random.split', 'max-subgraph'): (1, '', 'error: shadow solution [1] leaves a split claw with center 3 and leaves [2, 4, 5]\n'),
    ('stars.bip', 'primal-dual'): (0, '{"solution": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13], "cost": "13", "lower_bound": "13", "theta": "1", "algorithm": "primal-dual", "iterations": 13, "time_ms": 0}\n', ''),
    ('stars.bip', 'local-ratio'): (0, '{"solution": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13], "cost": "13", "lower_bound": "13", "theta": "1", "algorithm": "local-ratio", "iterations": 13, "time_ms": 0}\n', ''),
    ('stars.bip', 'exact'): (3, '', 'error: too large for oracle: search depth bound 12 exceeded\n'),
    ('stars.bip', 'max-subgraph'): (0, '{"solution": [14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52], "cost": "39", "lower_bound": null, "theta": null, "algorithm": "max-subgraph", "iterations": 0, "time_ms": 0}\n', ''),
}
TRACES = {
    'bip-dense.bip': (0, '# dual trace (primal-dual): raise amount, tight vertex, active set\nraise 1/6 tight 3 active 1 2 3 4 5 6 7 8 9 10 11\nraise 1/2 tight 2 active 1 2 4 5 6 7 8 9 10 11\nraise 0 tight 6 active 1 4 5 6 7 8 9 10 11\nraise 1/2 tight 4 active 1 4 5 7 8 9 10 11\n', ''),
    'bip-random.bip': (0, '# dual trace (primal-dual): raise amount, tight vertex, active set\nraise 1/4 tight 9 active 1 2 3 4 5 6 7 8 9 10\nraise 1/4 tight 2 active 1 2 3 4 5 6 7 8 10\nraise 1/2 tight 5 active 1 3 4 5 6 7 8 10\n', ''),
    'claw-free.bip': (0, '# dual trace (primal-dual): raise amount, tight vertex, active set\n', ''),
    'g1.bip': (0, '# dual trace (primal-dual): raise amount, tight vertex, active set\nraise 1/4 tight 1 active 1 2 3 4 5\n', ''),
    'h2.split': (0, '# dual trace (primal-dual): raise amount, tight vertex, active set\nraise 1/4 tight 3 active 1 2 3 4 5\n', ''),
    'instance.bip': (0, '# dual trace (primal-dual): raise amount, tight vertex, active set\nraise 1/8 tight 1 active 1 2 3 4 5 6 7 8 9\nraise 0 tight 2 active 2 3 4 5 6 7 8 9\nraise 1/8 tight 3 active 3 4 5 6 7 8 9\n', ''),
    'instance.split': (0, '# dual trace (primal-dual): raise amount, tight vertex, active set\nraise 1/6 tight 1 active 1 2 3 4 5 6 7\nraise 0 tight 2 active 2 3 4 5 6 7\n', ''),
    'mismatch.split': (1, None, 'error: shadow solution [] leaves a split claw with center 1 and leaves [2, 3, 4]\n'),
    'split-random.split': (1, None, 'error: shadow solution [1] leaves a split claw with center 3 and leaves [2, 4, 5]\n'),
    'stars.bip': (0, '# dual trace (primal-dual): raise amount, tight vertex, active set\nraise 1/2 tight 1 active 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52\nraise 0 tight 2 active 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52\nraise 0 tight 3 active 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52\nraise 0 tight 4 active 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52\nraise 0 tight 5 active 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52\nraise 0 tight 6 active 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52\nraise 0 tight 7 active 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52\nraise 0 tight 8 active 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52\nraise 0 tight 9 active 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52\nraise 0 tight 10 active 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52\nraise 0 tight 11 active 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52\nraise 0 tight 12 active 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52\nraise 0 tight 13 active 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52\n', ''),
}
BENCH_STDERR = """\
warning: mismatch.split [primal-dual]: shadow solution [] leaves a split claw with center 1 and leaves [2, 3, 4]
warning: mismatch.split [local-ratio]: shadow solution [] leaves a split claw with center 1 and leaves [2, 3, 4]
warning: mismatch.split [exact]: shadow solution [] leaves a split claw with center 1 and leaves [2, 3, 4]
warning: mismatch.split [max-subgraph]: shadow solution [] leaves a split claw with center 1 and leaves [2, 3, 4]
warning: split-random.split [primal-dual]: shadow solution [1] leaves a split claw with center 3 and leaves [2, 4, 5]
warning: split-random.split [local-ratio]: shadow solution [1] leaves a split claw with center 3 and leaves [2, 4, 5]
warning: split-random.split [exact]: shadow solution [1] leaves a split claw with center 3 and leaves [2, 4, 5]
warning: split-random.split [max-subgraph]: shadow solution [1] leaves a split claw with center 3 and leaves [2, 4, 5]
warning: stars.bip: oracle skipped (size guard)
warning: stars.bip [exact]: too large for oracle: search depth bound 12 exceeded
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
mismatch.split,exact,3,,,,,,
mismatch.split,max-subgraph,3,,,,,,
split-random.split,primal-dual,3,,,,,,
split-random.split,local-ratio,3,,,,,,
split-random.split,exact,3,,,,,,
split-random.split,max-subgraph,3,,,,,,
stars.bip,primal-dual,3,13,13,,,1,0
stars.bip,local-ratio,3,13,13,,,1,0
stars.bip,exact,3,,,,,,
stars.bip,max-subgraph,3,39,,,,,0
"""


@pytest.mark.parametrize("name,alg", sorted(SOLVE))
def test_solve_json_is_pinned(suite, name, alg):
    assert solve_json(suite / name, alg) == SOLVE[name, alg]


@pytest.mark.parametrize("name", SUITE)
def test_trace_is_pinned(suite, tmp_path, name):
    assert solve_trace(suite / name, tmp_path / "trace.txt") == TRACES[name]


def test_bench_csv_is_pinned(suite, tmp_path):
    assert bench_csv(suite, tmp_path / "bench.csv") == (0, "", BENCH_STDERR, BENCH_CSV)
