import io
import json
from contextlib import redirect_stdout

import pytest

import check
from check import CheckError

STAR = "p bip 1 4 4 3\ne 1 2\ne 1 3\ne 1 4\ne 1 5\n"
# Two A-vertices sharing B-vertices 3..5; A-vertex 2 also sees 6.
PAIR = "p bip 2 4 7 3\nn 1 2\ne 1 3\ne 1 4\ne 1 5\ne 2 3\ne 2 4\ne 2 5\ne 2 6\n"


def payload(solution, cost, lower, theta, alg="primal-dual"):
    return json.dumps({"solution": solution, "cost": cost, "lower_bound": lower, "theta": theta,
                       "algorithm": alg, "iterations": 1, "time_ms": 0})


def test_accepts_a_correct_answer():
    inst = check.parse_instance(STAR)
    out = check.check_solve(inst, "primal-dual", payload([1], "1", "1", "1"))
    assert out["solution"] == {1} and out["cost"] == 1


def test_rejects_planted_infeasible_set():
    inst = check.parse_instance(STAR)
    with pytest.raises(CheckError, match="leaves a claw"):
        check.check_solve(inst, "primal-dual", payload([2], "1", "1", "1/2"))


def test_rejects_non_minimal_set():
    inst = check.parse_instance(STAR)
    with pytest.raises(CheckError, match="redundant"):
        check.check_solve(inst, "primal-dual", payload([1, 2], "2", "1", "3/2"))


def test_rejects_wrong_theta():
    inst = check.parse_instance(STAR)
    with pytest.raises(CheckError, match="theta"):
        check.check_solve(inst, "local-ratio", payload([2, 3], "2", "1", "2/3", "local-ratio"))
    check.check_solve(inst, "local-ratio", payload([2, 3], "2", "1", "1", "local-ratio"))


def test_rejects_wrong_cost_and_bound_above_cost():
    inst = check.parse_instance(PAIR)
    with pytest.raises(CheckError, match="cost"):
        check.check_solve(inst, "primal-dual", payload([1, 2], "2", "1", "1"))
    with pytest.raises(CheckError, match="lower bound"):
        check.check_solve(inst, "primal-dual", payload([3, 4], "2", "3", "6/7"))


def test_exact_must_lie_between_heuristic_bounds():
    inst = check.parse_instance(STAR)
    exact = check.check_solve(inst, "exact", payload([1], "1", "1", "1", "exact"))
    local = check.check_solve(inst, "local-ratio", payload([2, 3], "2", "1", "1", "local-ratio"))
    check.check_exact_group({"exact": exact, "local-ratio": local})
    local["lower_bound"] = 3
    with pytest.raises(CheckError, match="bracket"):
        check.check_exact_group({"exact": exact, "local-ratio": local})


def test_dual_trace_certifies_the_program_and_catches_a_tampered_raise(tmp_path):
    import clawdel.cli as cli

    path = tmp_path / "g.bip"
    trace = tmp_path / "t.txt"
    cli.main(["gen", "--family", "bip-random", "--seed", "3", "--t", "3", "--na", "8",
              "--nb", "16", "--m", "50", "--weights", "1:9", "--output", str(path)])
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["solve", "--alg", "primal-dual", "--input", str(path), "--json",
                         "--trace", str(trace)]) == 0
    inst = check.parse_instance(path.read_bytes())
    result = check.check_solve(inst, "primal-dual", out.getvalue())
    text = trace.read_text()
    check.check_dual_trace(inst, result, text)
    lines = text.split("\n")
    step = lines[1].split()
    step[1] = "0"  # the first raise is positive: every weight is at least 1
    lines[1] = " ".join(step)
    with pytest.raises(CheckError):
        check.check_dual_trace(inst, result, "\n".join(lines))


def test_split_refusal_needs_a_real_claw():
    split = check.parse_instance("p split 2 3 4 3\ne 1 3\ne 1 4\ne 2 5\ne 2 4\n")
    real = ("error: shadow solution [] leaves a split claw with center 1 and leaves [2, 3]")
    # t = 3 needs three leaves: a two-leaf witness is rejected.
    with pytest.raises(CheckError, match="t distinct leaves"):
        check.check_refusal(split, "primal-dual", 1, real)
    good = "error: shadow solution [] leaves a split claw with center 1 and leaves [2, 3, 4]"
    with pytest.raises(CheckError, match="clique leaf adjacent"):
        check.check_refusal(split, "primal-dual", 1, good)
    with pytest.raises(CheckError, match="unexpected exit 2"):
        check.check_refusal(split, "primal-dual", 2, "error: bad input")
