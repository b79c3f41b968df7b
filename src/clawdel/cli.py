"""Command line front end.

    clawdel solve  --alg primal-dual --input g.bip [--json] [--trace t.txt]
    clawdel reduce --kind hvc-osbcd --input h.hyp --output g.bip [--map m.txt]
    clawdel gen    --family bip-dense --seed 7 --t 3 --na 4 --nb 8 --output g.bip
    clawdel verify --input g.bip --solution sol.txt
    clawdel bench  --suite dir/ --algs primal-dual,exact --csv out.csv

Exit codes: 0 success, 1 a primal-dual or local-ratio split solution
leaves a split claw, 2 parse, precondition or file error, 3 the exact
oracle certifies no optimum, 4 infeasible solution in verify. Input is
sniffed from the `p bip` / `p split` header. Every algorithm runs via
`solvers.solve`; `bench` takes `opt` from one exact run per instance (its
exact row), whose search ends where it meets a certified lower bound.
`--json` emits one object with keys solution, cost, lower_bound, theta,
algorithm, iterations, time_ms; rationals are strings like "3/2",
undefined values are null (lower_bound and theta for max-subgraph).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

from .claws import is_feasible, is_minimal
from .formats import (
    ParseError,
    int_field,
    parse_auto,
    serialize_bipartite,
    serialize_hypergraph,
    serialize_split,
)
from .generate import FAMILIES, GenSpec, generate, provenance
from .graphs import BipartiteGraph, Hypergraph, SplitGraph
from .oracle import OracleLimitError
from .reductions import (
    from_hypergraph_cover,
    from_regular_graph_cover,
    to_bipartite,
    to_split,
    write_map,
)
from .solvers import ALGORITHMS, ShadowMismatchError, SolveReport, solve

# Each kind: source class, least t, the requirement named when the input
# falls short, and the construction, looked up when called (as in
# `solvers._SOLVERS`), so a wrapper replacing it here sees the call.
REDUCTIONS = {
    "hvc-osbcd": (Hypergraph, 3, "a 'p hyp' instance with t >= 3",
                  lambda g: from_hypergraph_cover(g)),
    "osbcd-split": (BipartiteGraph, 3, "a 'p bip' instance", lambda g: to_split(g)),
    "split-osbcd": (SplitGraph, 3, "a 'p split' instance", lambda g: to_bipartite(g)),
    "vc-dense": (Hypergraph, 2, "a 2-uniform 'p hyp' instance",
                 lambda g: from_regular_graph_cover(g)),
}
BENCH_FIELDS = ("instance", "algorithm", "t", "cost", "lower_bound", "opt", "ratio", "theta",
                "time_ms")

_SERIALIZERS = {
    BipartiteGraph: serialize_bipartite,
    SplitGraph: serialize_split,
    Hypergraph: serialize_hypergraph,
}


class _CliError(Exception):
    """A bad command line or input file, worded for the user."""


EXIT_CODES = {_CliError: 2, ParseError: 2, OSError: 2, OracleLimitError: 3,
              ShadowMismatchError: 1}


def _load(path: str) -> BipartiteGraph | SplitGraph | Hypergraph:
    return parse_auto(Path(path).read_bytes())


def _load_deletion_instance(path: str) -> BipartiteGraph | SplitGraph:
    g = _load(path)
    if isinstance(g, Hypergraph):
        raise _CliError(f"{path} is a hypergraph; deletion needs 'p bip' or 'p split'")
    return g


def _frac(value: Fraction | None) -> str | None:
    return None if value is None else str(value)


def _report_payload(report: SolveReport) -> dict:
    return {
        "solution": report.solution,
        "cost": _frac(report.cost),
        "lower_bound": _frac(report.dual_lower_bound),
        "theta": _frac(report.theta),
        "algorithm": report.algorithm,
        "iterations": report.iterations,
        "time_ms": int(round(report.elapsed_s * 1000)),
    }


_IDS_PER_WRITE = 1 << 16


def _write_ids(ids, sep: str) -> None:
    """Write `ids` to stdout joined by `sep`: one `%` format per 65,536 ids, no str per id."""
    write = sys.stdout.write
    for i in range(0, len(ids), _IDS_PER_WRITE):
        chunk = tuple(ids[i:i + _IDS_PER_WRITE])
        write((sep if i else "") + sep.join(["%d"] * len(chunk)) % chunk)


def _print_payload(payload: dict, as_json: bool) -> None:
    """Print a solve payload as JSON (the bytes of `json.dumps`) or as text."""
    ids = payload["solution"]
    if as_json:
        # Escaped quotes keep the empty-list marker out of every other string.
        head, tail = json.dumps({**payload, "solution": []}).split('"solution": []', 1)
        sys.stdout.write(head + '"solution": [')
        _write_ids(ids, ", ")
        sys.stdout.write("]" + tail + "\n")
        return
    print(f"algorithm: {payload['algorithm']}")
    sys.stdout.write("solution: ")
    _write_ids(ids, " ")
    sys.stdout.write("\n")
    for key in ("cost", "lower_bound", "theta"):
        value = payload[key]
        print(f"{key}: {'-' if value is None else value}")
    print(f"iterations: {payload['iterations']}")
    print(f"time_ms: {payload['time_ms']}")


# "00 " to "99 ": the last two digits of an id in a whole hundred, and its space.
_TAILS = [b"%02d " % k for k in range(100)]


def _id_text(n: int) -> bytearray:
    """The ids 1..n in ASCII, each followed by a space: b"1 2 ... n ".

    Each whole hundred from 100 on is its prefix joined to `_TAILS`;
    the ids below 100 and the last partial hundred take one `%` format
    each. So no tuple of n ints is built, and the step costs what the
    text's bytes cost.
    """
    hundreds = range(1, max((n + 1) // 100, 1))
    head, rest = range(1, min(n, 99) + 1), range(100 * hundreds.stop, n + 1)
    text = bytearray(b"%d " * len(head) % tuple(head))
    for prefix in map(b"%d".__mod__, hundreds):
        text += prefix
        text += prefix.join(_TAILS)
    text += b"%d " * len(rest) % tuple(rest)
    return text


def _write_trace(path: str, trace, vertices: range) -> None:
    """One line per raise; the active set is the vertices not yet selected.

    `vertices` is the graph's id range 1..n. The active ids are one
    ASCII buffer from `_id_text` with a space put in front, and each
    tight id is cut out of it in place, so no step copies the set: the
    lines are written from the buffer as they are made.
    """
    active = _id_text(len(vertices))
    active[:0] = b" "
    with open(path, "wb") as out:
        out.write(b"# dual trace (primal-dual): raise amount, tight vertex, active set\n")
        for step in trace:
            out.write(f"raise {step.amount} tight {step.selected} active ".encode())
            out.write(memoryview(active)[1:-1])
            out.write(b"\n")
            at = active.find(b" %d " % step.selected)
            del active[at:at + len(b" %d" % step.selected)]


def _cmd_solve(args: argparse.Namespace) -> int:
    g = _load_deletion_instance(args.input)
    if args.trace and args.alg != "primal-dual":
        raise _CliError("--trace is only available for --alg primal-dual")

    report, trace = solve(g, args.alg)
    if args.trace:
        _write_trace(args.trace, trace, g.vertices)
    _print_payload(_report_payload(report), args.json)
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    g = _load(args.input)
    source, least_t, requirement, construct = REDUCTIONS[args.kind]
    if not isinstance(g, source) or g.t < least_t:
        raise _CliError(f"{args.kind} needs {requirement}")
    try:
        out, rmap = construct(g)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc

    for warning in rmap.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    Path(args.output).write_text(_SERIALIZERS[type(out)](out), encoding="utf-8")
    if args.map:
        Path(args.map).write_text(write_map(rmap), encoding="utf-8")
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    sizes = {}
    for key in FAMILIES[args.family][0]:
        value = getattr(args, key)
        if value is None:
            raise _CliError(f"family {args.family} needs --{key}")
        sizes[key] = value
    if args.weights == "unit":
        mode: tuple = ("unit",)
    else:
        try:
            lo, hi = (int_field(part, "weight", None) for part in args.weights.split(":"))
            mode = ("uniform", lo, hi)
        except ValueError:
            raise _CliError("--weights must be 'unit' or 'LO:HI'") from None
    try:
        spec = GenSpec(args.family, args.t, args.seed, sizes, mode)
        graph = generate(spec)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    text = _SERIALIZERS[type(graph)](graph, comments=[provenance(spec)])
    Path(args.output).write_text(text, encoding="utf-8")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    g = _load_deletion_instance(args.input)
    try:
        tokens = Path(args.solution).read_text(encoding="utf-8").split()
        solution = sorted({int_field(tok, "vertex id", None) for tok in tokens})
    except ValueError:
        raise _CliError("solution file must hold whitespace-separated vertex ids") from None
    vertices = g.vertices
    bad = [v for v in solution if v not in vertices]
    if bad:
        raise _CliError(f"solution ids {bad} out of range")

    feasible = is_feasible(g, solution)
    minimal = is_minimal(g, solution) if feasible else False
    cost = g.total_weight(solution)
    print(f"feasible={str(feasible).lower()} minimal={str(minimal).lower()} cost={cost}")
    return 0 if feasible else 4


def _attempt(g, alg: str) -> SolveReport | ShadowMismatchError | OracleLimitError:
    """The report of `solve(g, alg)`, or the refusal it raised."""
    try:
        return solve(g, alg)[0]
    except (ShadowMismatchError, OracleLimitError) as exc:
        return exc


def _bench_row(name: str, alg: str, g, outcome: SolveReport | Exception,
               opt: Fraction | None) -> dict:
    """One CSV row (None is written empty); max-subgraph compares with total - opt."""
    row = dict.fromkeys(BENCH_FIELDS)
    row.update(instance=name, algorithm=alg, t=g.t)
    if not isinstance(outcome, SolveReport):
        print(f"warning: {name} [{alg}]: {outcome}", file=sys.stderr)
        return row
    payload = _report_payload(outcome)
    row.update((key, payload[key]) for key in ("cost", "lower_bound", "theta", "time_ms"))
    if opt is not None:
        if alg == "max-subgraph":
            opt = g.total_weight(g.vertices) - opt
            num, den = opt, outcome.cost
        else:
            num, den = outcome.cost, opt
        row["opt"] = str(opt)
        if den > 0:
            row["ratio"] = str(Fraction(num, den))
        elif num == 0:
            row["ratio"] = "1"
    return row


def _cmd_bench(args: argparse.Namespace) -> int:
    algs = [a.strip() for a in args.algs.split(",") if a.strip()]
    unknown = [a for a in algs if a not in ALGORITHMS]
    if unknown:
        raise _CliError(f"unknown algorithms {unknown}; choose from {list(ALGORITHMS)}")
    paths = sorted(p for p in Path(args.suite).iterdir()
                   if p.suffix in (".bip", ".split", ".hyp") and p.is_file())
    rows = []
    for path in paths:
        if path.suffix == ".hyp":
            print(f"warning: skipping hypergraph instance {path.name}", file=sys.stderr)
            continue
        g = _load_deletion_instance(str(path))
        exact = _attempt(g, "exact")
        opt = exact.cost if isinstance(exact, SolveReport) else None
        if opt is None:
            print(f"warning: {path.name}: oracle skipped (size guard)", file=sys.stderr)
        rows.extend(_bench_row(path.name, alg, g, exact if alg == "exact" else _attempt(g, alg),
                               opt) for alg in algs)

    with open(args.csv, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=BENCH_FIELDS)
        writer.writeheader()
        writer.writerows(rows)
    return 0


def _int_arg(token: str) -> int:
    """argparse type for gen's integers: the strict rule of `formats.int_field`."""
    try:
        return int_field(token, "argument", None)
    except ParseError:
        raise argparse.ArgumentTypeError(f"invalid int value: {token!r}") from None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged.

    `prog` is fixed, so usage and error messages do not depend on how
    the process was started.
    """
    parser = argparse.ArgumentParser(prog="clawdel", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run a deletion or max-subgraph solver")
    p_solve.add_argument("--alg", required=True, choices=ALGORITHMS)
    p_solve.add_argument("--input", required=True)
    p_solve.add_argument("--json", action="store_true")
    p_solve.add_argument("--trace")
    p_solve.set_defaults(func=_cmd_solve)

    p_reduce = sub.add_parser("reduce", help="run an instance construction")
    p_reduce.add_argument("--kind", required=True, choices=REDUCTIONS)
    p_reduce.add_argument("--input", required=True)
    p_reduce.add_argument("--output", required=True)
    p_reduce.add_argument("--map")
    p_reduce.set_defaults(func=_cmd_reduce)

    p_gen = sub.add_parser("gen", help="generate a seeded random instance")
    p_gen.add_argument("--family", required=True, choices=FAMILIES)
    p_gen.add_argument("--seed", required=True, type=_int_arg)
    p_gen.add_argument("--t", required=True, type=_int_arg)
    for key in dict.fromkeys(key for keys, _ in FAMILIES.values() for key in keys):
        p_gen.add_argument(f"--{key}", type=_int_arg)
    p_gen.add_argument("--weights", default="unit")
    p_gen.add_argument("--output", required=True)
    p_gen.set_defaults(func=_cmd_gen)

    p_verify = sub.add_parser("verify", help="check a solution file against an instance")
    p_verify.add_argument("--input", required=True)
    p_verify.add_argument("--solution", required=True)
    p_verify.set_defaults(func=_cmd_verify)

    p_bench = sub.add_parser("bench", help="run algorithms over a directory, write CSV")
    p_bench.add_argument("--suite", required=True)
    p_bench.add_argument("--algs", required=True)
    p_bench.add_argument("--csv", required=True)
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
