"""Command line front end.

    clawdel solve  --alg primal-dual --input g.bip [--json] [--trace t.txt]
    clawdel reduce --kind hvc-osbcd --input h.hyp --output g.bip [--map m.txt]
    clawdel gen    --family bip-dense --seed 7 --t 3 --na 4 --nb 8 --output g.bip
    clawdel verify --input g.bip --solution sol.txt
    clawdel bench  --suite dir/ --algs primal-dual,exact --csv out.csv

Exit codes: 0 success, 1 internal invariant violation, 2 parse or
precondition failure, 3 oracle size guard, 4 infeasible solution in
verify. Solve input format is sniffed from the `p bip` / `p split`
header. `solve` and `bench` run every algorithm through
`solvers.solve`. `--json` emits one object with keys solution, cost,
lower_bound, theta, algorithm, iterations, time_ms; rationals are
strings like "3/2", undefined values are null (lower_bound and theta
for max-subgraph).
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
from .oracle import OracleLimitError, exact_min_deletion_set
from .reductions import (
    from_hypergraph_cover,
    from_regular_graph_cover,
    to_bipartite,
    to_split,
    write_map,
)
from .solvers import ALGORITHMS, ShadowMismatchError, SolveReport, solve

REDUCTION_KINDS = ("hvc-osbcd", "osbcd-split", "split-osbcd", "vc-dense")
BENCH_FIELDS = ("instance", "algorithm", "t", "cost", "lower_bound", "opt", "ratio", "theta",
                "time_ms")
EXIT_CODES = {ParseError: 2, OracleLimitError: 3, ShadowMismatchError: 1}

_SERIALIZERS = {
    BipartiteGraph: serialize_bipartite,
    SplitGraph: serialize_split,
    Hypergraph: serialize_hypergraph,
}


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load(path: str) -> BipartiteGraph | SplitGraph | Hypergraph:
    try:
        text = Path(path).read_bytes()
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}", 2) from exc
    return parse_auto(text)


def _load_deletion_instance(path: str) -> BipartiteGraph | SplitGraph:
    g = _load(path)
    if isinstance(g, Hypergraph):
        raise _CliError(f"{path} is a hypergraph; deletion needs 'p bip' or 'p split'", 2)
    return g


def _frac(value: Fraction | None) -> str | None:
    return None if value is None else str(value)


def _report_payload(report: SolveReport) -> dict:
    return {
        "solution": list(report.solution),
        "cost": _frac(report.cost),
        "lower_bound": _frac(report.dual_lower_bound),
        "theta": _frac(report.theta),
        "algorithm": report.algorithm,
        "iterations": report.iterations,
        "time_ms": int(round(report.elapsed_s * 1000)),
    }


def _print_payload(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload))
        return
    print(f"algorithm: {payload['algorithm']}")
    print("solution: " + " ".join(str(v) for v in payload["solution"]))
    for key in ("cost", "lower_bound", "theta"):
        value = payload[key]
        print(f"{key}: {'-' if value is None else value}")
    print(f"iterations: {payload['iterations']}")
    print(f"time_ms: {payload['time_ms']}")


def _write_trace(path: str, trace, vertices: range) -> None:
    """One line per raise; the active set is the vertices not yet selected.

    The active ids are one string with a space at each end, so each
    tight id is cut out with one `str.replace` of " v " instead of a
    re-join of every id, and the lines are written as they are made.
    """
    active = " " + ("%d " * len(vertices)) % tuple(vertices)
    with open(path, "w", encoding="utf-8") as out:
        out.write("# dual trace (primal-dual): raise amount, tight vertex, active set\n")
        for step in trace:
            out.write(f"raise {step.amount} tight {step.selected} active {active[1:-1]}\n")
            active = active.replace(f" {step.selected} ", " ", 1)


def _cmd_solve(args: argparse.Namespace) -> int:
    g = _load_deletion_instance(args.input)
    if args.trace and args.alg != "primal-dual":
        raise _CliError("--trace is only available for --alg primal-dual", 2)

    report, trace = solve(g, args.alg)
    if args.trace:
        _write_trace(args.trace, trace, g.vertices)
    _print_payload(_report_payload(report), args.json)
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    g = _load(args.input)
    try:
        if args.kind == "hvc-osbcd":
            if not isinstance(g, Hypergraph) or g.t < 3:
                raise _CliError("hvc-osbcd needs a 'p hyp' instance with t >= 3", 2)
            out, rmap = from_hypergraph_cover(g)
        elif args.kind == "osbcd-split":
            if not isinstance(g, BipartiteGraph):
                raise _CliError("osbcd-split needs a 'p bip' instance", 2)
            out, rmap = to_split(g)
        elif args.kind == "split-osbcd":
            if not isinstance(g, SplitGraph):
                raise _CliError("split-osbcd needs a 'p split' instance", 2)
            out, rmap = to_bipartite(g)
        else:
            if not isinstance(g, Hypergraph):
                raise _CliError("vc-dense needs a 2-uniform 'p hyp' instance", 2)
            out, rmap = from_regular_graph_cover(g)
    except ValueError as exc:
        raise _CliError(str(exc), 2) from exc

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
            raise _CliError(f"family {args.family} needs --{key}", 2)
        sizes[key] = value
    if args.weights == "unit":
        mode: tuple = ("unit",)
    else:
        try:
            lo, hi = (int_field(part, "weight", None) for part in args.weights.split(":"))
            mode = ("uniform", lo, hi)
        except ValueError:
            raise _CliError("--weights must be 'unit' or 'LO:HI'", 2) from None
    try:
        spec = GenSpec(args.family, args.t, args.seed, sizes, mode)
        graph = generate(spec)
    except ValueError as exc:
        raise _CliError(str(exc), 2) from exc
    text = _SERIALIZERS[type(graph)](graph, comments=[provenance(spec)])
    Path(args.output).write_text(text, encoding="utf-8")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    g = _load_deletion_instance(args.input)
    try:
        tokens = Path(args.solution).read_text(encoding="utf-8").split()
        solution = sorted({int_field(tok, "vertex id", None) for tok in tokens})
    except OSError as exc:
        raise _CliError(f"cannot read {args.solution}: {exc}", 2) from exc
    except ValueError:
        raise _CliError("solution file must hold whitespace-separated vertex ids", 2) from None
    bad = [v for v in solution if v not in g.vertices]
    if bad:
        raise _CliError(f"solution ids {bad} out of range", 2)

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
        raise _CliError(f"unknown algorithms {unknown}; choose from {list(ALGORITHMS)}", 2)
    suite = Path(args.suite)
    if not suite.is_dir():
        raise _CliError(f"{args.suite} is not a directory", 2)

    paths = sorted(
        p for p in suite.iterdir() if p.suffix in (".bip", ".split", ".hyp") and p.is_file()
    )
    rows = []
    for path in paths:
        if path.suffix == ".hyp":
            print(f"warning: skipping hypergraph instance {path.name}", file=sys.stderr)
            continue
        g = _load_deletion_instance(str(path))
        # A successful exact row costs the optimum, so the oracle runs once. On a
        # split graph that row solves the shadow, and a split-feasible shadow
        # optimum is the split optimum, since every split-feasible set is
        # shadow feasible.
        exact = _attempt(g, "exact") if "exact" in algs else None
        if isinstance(exact, SolveReport):
            opt = exact.cost
        else:
            try:
                _, opt = exact_min_deletion_set(g)
            except OracleLimitError:
                opt = None
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
    p_reduce.add_argument("--kind", required=True, choices=REDUCTION_KINDS)
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
    except (_CliError, *EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, _CliError):
            return exc.code
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
