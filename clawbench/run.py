"""Benchmark for the clawdel command line tool.

Run from the root of a checkout:

    python3 clawbench/run.py --workload solve-pd --seed 1 --seconds 20 --trace 0

Set-up generates the workload's instance files from the seed (three
times; the median counts). Then a closed loop with one client and no
think time calls `clawdel.cli.main(argv)` in this process, one whole
cycle of operations at a time, for about `--seconds` seconds. Every
distinct operation's output is checked afterwards by independent code
(check.py); repeats must print and write identical bytes.

With `--trace 0` the last line reports the end-to-end metrics; with
`--trace 1` each cycle runs once untraced and once with spans recorded
around every layer (tracing.py), and the last line reports per-layer
metrics. A JSON detail line before it records the context, failure
shares, the latency tail's percentile and sample count, and SHA-256
digests of the outputs. The exit code is 0 only when every check
passed.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import check
import stats
import tracing
import workloads

SETUP_REPEATS = 3


@dataclass
class Result:
    op: workloads.Op
    latency: float
    rc: int | None
    stdout: str
    stderr: str
    digest: str
    traced: bool = False
    outcome: str = "pending"  # ok | refused:<why> | failed:<why>


def execute(cli, op: workloads.Op, traced: bool = False) -> Result:
    """Run one op through `cli.main`, timing only the call itself."""
    out, err = io.StringIO(), io.StringIO()
    crash = None
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(list(op.argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # the loop must go on; the op counts as failed
        rc, crash = None, sys.exc_info()
    latency = perf_counter() - start
    if crash is not None:
        err.write("".join(traceback.format_exception(*crash)))
    h = hashlib.sha256(f"{rc}\n".encode())
    h.update(check.normalized_stdout(out.getvalue()).encode())
    if rc == 0:
        for path in op.outputs:
            h.update(path.read_bytes() if path.is_file() else b"missing")
    return Result(op, latency, rc, out.getvalue(), err.getvalue(), h.hexdigest(), traced)


def closed_loop(cli, plan: workloads.Plan, seconds: float, tracer=None) -> list[Result]:
    """Run whole cycles while the next one is predicted to end within `seconds`.

    With a tracer, each cycle runs untraced and then traced, and the
    wrappers are removed again before the next untraced cycle.
    """
    results: list[Result] = []
    start = perf_counter()
    done = 0
    while True:
        cycle = plan.cycles[done % len(plan.cycles)]
        results.extend(execute(cli, op) for op in cycle)
        if tracer is not None:
            tracer.install()
            try:
                for op in cycle:
                    tracer.op = len(results)
                    results.append(execute(cli, op, traced=True))
            finally:
                tracer.uninstall()
        done += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / done > seconds:
            return results


class Checker:
    """Checks the first run of every op key, and that repeats match it."""

    def __init__(self) -> None:
        self.instances: dict[Path, check.Instance] = {}
        self.first: dict[str, Result] = {}
        self.verdict: dict[str, str] = {}
        self.payloads: dict[str, dict] = {}

    def instance(self, path: Path) -> check.Instance:
        if path not in self.instances:
            self.instances[path] = check.parse_instance(path.read_bytes())
        return self.instances[path]

    def judge(self, results: list[Result]) -> None:
        for r in results:
            first = self.first.setdefault(r.op.key, r)
            if first is r:
                self.verdict[r.op.key] = self._check_first(r)
        groups: dict[Path, dict] = {}
        for key, payload in self.payloads.items():
            op = self.first[key].op
            groups.setdefault(op.input, {})[op.params["alg"]] = payload
        for path, group in groups.items():
            try:
                check.check_exact_group(group)
            except check.CheckError as exc:
                for key in self.payloads:
                    if self.first[key].op.input == path:
                        self.verdict[key] = f"failed:{exc}"
        for r in results:
            first = self.first[r.op.key]
            if r.digest != first.digest:
                r.outcome = "failed:output differs from the first run of this op"
            else:
                r.outcome = self.verdict[r.op.key]

    def _check_first(self, r: Result) -> str:
        op = r.op
        try:
            if r.rc != 0:
                if op.kind != "solve" or r.rc is None:
                    raise check.CheckError(f"exit {r.rc}: {r.stderr.strip()[-300:]}")
                why = check.check_refusal(self.instance(op.input), op.params["alg"], r.rc, r.stderr)
                return f"refused:{why}"
            if op.kind == "solve":
                inst = self.instance(op.input)
                payload = check.check_solve(inst, op.params["alg"], r.stdout)
                if op.outputs:
                    text = op.outputs[0].read_text(encoding="utf-8")
                    check.check_dual_trace(inst, payload, text)
                self.payloads[op.key] = payload
            elif op.kind == "gen":
                out = check.parse_instance(op.outputs[0].read_bytes())
                p = op.params
                check.check_gen(out, p["family"], p["t"], p["sizes"], p["weights"])
            elif op.kind == "verify":
                sol = op.params["solution"].read_text(encoding="utf-8")
                check.check_verify(self.instance(op.input), sol, r.stdout)
            else:
                out = check.parse_instance(op.outputs[0].read_bytes())
                map_text = op.outputs[1].read_text(encoding="utf-8")
                check.check_reduce(op.params["kind"], self.instance(op.input), out, map_text)
        except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
            return f"failed:{type(exc).__name__}: {exc}"  # CheckError is a ValueError
        return "ok"


def reference_s() -> float:
    """Best of three timings of a fixed pure-Python loop: how fast this machine is right now."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        best = min(best, perf_counter() - start)
    return best


def commit_id(root: Path) -> str:
    """HEAD of the checkout's git directory, read directly; 'unknown' without one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup(cli, workload: str, seed: int, work: Path) -> tuple[workloads.Plan, list[float], bool]:
    """Set the workload up SETUP_REPEATS times; all repeats must write identical files."""
    times, digests, plan = [], [], None
    for rep in range(SETUP_REPEATS):
        if plan is not None:
            shutil.rmtree(work / f"setup-{rep - 1}")
        d = work / f"setup-{rep}"
        d.mkdir(parents=True)
        start = perf_counter()
        plan = workloads.SETUPS[workload](cli.main, d, seed)
        times.append(perf_counter() - start)
        digests.append([hashlib.sha256(p.read_bytes()).hexdigest() for p in plan.files])
    return plan, times, all(d == digests[0] for d in digests)


def output_digest(results: list[Result]) -> str:
    """SHA-256 over every distinct op's exit code, stdout (time_ms zeroed) and output files."""
    h = hashlib.sha256()
    for key, digest in sorted({r.op.key: r.digest for r in results}.items()):
        h.update(f"{key} {digest}\n".encode())
    return h.hexdigest()


def end_to_end(results: list[Result], setup_s: float, peak_rss_mb: float) -> dict:
    samples = [(r.latency, r.outcome == "ok") for r in results]
    ranked = stats.rank(samples)
    tail = stats.tail(ranked)
    ok = sum(1 for _, good in samples if good)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ok / sum(r.latency for r in results), "1/s"),
        "latency_ms_p50": (stats.percentile(ranked, 50)[0] * 1000, "ms"),
        "latency_ms_tail": (tail["value"] * 1000, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }, tail


def quality(results: list[Result], checker: Checker) -> dict:
    """Failure shares, exact certification and cost over lower bound."""
    n = len(results)
    refused = [r for r in results if r.outcome.startswith("refused")]
    failed = [r for r in results if r.outcome.startswith("failed")]
    exact = [r for r in results if r.op.params.get("alg") == "exact"]
    ratios = []
    for key, p in checker.payloads.items():
        op = checker.first[key].op
        if op.params["alg"] in ("primal-dual", "local-ratio") and op.input.suffix == ".bip":
            if p["lower_bound"] > 0:
                ratios.append(p["cost"] / p["lower_bound"])
    return {
        "failed_share": {"value": (len(refused) + len(failed)) / n, "unit": "share"},
        "refused": {why: sum(1 for r in refused if r.outcome == why)
                    for why in sorted({r.outcome for r in refused})},
        "exact_certified_share": {
            "value": sum(1 for r in exact if r.outcome == "ok") / len(exact) if exact else None,
            "unit": "share"},
        "cost_over_lb": {"value": stats.geometric_mean(ratios), "unit": "ratio",
                         "ops": len(ratios)},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "clawdel" / "cli.py").is_file():
        print(f"error: no clawdel sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    started = perf_counter()
    import clawdel.cli as cli
    import_s = perf_counter() - started
    if Path(cli.__file__).resolve().parent != (src / "clawdel").resolve():
        print(f"error: imported clawdel from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    work = root / ".clawbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # still remove the work directory
    try:
        plan, setup_times, same_setup = setup(cli, args.workload, args.seed, work)
        tracer = tracing.Tracer() if args.trace else None
        reference = [reference_s()]
        results = closed_loop(cli, plan, args.seconds, tracer)
        reference.append(reference_s())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        checker = Checker()
        checker.judge(results)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    failures = sorted({f"{r.op.key}: {r.outcome}"
                       for r in results if r.outcome.startswith("failed")})
    if not same_setup:
        failures.insert(0, "set-up: repeated set-up wrote different files")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "context": {
            "python": platform.python_version(),
            "commit": commit_id(root),
            "nproc": os.cpu_count(),
            "reference_loop_s": reference,
            "seconds": args.seconds,
            "trace": args.trace,
            "instances": plan.shapes,
            "ops": len(results),
            "cycles": len(plan.cycles),
        },
        "setup_s": {"import": import_s, "repeats": setup_times},
        "output_sha256": output_digest(results),
        "output_ops": len({r.op.key for r in results}),
        "failures": failures[:20],
    }
    untraced = [r for r in results if not r.traced]
    if args.trace:
        traced = [i for i, r in enumerate(results) if r.traced]
        layers = tracing.layer_metrics(tracer, traced)
        overhead = sum(r.latency for r in results if r.traced) - sum(r.latency for r in untraced)
        layers["trace.overhead_s"] = overhead / max(1, len(traced))
        for shape in tracing.SHAPES:
            chosen = [i for i in traced if results[i].op.shape == shape]
            per_shape = tracing.layer_metrics(tracer, chosen)
            layers.update({f"{shape}.{k}": per_shape[k] for k in tracing.SHAPE_METRICS})
        units = {name: unit for name, unit, _ in tracing.per_layer_spec()}
        metrics = {name: {"value": layers[name], "unit": units[name]} for name in units}
        ops = max(1, len(traced))
        detail["absent_sites"] = tracer.absent
        detail["unobserved"] = sorted(tracer.unobserved)
        self_s = tracing.self_time_by_layer(tracer)
        detail["self_s_per_op"] = {k: v / ops for k, v in self_s.items()}
        detail["layer_map"] = {name: moves for name, _, _, moves in tracing.LAYER_METRICS}
    else:
        setup_s = import_s + statistics.median(setup_times)
        e2e, tail = end_to_end(untraced, setup_s, peak_rss_mb)
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in e2e.items()}
        detail["latency_tail"] = {k: tail[k] for k in ("percentile", "samples", "beyond", "ok")}
        by_shape: dict[str, list] = {}
        for r in untraced:
            by_shape.setdefault(r.op.shape, []).append((r.latency, r.outcome == "ok"))
        detail["latency_ms_p50_by_shape"] = {
            shape: stats.percentile(stats.rank(s), 50)[0] * 1000
            for shape, s in sorted(by_shape.items())}
        detail.update(quality(untraced, checker))
    correct = not failures
    print(json.dumps(detail))
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": sum(1 for r in results if r.outcome.startswith("failed")),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
