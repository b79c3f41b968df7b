"""Per-layer tracing of clawdel, installed from outside the package.

Each traced name is wrapped where the calling module looks it up (for
example `clawdel.solvers.PolymatroidContext` or `clawdel.oracle.find_claw`),
so nothing in the package changes. A wrapper records a span with its
parent, the op it belongs to, its start and end; self time is a span's
duration minus the part its children cover. A name that a later
refactor removes is skipped and reported absent, and its metrics read 0.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter

# (span name, module, attribute looked up there). "X.__post_init__" wraps
# a method on class X; "D[]" wraps every value of the dict D.
SITES = [
    ("cli.main", "clawdel.cli", "main"),
    ("cli.trace_write", "clawdel.cli", "_write_trace"),
    ("formats.parse", "clawdel.cli", "parse_auto"),
    ("formats.serialize", "clawdel.cli", "_SERIALIZERS[]"),
    ("graphs.build", "clawdel.graphs", "BipartiteGraph.__post_init__"),
    ("graphs.build", "clawdel.graphs", "SplitGraph.__post_init__"),
    ("graphs.build", "clawdel.graphs", "Hypergraph.__post_init__"),
    ("generate", "clawdel.cli", "generate"),
    ("polymatroid.context", "clawdel.solvers", "PolymatroidContext"),
    ("polymatroid.incidence", "clawdel.solvers", "incidence_dual_ranks"),
    ("polymatroid.dual_rank", "clawdel.solvers", "dual_rank"),
    ("solvers.primal_dual", "clawdel.cli", "primal_dual_solve"),
    ("solvers.primal_dual", "clawdel.solvers", "primal_dual_solve"),
    ("solvers.primal_dual", "clawdel.oracle", "primal_dual_solve"),
    ("solvers.theta", "clawdel.solvers", "theta_of_solution"),
    ("solvers.local_ratio", "clawdel.cli", "local_ratio_solve"),
    ("solvers.local_ratio", "clawdel.solvers", "local_ratio_solve"),
    ("solvers.split", "clawdel.cli", "split_solve"),
    ("solvers.split", "clawdel.solvers", "split_solve"),
    ("claws.find_claw", "clawdel.claws", "find_claw"),
    ("claws.find_claw", "clawdel.solvers", "find_claw"),
    ("claws.find_claw", "clawdel.oracle", "find_claw"),
    ("claws.find_claw", "clawdel.reductions", "find_claw"),
    ("claws.find_claw_split", "clawdel.claws", "find_claw_split"),
    ("claws.find_claw_split", "clawdel.cli", "find_claw_split"),
    ("claws.find_claw_split", "clawdel.solvers", "find_claw_split"),
    ("claws.find_claw_split", "clawdel.oracle", "find_claw_split"),
    ("claws.find_claw_split", "clawdel.reductions", "find_claw_split"),
    ("claws.reverse_delete", "clawdel.solvers", "reverse_delete"),
    ("claws.is_minimal", "clawdel.cli", "is_minimal"),
    ("oracle.exact", "clawdel.oracle", "exact_min_deletion_set"),
    ("reductions.to_bipartite", "clawdel.cli", "to_bipartite"),
    ("reductions.to_bipartite", "clawdel.reductions", "to_bipartite"),
    ("reductions.to_split", "clawdel.cli", "to_split"),
    ("reductions.from_hypergraph_cover", "clawdel.cli", "from_hypergraph_cover"),
]

# Per-layer metrics: name, unit, better, and which end-to-end metric they
# should move on which workload. Times are inclusive span time per op
# unless the name says self; counts are per op.
LAYER_METRICS = [
    ("cli.self_s", "s/op", "lower", "latency on every workload"),
    ("cli.trace_write_s", "s/op", "lower", "latency on solve-pd"),
    ("formats.parse_s", "s/op", "lower", "ops_per_s, peak_rss_mb on io-verify; setup_s everywhere"),
    ("formats.parse_mb_per_s", "MB/s", "higher", "ops_per_s on io-verify"),
    ("formats.serialize_s", "s/op", "lower", "ops_per_s on io-verify; setup_s everywhere"),
    ("graphs.build_s", "s/op", "lower", "ops_per_s, peak_rss_mb on io-verify; setup_s everywhere"),
    ("generate.s", "s/op", "lower", "ops_per_s on io-verify; setup_s everywhere"),
    ("polymatroid.context_builds", "builds/op", "lower", "latency on solve-pd; ~0 on io-verify"),
    ("polymatroid.context_s", "s/op", "lower", "latency on solve-pd (dense, wide)"),
    ("polymatroid.incidence_s", "s/op", "lower", "latency on solve-pd (dense, wide)"),
    ("polymatroid.dual_rank_s", "s/op", "lower", "latency on solve-pd (dense, wide)"),
    ("solvers.primal_dual_s", "s/op", "lower", "latency on solve-pd"),
    ("solvers.primal_dual_self_s", "s/op", "lower", "latency on solve-pd (pricing, Fraction work)"),
    ("solvers.iterations", "iter/op", "lower", "latency on solve-pd"),
    ("solvers.max_den_bits", "bits", "lower", "latency on solve-pd (dense)"),
    ("solvers.theta_s", "s/op", "lower", "latency on solve-pd"),
    ("solvers.local_ratio_s", "s/op", "lower", "latency on exact-small"),
    ("solvers.split_s", "s/op", "lower", "latency on exact-small"),
    ("claws.find_claw_calls", "calls/op", "lower", "latency on solve-pd, exact-small"),
    ("claws.find_claw_s", "s/op", "lower", "latency on solve-pd, exact-small"),
    ("claws.find_claw_split_calls", "calls/op", "lower", "latency on exact-small"),
    ("claws.reverse_delete_s", "s/op", "lower", "latency on solve-pd, exact-small"),
    ("claws.reverse_delete_kept_ratio", "ratio", "higher", "latency on solve-pd, exact-small"),
    ("claws.is_minimal_s", "s/op", "lower", "ops_per_s on io-verify"),
    ("oracle.exact_s", "s/op", "lower", "latency on exact-small"),
    ("oracle.nodes", "nodes/op", "lower",
     "latency, exact_certified_share, failed_share on exact-small"),
    ("oracle.incumbent_s", "s/op", "lower", "latency on exact-small"),
    ("oracle.nodes_per_certified", "nodes/cert", "lower", "exact_certified_share on exact-small"),
    ("reductions.to_bipartite_s", "s/op", "lower", "latency on exact-small (split); io-verify"),
    ("reductions.to_split_s", "s/op", "lower", "ops_per_s on io-verify"),
    ("reductions.from_hypergraph_cover_s", "s/op", "lower", "ops_per_s on io-verify"),
    ("trace.overhead_s", "s/op", "lower", "none: traced minus untraced wall time"),
]

# Reported again per solve-pd shape, so a gain on one shape stays visible.
SHAPES = ("sparse", "dense", "wide")
SHAPE_METRICS = (
    "solvers.primal_dual_s", "solvers.primal_dual_self_s", "solvers.iterations",
    "solvers.max_den_bits", "solvers.theta_s", "polymatroid.context_s",
    "polymatroid.incidence_s", "polymatroid.dual_rank_s", "claws.find_claw_s",
    "claws.reverse_delete_s",
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), shape-qualified ones included."""
    spec = [(name, unit, better) for name, unit, better, _ in LAYER_METRICS]
    units = {name: (unit, better) for name, unit, better in spec}
    spec += [(f"{shape}.{name}", *units[name]) for shape in SHAPES for name in SHAPE_METRICS]
    return spec


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    op: int
    name: str
    site: str
    start: float
    end: float


def _resolve(module: str, attr: str):
    """(container, key, is_dict) for one site, or None when the name is absent."""
    try:
        obj = importlib.import_module(module)
    except ImportError:
        return None
    parts = attr.split(".")
    for part in parts[:-1]:
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    last = parts[-1]
    if last.endswith("[]"):
        table = getattr(obj, last[:-2], None)
        return None if table is None else (table, None, True)
    if not hasattr(obj, last):
        return None
    return obj, last, False


class Tracer:
    """Span recorder; `install()` wraps every site and `uninstall()` restores them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.max_den: dict[int, int] = defaultdict(int)
        self.absent: list[str] = []  # sites whose name no longer exists
        self.unobserved: set[str] = set()  # names whose results no longer yield counts
        self._patched: list[tuple[object, object, object, bool]] = []

    def _wrap(self, name: str, site: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            span = Span(len(tracer.spans), tracer.stack[-1] if tracer.stack else None,
                        tracer.op, name, site, 0.0, 0.0)
            tracer.spans.append(span)
            tracer.stack.append(span.id)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                tracer.stack.pop()
            try:
                tracer._observe(name, args, result)
            except (AttributeError, TypeError, ValueError):  # result shape changed
                tracer.unobserved.add(name)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe(self, name: str, args: tuple, result) -> None:
        counts = self.counts[self.op]
        if name == "formats.parse":
            counts["parse_bytes"] += len(args[0])
        elif name == "solvers.primal_dual":
            report, steps = result
            counts["iterations"] += report.iterations
            dens = [s.amount.denominator for s in steps] + [report.dual_lower_bound.denominator]
            bits = max(d.bit_length() for d in dens)
            self.max_den[self.op] = max(self.max_den[self.op], bits)
        elif name == "claws.reverse_delete":
            counts["rd_in"] += len(args[1])
            counts["rd_out"] += len(result)
        elif name == "oracle.exact":
            counts["certified"] += 1

    def install(self) -> None:
        self.absent = []
        for name, module, attr in SITES:
            found = _resolve(module, attr)
            if found is None:
                self.absent.append(f"{module}.{attr}")
                continue
            container, key, is_dict = found
            site = module.rsplit(".", 1)[-1]
            if is_dict:
                for k, fn in list(container.items()):
                    self._patched.append((container, k, fn, True))
                    container[k] = self._wrap(name, site, fn)
            else:
                fn = getattr(container, key)
                self._patched.append((container, key, fn, False))
                setattr(container, key, self._wrap(name, site, fn))

    def uninstall(self) -> None:
        while self._patched:
            container, key, fn, is_dict = self._patched.pop()
            if is_dict:
                container[key] = fn
            else:
                setattr(container, key, fn)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals within it."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for s in spans:
        covered, reach = 0.0, s.start
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def layer_metrics(tracer: Tracer, ops: list[int]) -> dict[str, float]:
    """Per-layer metrics over the traced ops `ops`, normalised per op."""
    chosen = set(ops)
    n = max(1, len(chosen))
    selfs = self_times(tracer.spans)
    incl: Counter = Counter()
    own: Counter = Counter()
    calls: Counter = Counter()
    at_site: Counter = Counter()
    for s, self_s in zip(tracer.spans, selfs):
        if s.op not in chosen:
            continue
        own[s.name] += self_s
        calls[s.name] += 1
        calls[(s.name, s.site)] += 1
        parent = s.parent
        while parent is not None and tracer.spans[parent].name != s.name:
            parent = tracer.spans[parent].parent
        if parent is None:  # outermost span of its name: no double counting
            incl[s.name] += s.end - s.start
            at_site[(s.name, s.site)] += s.end - s.start
    counts: Counter = Counter()
    for op in chosen:
        counts.update(tracer.counts.get(op, {}))
    nodes = calls[("claws.find_claw", "oracle")] + calls[("claws.find_claw_split", "oracle")]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    return {
        "cli.self_s": own["cli.main"] / n,
        "cli.trace_write_s": incl["cli.trace_write"] / n,
        "formats.parse_s": incl["formats.parse"] / n,
        "formats.parse_mb_per_s": ratio(counts["parse_bytes"] / 1e6, incl["formats.parse"]),
        "formats.serialize_s": incl["formats.serialize"] / n,
        "graphs.build_s": incl["graphs.build"] / n,
        "generate.s": incl["generate"] / n,
        "polymatroid.context_builds": calls["polymatroid.context"] / n,
        "polymatroid.context_s": incl["polymatroid.context"] / n,
        "polymatroid.incidence_s": incl["polymatroid.incidence"] / n,
        "polymatroid.dual_rank_s": incl["polymatroid.dual_rank"] / n,
        "solvers.primal_dual_s": incl["solvers.primal_dual"] / n,
        "solvers.primal_dual_self_s": own["solvers.primal_dual"] / n,
        "solvers.iterations": counts["iterations"] / n,
        "solvers.max_den_bits": max((tracer.max_den.get(op, 0) for op in chosen), default=0),
        "solvers.theta_s": incl["solvers.theta"] / n,
        "solvers.local_ratio_s": incl["solvers.local_ratio"] / n,
        "solvers.split_s": incl["solvers.split"] / n,
        "claws.find_claw_calls": calls["claws.find_claw"] / n,
        "claws.find_claw_s": incl["claws.find_claw"] / n,
        "claws.find_claw_split_calls": calls["claws.find_claw_split"] / n,
        "claws.reverse_delete_s": incl["claws.reverse_delete"] / n,
        "claws.reverse_delete_kept_ratio": ratio(counts["rd_out"], counts["rd_in"]),
        "claws.is_minimal_s": incl["claws.is_minimal"] / n,
        "oracle.exact_s": incl["oracle.exact"] / n,
        "oracle.nodes": nodes / n,
        "oracle.incumbent_s": at_site[("solvers.primal_dual", "oracle")] / n,
        "oracle.nodes_per_certified": ratio(nodes, counts["certified"]),
        "reductions.to_bipartite_s": incl["reductions.to_bipartite"] / n,
        "reductions.to_split_s": incl["reductions.to_split"] / n,
        "reductions.from_hypergraph_cover_s": incl["reductions.from_hypergraph_cover"] / n,
    }


def self_time_by_layer(tracer: Tracer) -> dict[str, float]:
    """Total self time of every span name, for the where-did-time-go table."""
    out: Counter = Counter()
    for s, self_s in zip(tracer.spans, self_times(tracer.spans)):
        out[s.name] += self_s
    return dict(out)
