"""Seeded workloads: instance set-up and the operation cycles the runner repeats.

Every instance is written as a text file during set-up, and the program
only ever sees those files through its command line. All randomness
comes from the workload seed, so one seed always yields the same files.

Why these workloads:

* solve-pd: primal-dual with `--trace` on three bipartite shapes. The
  solver core (polymatroid context rebuilds, exact-rational pricing,
  claw tests) does nearly all the work; parsing is under 1%.
* exact-small: every algorithm on desk-scale instances. The
  branch-and-bound oracle, claw checks, split witnesses and the
  cross-edge shadow dominate; polymatroid work is small.
* io-verify: large generate / verify / reduce runs with no solver loop,
  loading the parser, serializers, generators, reductions and the
  minimality check. Primal-dual changes should leave it unchanged.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("solve-pd", "exact-small", "io-verify")
EXACT_ALGS = ("exact", "primal-dual", "local-ratio", "max-subgraph")


@dataclass
class Op:
    """One command-line invocation of the program.

    `key` names the operation; repeats of one key must print and write
    identical bytes. `shape` groups ops for per-shape layer numbers.
    """

    key: str
    kind: str
    argv: list[str]
    shape: str
    input: Path | None = None
    outputs: list[Path] = field(default_factory=list)
    params: dict = field(default_factory=dict)


@dataclass
class Plan:
    cycles: list[list[Op]]
    files: list[Path]
    shapes: dict


def run_cli(main, argv: list[str]) -> str:
    """Run the program quietly during set-up; returns stdout, raises on failure."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    if rc != 0:
        raise RuntimeError(f"set-up command {argv} exited {rc}: {err.getvalue().strip()}")
    return out.getvalue()


def gen_args(family: str, sizes: dict, weights: str = "unit") -> list[str]:
    """`clawdel gen` options for one family at t = 3, without the seed and output."""
    argv = ["--family", family, "--t", "3", "--weights", weights]
    for k, v in sizes.items():
        argv += [f"--{k}", str(v)]
    return argv


class _Setup:
    def __init__(self, main, workdir: Path, seed: int, workload: str):
        self.main = main
        self.dir = workdir
        self.rng = random.Random(f"{workload}:{seed}")
        self.files: list[Path] = []
        self.shapes: dict = {}

    def seed(self) -> int:
        return self.rng.randrange(1 << 31)

    def gen(self, name: str, label: str, spec: list[str]) -> Path:
        path = self.dir / name
        run_cli(self.main, ["gen", "--seed", str(self.seed()), "--output", str(path)] + spec)
        self.note(label, path, " ".join(spec))
        return path

    def note(self, label: str, path: Path, spec: str) -> None:
        self.files.append(path)
        with path.open(encoding="utf-8") as fh:
            header = next(line for line in fh if line.startswith("p "))
        sizes = [int(x) for x in header.split()[2:]]
        entry = self.shapes.setdefault(label, {"spec": spec, "count": 0, "edges": 0})
        entry["count"] += 1
        entry["edges"] += sizes[-2]
        entry["sides"] = sizes[:-2]


def wide_instance(rng: random.Random, na: int, nb: int, m: int, centers: int, t: int) -> str:
    """Text of a sparse bipartite instance with exactly `centers` claw centers.

    Each center gets t random B-neighbours; the remaining edges go to
    other A-vertices, at most t - 1 each, so the number of primal-dual
    raises stays put across seeds while almost every vertex is isolated.
    """
    edges: set[tuple[int, int]] = set()
    chosen = rng.sample(range(1, na + 1), centers)
    for a in chosen:
        edges.update((a, na + b) for b in rng.sample(range(1, nb + 1), t))
    taken = set(chosen)
    degree: dict[int, int] = {}
    while len(edges) < m:
        a, b = rng.randint(1, na), na + rng.randint(1, nb)
        if a in taken or degree.get(a, 0) >= t - 1 or (a, b) in edges:
            continue
        edges.add((a, b))
        degree[a] = degree.get(a, 0) + 1
    lines = [f"# wide seed-derived instance, {centers} claw centers", f"p bip {na} {nb} {m} {t}"]
    lines.extend(f"e {a} {b}" for a, b in sorted(edges))
    return "\n".join(lines) + "\n"


def _solve_op(key: str, shape: str, path: Path, alg: str, trace: Path | None = None) -> Op:
    argv = ["solve", "--alg", alg, "--input", str(path), "--json"]
    outputs = []
    if trace is not None:
        argv += ["--trace", str(trace)]
        outputs.append(trace)
    return Op(key, "solve", argv, shape, path, outputs, {"alg": alg})


def setup_solve_pd(main, workdir: Path, seed: int) -> Plan:
    s = _Setup(main, workdir, seed, "solve-pd")
    sparse = {"na": 120, "nb": 240, "m": 960}
    cycles = []
    # Three ops a cycle, so the median and upper percentiles fall inside the
    # dense/wide group rather than on the edge between two groups of ops;
    # sparse alternates unit and 1:9 weights from one cycle to the next.
    for i in range(12):
        weighted = i % 2 == 1
        label = "sparse-1:9" if weighted else "sparse-unit"
        sparse_path = s.gen(f"sparse-{i}.bip", label,
                            gen_args("bip-random", sparse, "1:9" if weighted else "unit"))
        dense_path = s.gen(f"dense-{i}.bip", "dense-1:9",
                           gen_args("bip-dense", {"na": 70, "nb": 140}, "1:9"))
        wide_path = workdir / f"wide-{i}.bip"
        wide_path.write_text(wide_instance(random.Random(s.seed()), 8000, 16000, 1600, 12, 3),
                             encoding="utf-8")
        s.note("wide", wide_path, "own generator na=8000 nb=16000 m=1600 centers=12 t=3")
        shapes = (("sparse", sparse_path), ("dense", dense_path), ("wide", wide_path))
        cycles.append([
            _solve_op(f"{shape}-{i}", shape, path, "primal-dual",
                      workdir / f"trace-{shape}-{i}.txt")
            for shape, path in shapes
        ])
    return Plan(cycles, s.files, s.shapes)


def setup_exact_small(main, workdir: Path, seed: int) -> Plan:
    s = _Setup(main, workdir, seed, "exact-small")
    kinds = {
        "unit-10x18": ("bip", gen_args("bip-random", {"na": 10, "nb": 18, "m": 70})),
        "w-12x20": ("bip", gen_args("bip-random", {"na": 12, "nb": 20, "m": 70}, "1:9")),
        "dense-6x10": ("bip", gen_args("bip-dense", {"na": 6, "nb": 10})),
        "split-6x12": ("split", gen_args("split-random", {"nc": 6, "ni": 12, "m": 30})),
    }
    cycles = []
    for i in range(128):
        ops = []
        for label, (ext, spec) in kinds.items():
            path = s.gen(f"{label}-{i}.{ext}", label, spec)
            ops.extend(_solve_op(f"{label}-{i}/{alg}", label, path, alg) for alg in EXACT_ALGS)
        cycles.append(ops)
    return Plan(cycles, s.files, s.shapes)


def _gen_op(key: str, path: Path, seed: int, family: str, sizes: dict, weights: str) -> Op:
    argv = ["gen", "--seed", str(seed), "--output", str(path)] + gen_args(family, sizes, weights)
    mode = ("unit",) if weights == "unit" else ("uniform", *(int(x) for x in weights.split(":")))
    return Op(key, "gen", argv, "gen", None, [path],
              {"family": family, "t": 3, "sizes": sizes, "weights": mode})


def _reduce_op(kind: str, src: Path, out: Path) -> Op:
    mapping = out.with_suffix(".map")
    argv = ["reduce", "--kind", kind, "--input", str(src), "--output", str(out),
            "--map", str(mapping)]
    return Op(f"reduce-{kind}", "reduce", argv, "reduce", src, [out, mapping], {"kind": kind})


def setup_io_verify(main, workdir: Path, seed: int) -> Plan:
    s = _Setup(main, workdir, seed, "io-verify")
    big_bip = {"na": 1100, "nb": 2200, "m": 13200}
    big_split = {"nc": 500, "ni": 1000, "m": 6000}
    big_hyp = {"n": 180, "m": 360}

    bip = s.gen("big.bip", "bip-1100x2200", gen_args("bip-random", big_bip, "1:9"))
    split = s.gen("big.split", "split-500x1000", gen_args("split-random", big_split, "1:9"))
    hyp = s.gen("big.hyp", "hyp-180x360", gen_args("hyp-uniform", big_hyp))
    solved = run_cli(main, ["solve", "--alg", "local-ratio", "--input", str(bip), "--json"])
    payload = json.loads(solved)
    sol = workdir / "big.sol"
    sol.write_text(" ".join(str(v) for v in payload["solution"]) + "\n", encoding="utf-8")
    s.files.append(sol)

    cycles = []
    for i in range(4):
        cycles.append([
            _gen_op(f"gen-bip-{i}", workdir / f"gen-bip-{i}.bip", s.seed(), "bip-random",
                    big_bip, "1:9"),
            _gen_op(f"gen-split-{i}", workdir / f"gen-split-{i}.split", s.seed(), "split-random",
                    big_split, "1:9"),
            _gen_op(f"gen-hyp-{i}", workdir / f"gen-hyp-{i}.hyp", s.seed(), "hyp-uniform",
                    big_hyp, "unit"),
            Op("verify", "verify", ["verify", "--input", str(bip), "--solution", str(sol)],
               "verify", bip, [], {"solution": sol}),
            _reduce_op("osbcd-split", bip, workdir / "red-osbcd.split"),
            _reduce_op("split-osbcd", split, workdir / "red-split.bip"),
            _reduce_op("hvc-osbcd", hyp, workdir / "red-hvc.bip"),
        ])
    return Plan(cycles, s.files, s.shapes)


SETUPS = {
    "solve-pd": setup_solve_pd,
    "exact-small": setup_exact_small,
    "io-verify": setup_io_verify,
}
