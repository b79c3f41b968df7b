"""Independent output checks for the clawdel benchmark.

Nothing here imports `clawdel`: instances are read with a parser of
their own and every claim the program prints (feasibility, minimality,
cost, lower bound, theta, the dual trace, reductions, generated files)
is recomputed from the instance text. Each check raises CheckError
with a reason when the program's output is wrong.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction


class CheckError(ValueError):
    """The program's output disagrees with the independent recomputation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


@dataclass
class Instance:
    """A parsed instance file.

    For `bip` and `split`, `n1`/`n2` are the side sizes (A or clique
    side first) and `edges` the (side-1 id, side-2 id) pairs. For `hyp`,
    `n1` is the vertex count and `hyperedges` lists sorted tuples.
    Missing weights are 1.
    """

    kind: str
    n1: int
    n2: int
    t: int
    edges: set = field(default_factory=set)
    weights: dict = field(default_factory=dict)
    hyperedges: list = field(default_factory=list)
    adj: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    def weight(self, v: int) -> Fraction:
        return self.weights.get(v, Fraction(1))

    def total(self, vs) -> Fraction:
        return sum((self.weight(v) for v in vs), Fraction(0))


def parse_instance(text: str | bytes) -> Instance:
    """Parse `p bip`, `p split` or `p hyp` text; raises CheckError when malformed."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    rows = [line.split() for line in text.split("\n")]
    rows = [r for r in rows if r and not r[0].startswith("#")]
    require(bool(rows) and rows[0][0] == "p", "missing header")
    head = rows[0]
    if head[1] == "hyp":
        require(len(head) == 5, "bad hyp header")
        n, m, t = (int(x) for x in head[2:])
        inst = Instance("hyp", n, 0, t)
        for r in rows[1:]:
            require(r[0] == "h" and len(r) == t + 1, f"bad hyperedge line {r}")
            e = tuple(sorted(int(x) for x in r[1:]))
            require(len(set(e)) == t and all(1 <= v <= n for v in e), f"bad hyperedge {e}")
            inst.hyperedges.append(e)
        require(len(inst.hyperedges) == m, "hyperedge count differs from header")
        require(len(set(inst.hyperedges)) == m, "duplicate hyperedge")
        return inst
    require(head[1] in ("bip", "split") and len(head) == 6, f"bad header {head}")
    n1, n2, m, t = (int(x) for x in head[2:])
    inst = Instance(head[1], n1, n2, t)
    inst.adj = {v: set() for v in range(1, n1 + n2 + 1)}
    for r in rows[1:]:
        require(len(r) == 3, f"bad line {r}")
        if r[0] == "n":
            v = int(r[1])
            require(1 <= v <= n1 + n2 and v not in inst.weights, f"bad weight line {r}")
            inst.weights[v] = Fraction(r[2])
        else:
            require(r[0] == "e", f"unknown line {r}")
            a, b = int(r[1]), int(r[2])
            require(1 <= a <= n1 < b <= n1 + n2, f"edge {a} {b} out of range")
            require((a, b) not in inst.edges, f"duplicate edge {a} {b}")
            inst.edges.add((a, b))
            inst.adj[a].add(b)
            inst.adj[b].add(a)
    require(len(inst.edges) == m, "edge count differs from header")
    return inst


# -- claws ------------------------------------------------------------------


def bip_claw_center(inst: Instance, removed: set) -> int | None:
    """An A-vertex left with t or more surviving neighbours, if any."""
    for a in range(1, inst.n1 + 1):
        if a not in removed and len(inst.adj[a] - removed) >= inst.t:
            return a
    return None


def split_claw_center(inst: Instance, removed: set) -> int | None:
    """A clique vertex centring a claw after `removed` is deleted, if any.

    Leaves are pairwise nonadjacent: t independent neighbours, or one
    other clique vertex plus t - 1 independent neighbours it misses.
    """
    clique = [c for c in range(1, inst.n1 + 1) if c not in removed]
    for c in clique:
        ind = inst.adj[c] - removed
        if len(ind) >= inst.t:
            return c
        if any(len(ind - inst.adj[c2]) >= inst.t - 1 for c2 in clique if c2 != c):
            return c
    return None


def claw_center(inst: Instance, removed: set) -> int | None:
    if inst.kind == "bip":
        return bip_claw_center(inst, removed)
    return split_claw_center(inst, removed)


def check_minimal(inst: Instance, solution: set) -> None:
    """`solution` is feasible and dropping any one vertex breaks feasibility."""
    require(claw_center(inst, solution) is None, "solution leaves a claw")
    if inst.kind == "split":
        for v in solution:
            require(claw_center(inst, solution - {v}) is not None, f"vertex {v} is redundant")
        return
    t = inst.t
    for v in solution:
        if v <= inst.n1:
            needed = len(inst.adj[v] - solution) >= t
        else:
            needed = any(
                a not in solution and len(inst.adj[a] - solution) == t - 1 for a in inst.adj[v]
            )
        require(needed, f"vertex {v} is redundant")


def theta(inst: Instance, solution) -> Fraction:
    """sum(dual_rank(delta(v)) for v in solution) / dual_rank(E), in closed form.

    Computed on the cross-edge shadow for split instances. An active
    A-vertex (degree >= t) contributes 2 * (deg - t + 1); a B-vertex
    twice its number of active neighbours.
    """
    t, n1 = inst.t, inst.n1
    active = {a for a in range(1, n1 + 1) if len(inst.adj[a]) >= t}
    total = 2 * sum(len(inst.adj[a]) - t + 1 for a in active)
    numer = 0
    for v in solution:
        if v <= n1:
            numer += 2 * (len(inst.adj[v]) - t + 1) if v in active else 0
        else:
            numer += 2 * len(inst.adj[v] & active)
    if total == 0:
        require(not numer, "theta undefined on a claw-free graph")
        return Fraction(0)
    return Fraction(numer, total)


# -- solve ------------------------------------------------------------------

SOLVE_KEYS = {"solution", "cost", "lower_bound", "theta", "algorithm", "iterations", "time_ms"}
_TIME_MS = re.compile(r'"time_ms": -?[0-9]+')


def normalized_stdout(stdout: str) -> str:
    """Solve JSON with the run-dependent `time_ms` value zeroed."""
    return _TIME_MS.sub('"time_ms": 0', stdout)


def _frac(value) -> Fraction:
    require(isinstance(value, str), f"rational expected as a string, got {value!r}")
    return Fraction(value)


def check_solve(inst: Instance, alg: str, stdout: str) -> dict:
    """Check one `solve --json` result; returns the payload with Fractions."""
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckError(f"stdout is not JSON: {exc}") from None
    require(set(payload) == SOLVE_KEYS, f"unexpected keys {sorted(payload)}")
    require(payload["algorithm"] == alg, f"algorithm {payload['algorithm']!r} != {alg!r}")
    sol = payload["solution"]
    require(all(isinstance(v, int) for v in sol), "solution ids must be integers")
    require(sol == sorted(set(sol)), "solution must be strictly ascending")
    require(all(1 <= v <= inst.n for v in sol), "solution id out of range")
    chosen = set(sol)
    cost = _frac(payload["cost"])
    require(cost == inst.total(chosen), f"cost {cost} != weight {inst.total(chosen)}")
    out = {"solution": chosen, "cost": cost, "iterations": payload["iterations"]}
    if alg == "max-subgraph":
        require(payload["lower_bound"] is None and payload["theta"] is None,
                "max-subgraph reports no bound or theta")
        require(claw_center(inst, set(range(1, inst.n + 1)) - chosen) is None,
                "kept set is not claw free")
        out["total"] = inst.total(range(1, inst.n + 1))
        return out
    check_minimal(inst, chosen)
    lower = _frac(payload["lower_bound"])
    require(0 <= lower <= cost, f"lower bound {lower} not in [0, cost {cost}]")
    require(_frac(payload["theta"]) == theta(inst, chosen), "theta differs from closed form")
    out["lower_bound"] = lower
    if alg == "exact":
        require(lower == cost, "exact cost must equal its lower bound")
    return out


def check_exact_group(results: dict) -> None:
    """Cross-check one instance's results: {alg: checked payload}.

    The exact optimum lies between every heuristic lower bound and
    every heuristic cost, and bounds the max-subgraph weight.
    """
    exact = results.get("exact")
    if exact is None:
        return
    opt = exact["cost"]
    for alg in ("primal-dual", "local-ratio"):
        if alg in results:
            r = results[alg]
            require(r["lower_bound"] <= opt <= r["cost"], f"{alg} bounds do not bracket OPT {opt}")
    if "max-subgraph" in results:
        r = results["max-subgraph"]
        require(r["cost"] <= r["total"] - opt, "max-subgraph weight exceeds total minus OPT")


def check_refusal(inst: Instance, alg: str, rc: int, stderr: str) -> str:
    """Classify a non-zero exit the program documents; CheckError otherwise.

    Exit 3 is the oracle size guard on an exact solve. Exit 1 on a split
    instance reports a shadow solution leaving a split claw: the
    witness is checked to be a real claw and the solution to be
    feasible on the cross-edge shadow.
    """
    if rc == 3:
        require(alg == "exact" and "too large for oracle" in stderr, f"unexpected exit 3: {stderr}")
        return "size-guard"
    require(rc == 1 and inst.kind == "split", f"unexpected exit {rc}: {stderr.strip()}")
    m = re.search(r"shadow solution \[([0-9, ]*)\] leaves a split claw with center "
                  r"([0-9]+) and leaves \[([0-9, ]*)\]", stderr)
    require(m is not None, f"exit 1 without a claw witness: {stderr.strip()}")
    sol = {int(x) for x in m.group(1).replace(",", " ").split()}
    center = int(m.group(2))
    leaves = [int(x) for x in m.group(3).replace(",", " ").split()]
    require(bip_claw_center(inst, sol) is None, "shadow solution is infeasible on the shadow")
    require(len(set(leaves)) == inst.t, "witness needs t distinct leaves")
    require(center <= inst.n1 and center not in sol and not sol & set(leaves),
            "witness uses a deleted vertex")
    clique_leaves = [v for v in leaves if v <= inst.n1]
    ind_leaves = {v for v in leaves if v > inst.n1}
    require(ind_leaves <= inst.adj[center], "independent leaf not adjacent to the center")
    require(len(clique_leaves) <= 1 and center not in clique_leaves, "clique leaves are adjacent")
    if clique_leaves:
        require(not inst.adj[clique_leaves[0]] & ind_leaves, "clique leaf adjacent to a leaf")
    return "shadow-mismatch"


class _DualLoads:
    """Covering coefficients of the surviving vertices and the dual load each has taken.

    An active A-vertex (surviving degree >= t) has coefficient
    2 * (deg - t + 1), a B-vertex twice its number of active surviving
    neighbours. Coefficients change only when a vertex is removed, so a
    load is banked at each change and grows linearly in the total raise
    in between.
    """

    def __init__(self, inst: Instance) -> None:
        self.inst, self.t = inst, inst.t
        self.alive = set(range(1, inst.n + 1))
        self.deg = {a: len(inst.adj[a]) for a in range(1, inst.n1 + 1)}
        self.coeff: dict[int, int] = {}
        for a, d in self.deg.items():
            if d >= self.t:
                self.coeff[a] = 2 * (d - self.t + 1)
                for b in inst.adj[a]:
                    self.coeff[b] = self.coeff.get(b, 0) + 2
        self.rank = sum(self.coeff.get(a, 0) for a in self.deg)  # dual_rank(E[S])
        self.raised = Fraction(0)
        self.banked: dict[int, Fraction] = {}
        self.since: dict[int, Fraction] = {}

    def load(self, v: int) -> Fraction:
        return self.banked.get(v, 0) + self.coeff.get(v, 0) * (self.raised - self.since.get(v, 0))

    def _set(self, v: int, c: int) -> None:
        self.banked[v] = self.load(v)
        self.since[v] = self.raised
        self.coeff[v] = c

    def remove(self, v: int) -> None:
        inst, t = self.inst, self.t
        self._set(v, 0)
        self.alive.discard(v)
        if v <= inst.n1:
            if self.deg[v] >= t:
                self.rank -= 2 * (self.deg[v] - t + 1)
                for b in inst.adj[v] & self.alive:
                    self._set(b, self.coeff[b] - 2)
            return
        for a in inst.adj[v] & self.alive:
            d = self.deg[a] = self.deg[a] - 1
            if d + 1 < t:
                continue
            self.rank -= 2
            self._set(a, self.coeff[a] - 2)
            if d == t - 1:
                for b in inst.adj[a] & self.alive:
                    self._set(b, self.coeff[b] - 2)


def check_dual_trace(inst: Instance, payload: dict, trace_text: str) -> None:
    """Certify the primal-dual lower bound from the `--trace` file.

    Replays the raises on the active sets with the covering coefficients
    kept in closed form: the dual load of each vertex may not exceed
    its weight (dual feasibility, so the bound is valid by weak duality)
    and reaches it exactly when the vertex is chosen. The bound is
    sum(raise * dual_rank(E[S])) over the steps.
    """
    require(inst.kind == "bip", "dual trace is checked on bipartite instances")
    dual = _DualLoads(inst)
    survivors = sorted(dual.alive)
    bound = Fraction(0)
    picked: list[int] = []
    lines = [ln for ln in trace_text.split("\n") if ln and not ln.startswith("#")]
    for line in lines:
        tok = line.split()
        require(tok[0] == "raise" and tok[2] == "tight" and tok[4] == "active",
                f"bad line {line[:60]}")
        eps, sel = Fraction(tok[1]), int(tok[3])
        require(eps >= 0, "negative raise")
        require([int(x) for x in tok[5:]] == survivors, "active set is not the survivors")
        require(dual.coeff.get(sel, 0) > 0, f"tight vertex {sel} has no coefficient")
        bound += eps * dual.rank
        dual.raised += eps
        require(dual.load(sel) == inst.weight(sel), f"vertex {sel} is not tight")
        picked.append(sel)
        dual.remove(sel)
        survivors.remove(sel)
    loaded = set(dual.banked) | set(dual.coeff)
    require(all(dual.load(v) <= inst.weight(v) for v in loaded), "dual load exceeds a weight")
    require(bound == payload["lower_bound"], f"trace bound {bound} != {payload['lower_bound']}")
    require(len(lines) == payload["iterations"], "iterations differ from trace length")
    require(bip_claw_center(inst, set(picked)) is None, "raised vertices leave a claw")
    require(payload["solution"] <= set(picked), "solution holds a vertex never made tight")


# -- verify, gen, reduce ----------------------------------------------------


def check_verify(inst: Instance, solution_text: str, stdout: str) -> None:
    sol = {int(x) for x in solution_text.split()}
    feasible = claw_center(inst, sol) is None
    minimal = False
    if feasible:
        try:
            check_minimal(inst, sol)
            minimal = True
        except CheckError:
            pass
    expected = (f"feasible={str(feasible).lower()} minimal={str(minimal).lower()} "
                f"cost={inst.total(sol)}\n")
    require(stdout == expected, f"verify printed {stdout!r}, expected {expected!r}")


def check_gen(out: Instance, family: str, t: int, sizes: dict, weights: tuple) -> None:
    """A generated file has the requested shape, edge count and weight range."""
    require(out.t == t, "wrong t")
    if family == "hyp-uniform":
        require(out.kind == "hyp" and out.n1 == sizes["n"] and len(out.hyperedges) == sizes["m"],
                "wrong hypergraph size")
        return
    kind, n1, n2 = {
        "bip-random": ("bip", sizes.get("na"), sizes.get("nb")),
        "bip-dense": ("bip", sizes.get("na"), sizes.get("nb")),
        "split-random": ("split", sizes.get("nc"), sizes.get("ni")),
    }[family]
    require((out.kind, out.n1, out.n2) == (kind, n1, n2), "wrong kind or side sizes")
    if family == "bip-dense":
        require(all(len(out.adj[a]) >= 2 * (t - 1) for a in range(1, n1 + 1)),
                "dense degree too low")
    else:
        require(len(out.edges) == sizes["m"], "wrong edge count")
    if weights == ("unit",):
        require(not out.weights, "unit instance lists weights")
    else:
        lo, hi = weights[1], weights[2]
        require(all(w.denominator == 1 and lo <= w <= hi and w != 1 for w in out.weights.values()),
                "weight outside the requested range")


def _check_map(map_text: str, kind: str, groups: list) -> None:
    lines = [ln for ln in map_text.split("\n") if ln and not ln.startswith("#")]
    expected = [f"map {kind}"] + [f"g {name} {lo} {hi}" for name, lo, hi in groups] + ["offset 0"]
    require(lines == expected, f"map sidecar differs: {lines[:3]}")


def check_reduce(kind: str, src: Instance, out: Instance, map_text: str | None) -> None:
    """The constructed instance is exactly the documented construction of `src`."""
    if kind in ("osbcd-split", "split-osbcd"):
        want = "split" if kind == "osbcd-split" else "bip"
        require(out.kind == want and (out.n1, out.n2, out.t) == (src.n1, src.n2, src.t),
                "sizes or t changed")
        require(out.edges == src.edges, "edge set changed")
        require(out.weights == {v: w for v, w in src.weights.items() if w != 1}, "weights changed")
        if map_text is not None:
            names = ("clique", "independent") if kind == "osbcd-split" else ("A", "B")
            _check_map(map_text, kind, [(names[0], 1, src.n1), (names[1], src.n1 + 1, src.n)])
        return
    require(kind == "hvc-osbcd", f"unchecked reduction {kind}")
    n, m = src.n1, len(src.hyperedges)
    n_a = n * m
    require(out.kind == "bip" and (out.n1, out.n2, out.t) == (n_a, n, src.t), "wrong gadget sizes")
    require(not out.weights, "gadget instance must be unit weight")
    edges = {((j * n) + i + 1, n_a + v)
             for j, e in enumerate(src.hyperedges) for i in range(n) for v in e}
    require(out.edges == edges, "gadget edges differ from the construction")
    if map_text is not None:
        groups = [(f"e{j + 1}", j * n + 1, (j + 1) * n) for j in range(m)]
        groups.append(("V", n_a + 1, n_a + n))
        _check_map(map_text, kind, groups)
