"""Deletion solvers: primal-dual, local-ratio, exact, max-subgraph, and `solve`.

The primal-dual solver follows the covering program whose constraint
for a vertex subset S reads

    sum over v in S of dual_rank_incident(v, S) * x_v  >=  dual_rank(E[S]),

with one dual variable per subset. Only the current active set is ever
raised, so the dual is recorded as a sequence of (active set, raise
amount, tightened vertex) steps. All arithmetic is exact rationals; no
floating point touches any solver path.

`solve(g, algorithm)` is the one entry point: it picks the solver by
name and solves a split graph through its cross-edge bipartite shadow.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable

from . import reductions
from .claws import find_claw, find_claw_split, reverse_delete
from .graphs import BipartiteGraph, SplitGraph, incident_edges
from .polymatroid import PolymatroidContext, dual_rank, incidence_dual_ranks


@dataclass(frozen=True)
class TraceStep:
    """One dual raise: the active set, the raise amount, the vertex made tight."""

    active: tuple[int, ...]
    amount: Fraction
    selected: int


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solver run.

    `cost` is the weight of `solution`; `dual_lower_bound` is a valid
    lower bound on the optimum established during the run; `theta` is
    the certificate sum(dual_rank(delta(v)) for v in solution) /
    dual_rank(E) on the whole graph, or None where undefined. For
    max-subgraph, `solution` is the kept set, `cost` its weight, and
    `dual_lower_bound` and `theta` are None. `elapsed_s` is set by
    `solve` only.
    """

    solution: tuple[int, ...]
    cost: Fraction
    dual_lower_bound: Fraction | None
    theta: Fraction | None
    algorithm: str
    iterations: int
    elapsed_s: float = 0.0


class ShadowMismatchError(RuntimeError):
    """A split solution verified on the cross-edge shadow fails on the split graph.

    Raised when the bipartite shadow of a split graph is solved and the
    resulting set still leaves a claw in the split graph; such a claw
    necessarily uses a clique vertex as a leaf.
    """

    def __init__(self, solution: tuple[int, ...], witness) -> None:
        self.solution = solution
        self.witness = witness
        super().__init__(
            f"shadow solution {list(solution)} leaves a split claw with center "
            f"{witness.center} and leaves {list(witness.leaves)}"
        )


def theta_of_solution(g: BipartiteGraph, solution: Iterable[int]) -> Fraction:
    """Certificate ratio for a minimal feasible set on the whole graph.

    Returns sum(dual_rank(delta(v))) / dual_rank(E). A claw-free graph
    has dual_rank(E) = 0; the ratio is then 0 for the empty solution
    and undefined (ValueError) otherwise.
    """
    ctx = PolymatroidContext(g)
    total = dual_rank(ctx, ctx.edges)
    sol = sorted(set(solution))
    if total == 0:
        if not sol:
            return Fraction(0)
        raise ValueError("theta undefined: graph is claw free but solution is nonempty")
    numer = sum(dual_rank(ctx, incident_edges(g, v)) for v in sol)
    return Fraction(numer, total)


def primal_dual_solve(g: BipartiteGraph) -> tuple[SolveReport, list[TraceStep]]:
    """Primal-dual deletion solver with reverse deletion.

    Each iteration raises the dual variable of the current active set S
    until some vertex's constraint becomes tight (ties to the lowest
    id; zero-weight vertices with a positive coefficient are tight at a
    zero raise), moves that vertex into the preliminary solution and
    out of S, and repeats while the preliminary solution is infeasible.
    Reverse deletion then prunes the preliminary solution to a minimal
    one.
    """
    residual = {v: g.weight(v) for v in g.vertices}
    active: list[int] = list(g.vertices)
    selected: list[int] = []
    trace: list[TraceStep] = []
    dual_lb = Fraction(0)

    while find_claw(g, selected) is not None:
        ctx = PolymatroidContext(g, frozenset(active))
        coeff = incidence_dual_ranks(ctx)
        prices = [(Fraction(residual[v], coeff[v]), v) for v in active if coeff[v] > 0]
        eps, tight = min(prices)
        for v in active:
            if coeff[v] > 0:
                residual[v] -= eps * coeff[v]
        dual_lb += eps * dual_rank(ctx, ctx.edges)
        trace.append(TraceStep(active=tuple(active), amount=eps, selected=tight))
        selected.append(tight)
        active.remove(tight)

    solution = reverse_delete(g, selected)
    cost = g.total_weight(solution)
    report = SolveReport(
        solution=tuple(sorted(solution)),
        cost=cost,
        dual_lower_bound=dual_lb,
        theta=theta_of_solution(g, solution),
        algorithm="primal-dual",
        iterations=len(trace),
    )
    return report, trace


def local_ratio_solve(g: BipartiteGraph) -> SolveReport:
    """Local-ratio baseline: repeatedly zero out a surviving claw.

    Subtracts the minimum residual weight over the t + 1 vertices of a
    claw witness from all of them and collects the vertices that reach
    zero, then prunes with reverse deletion. The sum of the subtracted
    amounts is a valid lower bound on the optimum, so the cost is at
    most (t + 1) times it.
    """
    residual = {v: g.weight(v) for v in g.vertices}
    selected: list[int] = []
    chosen: set[int] = set()
    rounds = 0
    lower = Fraction(0)

    while (witness := find_claw(g, selected)) is not None:
        verts = witness.vertices
        eps = min(residual[v] for v in verts)
        lower += eps
        rounds += 1
        for v in verts:
            residual[v] -= eps
            if residual[v] == 0 and v not in chosen:
                chosen.add(v)
                selected.append(v)

    solution = reverse_delete(g, selected)
    return SolveReport(
        solution=tuple(sorted(solution)),
        cost=g.total_weight(solution),
        dual_lower_bound=lower,
        theta=theta_of_solution(g, solution),
        algorithm="local-ratio",
        iterations=rounds,
    )


def exact_solve(g: BipartiteGraph) -> SolveReport:
    """Exact minimum-weight deletion, packaged like the other solvers.

    The oracle's minimum set is pruned to a minimal one (only
    zero-weight vertices can ever be dropped, so the cost is still the
    optimum), and the reported lower bound is the optimum itself.
    """
    from .oracle import exact_min_deletion_set

    raw, _ = exact_min_deletion_set(g)
    minimal = reverse_delete(g, list(raw))
    return SolveReport(
        solution=tuple(sorted(minimal)),
        cost=g.total_weight(minimal),
        dual_lower_bound=g.total_weight(minimal),
        theta=theta_of_solution(g, minimal),
        algorithm="exact",
        iterations=0,
    )


def max_subgraph_solve(g: BipartiteGraph | SplitGraph) -> tuple[tuple[int, ...], Fraction]:
    """Heaviest claw-free induced subgraph among V minus S and the two sides.

    S comes from the primal-dual solver. Each side is claw free on its
    own (A or B of a bipartite graph; the clique side has no induced
    claws and the independent side no edges), so the winner always
    induces a claw-free subgraph. Ties prefer V minus S, then the A or
    clique side.
    """
    report, _ = solve(g, "primal-dual")
    deleted = set(report.solution)
    remainder = [v for v in g.vertices if v not in deleted]
    if isinstance(g, BipartiteGraph):
        candidates = [remainder, list(g.a_side), list(g.b_side)]
    else:
        candidates = [remainder, list(g.clique_side), list(g.indep_side)]
    best = max(range(3), key=lambda i: (g.total_weight(candidates[i]), -i))
    pick = candidates[best]
    return tuple(sorted(pick)), g.total_weight(pick)


# Each entry looks its solver up when called, so a module attribute
# replaced at run time (a profiler's wrapper, say) is the one that runs.
_DELETION_SOLVERS = {
    "primal-dual": lambda g: primal_dual_solve(g),
    "local-ratio": lambda g: (local_ratio_solve(g), None),
    "exact": lambda g: (exact_solve(g), None),
}
ALGORITHMS = (*_DELETION_SOLVERS, "max-subgraph")


def solve(
    g: BipartiteGraph | SplitGraph, algorithm: str
) -> tuple[SolveReport, list[TraceStep] | None]:
    """Run one of `ALGORITHMS` on g, timed; only primal-dual returns a trace.

    A split graph's deletion algorithms run on its cross-edge bipartite
    shadow, and the set found is re-verified on the split graph; a claw
    left there (one that uses a clique vertex as a leaf) raises
    ShadowMismatchError.
    """
    clock = time.perf_counter
    started = clock()
    trace = None
    if algorithm == "max-subgraph":
        kept, weight = max_subgraph_solve(g)
        report = SolveReport(solution=kept, cost=weight, dual_lower_bound=None, theta=None,
                             algorithm=algorithm, iterations=0)
    elif algorithm not in _DELETION_SOLVERS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    elif isinstance(g, BipartiteGraph):
        report, trace = _DELETION_SOLVERS[algorithm](g)
    else:
        shadow, _ = reductions.to_bipartite(g)
        report, trace = _DELETION_SOLVERS[algorithm](shadow)
        witness = find_claw_split(g, report.solution)
        if witness is not None:
            raise ShadowMismatchError(report.solution, witness)
    return replace(report, elapsed_s=clock() - started), trace
