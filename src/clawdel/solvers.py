"""Deletion solvers: primal-dual, local-ratio, exact, max-subgraph, and `solve`.

The primal-dual solver follows the covering program whose constraint
for a vertex subset S reads

    sum over v in S of dual_rank_incident(v, S) * x_v  >=  dual_rank(E[S]),

with one dual variable per subset. Only the current active set is ever
raised, and it is always V minus the vertices picked so far, so the
dual is recorded as a sequence of (raise amount, tightened vertex)
steps. The solver is event driven: the coefficients
dual_rank_incident(v, S) and dual_rank(E[S]) live in a `DegreeState`
plus a few integers updated as vertices leave S. With `raised` the
total raise so far, vertex v has paid coeff[v] * raised - offset[v], so
a coefficient fall only moves the offset, an integer numerator and
denominator pair, and a heap keyed by raise levels that may be stale
(too low, never too high) is refreshed one vertex at a time as keys
reach the top. Every amount, bound and level is an exact rational. A
heap key leads with the correctly rounded float of its level, which
orders most pairs of keys at float speed but decides nothing the exact
levels would not: see `_key`.

The deletion solvers share one finish step, `_finish`: reverse deletion
on the solver's own claw-free `DegreeState`, then cost, θ and report.
`solve(g, algorithm)` is the one entry point: it picks the solver by
name and solves a split graph through its cross-edge bipartite shadow.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, inf
from typing import Iterable

from . import reductions
from .claws import DegreeState, centre_candidates, find_claw_split, prune
from .claws import reverse_delete  # noqa: F401 (re-export)
from .graphs import BipartiteGraph, SplitGraph


@dataclass(frozen=True)
class TraceStep:
    """One dual raise: the raise amount and the vertex it made tight.

    The set raised is V minus the vertices selected by earlier steps.
    """

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

    Returns sum(dual_rank(delta(v))) / dual_rank(E), in closed form: an
    A-vertex of degree >= t contributes 2 * (deg - t + 1), a B-vertex
    twice its number of such neighbours, read off `g.adj` in O(|E|):
    the denominator sums over `centre_candidates` and the numerator over
    the solution's degrees. A claw-free graph has dual_rank(E) = 0; the
    ratio is then 0 for the empty solution and undefined (ValueError)
    otherwise.
    """
    t, adj = g.t, g.adj
    total = sum(2 * (len(adj[a]) - t + 1) for a in centre_candidates(g))
    sol = sorted(set(solution))
    if total == 0:
        if not sol:
            return Fraction(0)
        raise ValueError("theta undefined: graph is claw free but solution is nonempty")
    numer = 0
    for v in sol:
        if v not in g.vertices:
            raise ValueError(f"vertex {v} out of range")
        if v <= g.n_a:
            numer += max(len(adj[v]) - t + 1, 0)
        else:
            numer += sum(len(adj[a]) >= t for a in adj[v])
    return Fraction(2 * numer, total)


def _finish(state: DegreeState, selected: list[int], lower: Fraction, algorithm: str,
            iterations: int) -> SolveReport:
    """Prune `selected` on the claw-free `state` in which exactly it is removed; report."""
    g = state.g
    solution = sorted(prune(selected, state.can_restore, state.restore))
    return SolveReport(solution=tuple(solution), cost=g.total_weight(solution),
                       dual_lower_bound=lower, theta=theta_of_solution(g, solution),
                       algorithm=algorithm, iterations=iterations)


def _key(level: Fraction, v: int) -> tuple[float, Fraction, int]:
    """Heap key of vertex v tight at `level`: (float prefix, exact level, id).

    The prefix never reorders two keys. Integer true division rounds
    correctly at any operand size, and rounding to nearest is monotone:
    a <= b gives prefix(a) <= prefix(b). So prefix(a) < prefix(b) can
    only hold when a < b, and the tuple order, which compares prefixes
    first, agrees with the exact order whenever the prefixes differ;
    equal prefixes fall through to the exact levels and then the ids.
    A level above the float range raises OverflowError and gets inf,
    which is at least every other prefix, so the map stays monotone; a
    level below it rounds to 0.0 or a subnormal, which is monotone too.
    """
    try:
        prefix = level.numerator / level.denominator
    except OverflowError:
        prefix = inf
    return prefix, level, v


def primal_dual_solve(g: BipartiteGraph) -> tuple[SolveReport, list[TraceStep]]:
    """Primal-dual deletion solver with reverse deletion.

    Each iteration raises the dual variable of the current active set S
    until some vertex's constraint becomes tight (ties to the lowest
    id; zero-weight vertices with a positive coefficient are tight at a
    zero raise), moves that vertex into the preliminary solution and
    out of S, and repeats while the preliminary solution is infeasible.
    Reverse deletion then prunes the preliminary solution to a minimal
    one.

    With `raised` the total raise so far, a vertex of weight w and
    coefficient c has paid c * raised - offset and is tight at level
    (w + offset) / c. A fall of 2 at level `raised` leaves the amount
    paid as it is by taking 2 * raised off the offset, and marks the
    vertex's heap key stale. The offset is an integer numerator and
    denominator in lowest terms, held in a dict only for vertices that
    have fallen, and the subtraction is done inline with the gcd rule
    of `Fraction`'s own subtraction, so a fall builds no `Fraction`.
    Coefficients only fall, so levels only rise and a stale key never
    overstates its vertex's level. A stale key that reaches the top is
    recomputed: pushed back down with `heapreplace` if the level rose,
    dropped if the coefficient is 0, and otherwise current. A current
    key at the top is at most every other vertex's (level, id), so ties
    still go to the lowest id.

    Keys are `_key` triples: a float prefix of the level decides most
    comparisons, and only equal prefixes compare the exact levels. The
    prefix is monotone in the level, so a stale key is still at most
    its vertex's current key. Every raise amount, bound and trace entry
    is exact.
    """
    t, adj, weight = g.t, g.adj, g.weight
    state = DegreeState(g)
    alive, deg = state.alive, state.deg
    coeff = state.coefficients()
    rank = sum(coeff[a] for a in state.candidates)  # dual_rank(E[S])
    offset: dict[int, tuple[int, int]] = {}  # numerator, denominator; absent is 0
    stale = bytearray(len(coeff))
    heap = [_key(weight(v) / coeff[v], v) for v in g.touched if coeff[v]]
    heapq.heapify(heap)
    raised = dual_lb = Fraction(0)
    selected: list[int] = []
    trace: list[TraceStep] = []

    while state.centres:
        _, level, tight = heap[0]
        if stale[tight]:
            stale[tight] = 0
            c = coeff[tight]
            if not c:
                heapq.heappop(heap)
                continue
            w = weight(tight)
            num, den = offset.get(tight, (0, 1))
            true_level = Fraction(w.numerator * den + num * w.denominator,
                                  w.denominator * den * c)
            if true_level != level:
                heapq.heapreplace(heap, _key(true_level, tight))
                continue
        heapq.heappop(heap)
        eps = level - raised
        raised = level
        tn, td = (2 * raised).as_integer_ratio()
        dual_lb += eps * rank
        trace.append(TraceStep(amount=eps, selected=tight))
        selected.append(tight)

        # A centre that loses an edge loses 2; one that leaves S or falls to
        # degree t - 1 also takes 2 from each alive B-neighbour.
        fallen = []
        for a in state.remove(tight):
            if a == tight:
                rank -= coeff[a]
            else:
                fallen.append(a)
                rank -= 2
                if deg[a] >= t:
                    continue
            fallen += [b for b in adj[a] if alive[b]]
        for v in fallen:
            coeff[v] -= 2
            stale[v] = 1
            # offset[v] -= tn / td, kept in lowest terms as Fraction._sub does
            num, den = offset.get(v, (0, 1))
            g1 = gcd(den, td)
            s = den // g1
            num = num * (td // g1) - tn * s
            g2 = gcd(num, g1)
            offset[v] = num // g2, s * (td // g2)

    return _finish(state, selected, dual_lb, "primal-dual", len(trace)), trace


def local_ratio_solve(g: BipartiteGraph) -> SolveReport:
    """Local-ratio baseline: repeatedly zero out a surviving claw.

    Subtracts the minimum residual weight over the t + 1 vertices of a
    claw witness from all of them and collects the vertices that reach
    zero, then prunes with reverse deletion. The sum of the subtracted
    amounts is a valid lower bound on the optimum, so the cost is at
    most (t + 1) times it. The witness is the one `find_claw` returns:
    the lowest centre with its lowest t alive neighbours. Centres only
    disappear as vertices are removed, so the lowest one only moves up
    `state.candidates`. Only vertices with an edge join a witness, so
    only they get a residual weight.
    """
    residual = {v: g.weight(v) for v in g.touched}
    state = DegreeState(g)
    candidates = state.candidates
    selected: list[int] = []
    rounds = 0
    lower = Fraction(0)
    i = 0

    while state.centres:
        while not state.is_centre(candidates[i]):
            i += 1
        centre = candidates[i]
        leaves = [b for b in g.adj[centre] if state.alive[b]][: g.t]
        verts = [centre, *leaves]  # sorted: A-ids precede B-ids
        eps = min(residual[v] for v in verts)
        lower += eps
        rounds += 1
        for v in verts:
            residual[v] -= eps
            if residual[v] == 0:
                state.remove(v)
                selected.append(v)

    return _finish(state, selected, lower, "local-ratio", rounds)


def exact_solve(g: BipartiteGraph) -> SolveReport:
    """Exact minimum-weight deletion, packaged like the other solvers.

    The oracle's minimum set must be feasible. It is pruned to a minimal
    one (only zero-weight vertices can ever be dropped, so the cost is
    still the optimum), and the reported lower bound is the optimum.
    """
    from .oracle import exact_min_deletion_set

    raw, opt = exact_min_deletion_set(g)
    state = DegreeState(g, raw)
    if state.centres:
        raise ValueError("reverse deletion requires a feasible input set")
    return _finish(state, list(raw), opt, "exact", 0)


def max_subgraph_solve(g: BipartiteGraph | SplitGraph) -> tuple[tuple[int, ...], Fraction]:
    """Heaviest claw-free induced subgraph among V minus S and the two sides.

    S comes from the primal-dual solver; on a split graph whose shadow
    solution leaves a split claw, V minus S is no candidate. Each side
    is claw free on its own (A or B of a bipartite graph; the clique
    side has no induced claws and the independent side no edges), so
    the winner always induces a claw-free subgraph. Ties prefer V minus
    S, then the A or clique side.
    """
    candidates = list(map(list, g.sides))
    try:
        deleted = set(solve(g, "primal-dual")[0].solution)
    except ShadowMismatchError:
        pass
    else:
        candidates.insert(0, [v for v in g.vertices if v not in deleted])
    pick = max(candidates, key=g.total_weight)  # the first of equal weights
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
        report, trace = _DELETION_SOLVERS[algorithm](reductions.cross_edge_shadow(g))
        witness = find_claw_split(g, report.solution)
        if witness is not None:
            raise ShadowMismatchError(report.solution, witness)
    return replace(report, elapsed_s=clock() - started), trace
