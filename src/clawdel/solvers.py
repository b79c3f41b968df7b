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
a coefficient fall only moves the offset. Its exact value is needed
only for a vertex that reaches the top of the heap: a fall costs one
float subtraction, rounded down, on a lower bound of the offset, and
records the raise index; the exact offset is folded from those indices
when the float bound cannot settle which vertex is tight next. This is
a dynamic filter for an exact predicate (Brönnimann, Burnikel and Pion,
2001). Every amount, bound and level is an exact rational: see `_key`
and `_floor_level` for the two kinds of heap key.

Primal-dual and local-ratio share one finish step, `_finish`: reverse
deletion on the solver's own claw-free `DegreeState`, then cost, θ and
report. `solve(g, algorithm)` is the one entry point; it runs exact on
g itself and the other two on a split graph's cross-edge shadow.
"""

from __future__ import annotations

import heapq
import time
from collections import defaultdict
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, inf, nextafter
from typing import Iterable

from . import reductions
from .claws import DegreeState, centre_candidates, find_claw_split, prune, reverse_delete
from .graphs import BipartiteGraph, SplitGraph, Weight


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
    lower bound on the optimum (exact's is the optimum); `theta` is
    sum(dual_rank(delta(v)) for v in solution) / dual_rank(E) on the
    graph or a split graph's shadow, 0 where dual_rank(E) = 0. For
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
    the solution's degrees. A claw-free graph has dual_rank(E) = 0, and
    then every numerator term is 0 too, so θ is 0. An id outside the
    graph raises ValueError.
    """
    t, adj = g.t, g.adj
    total = sum(2 * (len(adj[a]) - t + 1) for a in centre_candidates(g))
    numer, vertices = 0, g.vertices
    for v in set(solution):
        if v not in vertices:
            raise ValueError(f"vertex {v} out of range")
        if v <= g.n_a:
            numer += max(len(adj[v]) - t + 1, 0)
        else:
            numer += sum(len(adj[a]) >= t for a in adj[v])
    return Fraction(2 * numer, total) if total else Fraction(0)


def _finish(state: DegreeState, selected: list[int], lower: Fraction, algorithm: str,
            iterations: int) -> SolveReport:
    """Prune `selected` on the claw-free `state` in which exactly it is removed; report."""
    g = state.g
    solution = sorted(prune(selected, state.can_restore, state.restore))
    return SolveReport(solution=tuple(solution), cost=g.total_weight(solution),
                       dual_lower_bound=lower, theta=theta_of_solution(g, solution),
                       algorithm=algorithm, iterations=iterations)


def _key(level: Fraction, v: int) -> tuple[float, int, Fraction, int]:
    """Exact heap key of vertex v tight at `level`: (float prefix, 1, level, id).

    The prefix never reorders two keys. Integer true division rounds
    correctly at any operand size, and rounding to nearest is monotone:
    a <= b gives prefix(a) <= prefix(b). So prefix(a) < prefix(b) can
    only hold when a < b, and the tuple order, which compares prefixes
    first, agrees with the exact order whenever the prefixes differ;
    equal prefixes fall through to the exact levels and then the ids.
    A level above the float range raises OverflowError and gets inf,
    which is at least every other prefix, so the map stays monotone; a
    level below it rounds to 0.0 or a subnormal, which is monotone too.
    A float above the prefix is above the level itself, so a lower-bound
    key `(lb, 0, id)` with lb > prefix belongs to a higher level; at
    equal floats it sorts first, as its level may be the lower one.
    """
    try:
        prefix = level.numerator / level.denominator
    except OverflowError:
        prefix = inf
    return prefix, 1, level, v


def _floor_level(w: Weight, low: float, c: int) -> float:
    """A float at most (w + offset) / c for every offset >= `low`; c > 0.

    The heap key `(_floor_level(...), 0, id)` of a vertex of weight w
    and coefficient c is thus at most its exact `_key`. Each of the
    three roundings (w to a float, the sum, the quotient) is taken one
    float further down. A weight above the float range gives -inf, and
    so does a `low` of -inf: such a key always takes the exact path.
    """
    try:
        wf = nextafter(w.numerator / w.denominator, -inf)
    except OverflowError:
        return -inf
    return nextafter(nextafter(wf + low, -inf) / c, -inf)


def _fold(num: int, den: int, marks: list[int],
          twice: list[tuple[int, int]]) -> tuple[int, int]:
    """num/den minus twice[k] for each raise index k in `marks`, in lowest terms.

    Each step is `Fraction`'s own subtraction rule, done on the integer
    pairs so that no `Fraction` is built.
    """
    for k in marks:
        tn, td = twice[k]
        g1 = gcd(den, td)
        s = den // g1
        num = num * (td // g1) - tn * s
        g2 = gcd(num, g1)
        num, den = num // g2, s * (td // g2)
    return num, den


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
    paid as it is by taking 2 * raised off the offset. The fall takes
    the float nearest 2 * raised off `low[v]`, rounded down with
    `nextafter`, so `low[v]` stays at most the offset: as `low[v]` <= 0,
    the difference is at least that float, so the step `nextafter` takes
    is at least the float's own step, and half of it covers the
    rounding of the difference, the other half that of 2 * raised. The
    fall appends the raise index to `marks[v]` and does no exact
    arithmetic. A vertex with marks has a stale key: marks are folded
    only as an exact key is made. Coefficients only fall, so levels
    only rise and a stale key never overstates its vertex's level.

    The heap holds one key per vertex: a lower bound `(lb, 0, id)` from
    `_floor_level`, or an exact `_key` `(prefix, 1, level, id)`. Each is
    at most the vertex's exact key, and the two kinds agree with the
    exact order as `_key` explains. At the top:

    - a stale key whose coefficient is 0 is dropped;
    - a stale key whose new float bound rose above it is pushed back
      down with `heapreplace` as a lower bound, with no exact work, and
      keeps its marks;
    - any other lower bound, or a stale exact key, gets its exact level:
      the offset is folded from the vertex's marks (`_fold`). The key
      is pushed back down unless it is still at most both children;
    - an exact key that is current is popped: it is at most every
      other vertex's exact key, so its vertex has the least (level, id),
      and ties still go to the lowest id.

    A bound that overflows is -inf and takes the exact path. Every raise
    amount, bound and trace entry is exact.
    """
    t, adj, weight = g.t, g.adj, g.weight
    heappop, heapreplace = heapq.heappop, heapq.heapreplace
    state = DegreeState(g)
    alive, deg = state.alive, state.deg
    coeff = state.coefficients()
    rank = sum(coeff[a] for a in state.candidates)  # dual_rank(E[S])
    low: dict[int, float] = {}  # float lower bound of each offset; absent is 0
    marks = defaultdict(list)  # raise indices of the falls not yet in `offset`
    offset: dict[int, tuple[int, int]] = {}  # numerator, denominator; absent is 0
    twice: list[tuple[int, int]] = []  # 2 * raised after each raise
    after, ninf, low_get = nextafter, -inf, low.get  # for the fall loop
    heap = [(_floor_level(weight(v), 0.0, coeff[v]), 0, v) for v in g.touched if coeff[v]]
    heapq.heapify(heap)
    raised = dual_lb = Fraction(0)
    trace: list[TraceStep] = []

    while state.centres:
        key = heap[0]
        tight = key[-1]
        if tight in marks or not key[1]:
            c = coeff[tight]
            if tight in marks:
                if not c:
                    heappop(heap)
                    continue
                lb = _floor_level(weight(tight), low[tight], c)
                if lb > key[0]:
                    heapreplace(heap, (lb, 0, tight))
                    continue
            w = weight(tight)
            num, den = offset.get(tight, (0, 1))
            if tight in marks:
                num, den = offset[tight] = _fold(num, den, marks.pop(tight), twice)
            level = Fraction(w.numerator * den + num * w.denominator, w.denominator * den * c)
            key = _key(level, tight)
            n = len(heap)
            if n > 1 and heap[1] < key or n > 2 and heap[2] < key:
                heapreplace(heap, key)
                continue
        else:
            level = key[2]
        heappop(heap)
        eps = level - raised
        raised = level
        k = len(twice)
        tn, td = (2 * raised).as_integer_ratio()
        twice.append((tn, td))
        try:
            up = tn / td  # the float nearest 2 * raised
        except OverflowError:
            up = inf
        dual_lb += eps * rank
        trace.append(TraceStep(amount=eps, selected=tight))

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
            low[v] = after(low_get(v, 0.0) - up, ninf)
            marks[v].append(k)

    return _finish(state, [s.selected for s in trace], dual_lb, "primal-dual", len(trace)), trace


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
    only they get a residual weight. Residuals and the bound stay `int`
    while every weight is integral; the bound is reported as a `Fraction`.
    """
    residual = {v: g.weight(v) for v in g.touched}
    state = DegreeState(g)
    candidates = state.candidates
    selected: list[int] = []
    rounds = lower = i = 0

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

    return _finish(state, selected, Fraction(lower), "local-ratio", rounds)


def exact_solve(g: BipartiteGraph | SplitGraph) -> SolveReport:
    """Exact minimum-weight deletion, packaged like the other solvers.

    The oracle's minimum set is pruned by reverse deletion (only
    zero-weight vertices can ever be dropped, so the cost is still the
    optimum); the lower bound is the optimum, θ read on a split shadow.
    """
    from .oracle import exact_min_deletion_set

    raw, opt = exact_min_deletion_set(g)
    solution = sorted(reverse_delete(g, raw))
    shadow = g if isinstance(g, BipartiteGraph) else reductions.cross_edge_shadow(g)
    return SolveReport(solution=tuple(solution), cost=g.total_weight(solution),
                       dual_lower_bound=opt, theta=theta_of_solution(shadow, solution),
                       algorithm="exact", iterations=0)


def max_subgraph_solve(g: BipartiteGraph | SplitGraph) -> tuple[tuple[int, ...], Fraction]:
    """Heaviest claw-free induced subgraph among V minus S and the two sides.

    S comes from the primal-dual solver; on a split graph whose shadow
    solution leaves a split claw, V minus S is no candidate. Each side
    is claw free on its own (A or B of a bipartite graph; the clique
    side has no induced claws and the independent side no edges), so
    the winner always induces a claw-free subgraph. Ties prefer V minus
    S, then the A or clique side. Only the winner's ids are listed.
    """
    candidates = [(side, g.total_weight(side)) for side in g.sides]
    try:
        report = solve(g, "primal-dual")[0]
    except ShadowMismatchError:
        pass
    else:
        deleted = set(report.solution)
        candidates.insert(0, ((v for v in g.vertices if v not in deleted),
                              g.total_weight(g.vertices) - report.cost))
    pick, weight = max(candidates, key=lambda c: c[1])  # the first of equal weights
    return tuple(pick), weight


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

    exact runs on g itself, split or not. On a split graph primal-dual
    and local-ratio run on its cross-edge bipartite shadow, and the set
    found is re-verified on the split graph; a claw left there (one
    that uses a clique vertex as a leaf) raises ShadowMismatchError.
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
    elif isinstance(g, BipartiteGraph) or algorithm == "exact":
        report, trace = _DELETION_SOLVERS[algorithm](g)
    else:
        report, trace = _DELETION_SOLVERS[algorithm](reductions.cross_edge_shadow(g))
        witness = find_claw_split(g, report.solution)
        if witness is not None:
            raise ShadowMismatchError(report.solution, witness)
    return replace(report, elapsed_s=clock() - started), trace
