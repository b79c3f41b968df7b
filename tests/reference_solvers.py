"""Test-only reference copies of the per-iteration solver loops.

These are the straightforward versions the event-driven solvers in
`clawdel.solvers` and `clawdel.claws` replaced: every dual raise
rebuilds a `PolymatroidContext` and runs `find_claw`, and reverse
deletion rescans the graph for every vertex. They are kept only to
check the fast code against, and look their helpers up through the
modules at call time so that tests can count those calls.
"""

from fractions import Fraction

from clawdel import claws, polymatroid
from clawdel.graphs import incident_edges
from clawdel.solvers import SolveReport


def theta_of_solution(g, solution):
    ctx = polymatroid.PolymatroidContext(g)
    total = polymatroid.dual_rank(ctx, ctx.edges)
    sol = sorted(set(solution))
    if total == 0:
        if not sol:
            return Fraction(0)
        raise ValueError("theta undefined: graph is claw free but solution is nonempty")
    numer = sum(polymatroid.dual_rank(ctx, incident_edges(g, v)) for v in sol)
    return Fraction(numer, total)


def is_minimal(g, solution):
    sol = set(solution)
    if not claws.is_feasible(g, sol):
        raise ValueError("solution is not feasible")
    for v in sorted(sol):
        if claws.is_feasible(g, sol - {v}):
            return False
    return True


def reverse_delete(g, ordered):
    kept = set(ordered)
    if not claws.is_feasible(g, kept):
        raise ValueError("reverse deletion requires a feasible input set")
    for v in reversed(ordered):
        if claws.is_feasible(g, kept - {v}):
            kept.discard(v)
    return [v for v in ordered if v in kept]


def primal_dual_solve(g):
    """Returns (report, [(amount, selected), ...])."""
    residual = {v: g.weight(v) for v in g.vertices}
    active = list(g.vertices)
    selected = []
    steps = []
    dual_lb = Fraction(0)

    while claws.find_claw(g, selected) is not None:
        ctx = polymatroid.PolymatroidContext(g, frozenset(active))
        coeff = polymatroid.incidence_dual_ranks(ctx)
        prices = [(Fraction(residual[v], coeff[v]), v) for v in active if coeff[v] > 0]
        eps, tight = min(prices)
        for v in active:
            if coeff[v] > 0:
                residual[v] -= eps * coeff[v]
        dual_lb += eps * polymatroid.dual_rank(ctx, ctx.edges)
        steps.append((eps, tight))
        selected.append(tight)
        active.remove(tight)

    solution = reverse_delete(g, selected)
    report = SolveReport(
        solution=tuple(sorted(solution)),
        cost=g.total_weight(solution),
        dual_lower_bound=dual_lb,
        theta=theta_of_solution(g, solution),
        algorithm="primal-dual",
        iterations=len(steps),
    )
    return report, steps


def local_ratio_solve(g):
    residual = {v: g.weight(v) for v in g.vertices}
    selected = []
    chosen = set()
    rounds = 0
    lower = Fraction(0)

    while (witness := claws.find_claw(g, selected)) is not None:
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
