#!/usr/bin/env python3
"""Step-by-step walk through one primal-dual run.

Prints every dual raise: the active set, each vertex's covering
coefficient, the raise amount, and the vertex whose budget becomes
tight. Ends with the reverse-deleted solution, the dual lower bound it
is measured against, and the certificate ratio.
"""

from clawdel import (
    BipartiteGraph,
    PolymatroidContext,
    exact_min_deletion_set,
    incidence_dual_ranks,
    primal_dual_solve,
)


def main():
    g = BipartiteGraph(
        2, 5,
        frozenset({(1, 3), (1, 4), (1, 5), (1, 6), (2, 4), (2, 5), (2, 6), (2, 7)}),
        t=3,
        weights={1: 5, 2: 2, 3: 1, 4: 2, 5: 2, 6: 1, 7: 3},
    )
    print(f"instance: |A| = {g.n_a}, |B| = {g.n_b}, t = {g.t}")
    print("weights:", {v: str(g.weight(v)) for v in g.vertices})
    print()

    report, trace = primal_dual_solve(g)
    active = list(g.vertices)  # V minus the vertices made tight so far
    for k, step in enumerate(trace, start=1):
        coeff = incidence_dual_ranks(PolymatroidContext(g, frozenset(active)))
        shown = {v: c for v, c in coeff.items() if c > 0}
        print(f"iteration {k}: active set {active}")
        print(f"  coefficients {shown}")
        print(f"  raise dual by {step.amount}; vertex {step.selected} becomes tight")
        active.remove(step.selected)
    print()
    print(f"selected order pruned by reverse deletion -> solution {list(report.solution)}")
    print(f"cost {report.cost}, dual lower bound {report.dual_lower_bound}, "
          f"theta certificate {report.theta}")

    _, opt = exact_min_deletion_set(g)
    print(f"exact optimum {opt}; achieved ratio {report.cost / opt}")


if __name__ == "__main__":
    main()
