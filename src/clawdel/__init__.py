"""Claw deletion on bipartite and split graphs.

A bipartite instance asks for a minimum-weight vertex set whose removal
leaves no induced K_{1,t} centered on the A side; a split instance asks
the same for all induced K_{1,t}. The package provides the polymatroid
machinery behind the primal-dual solver, a local-ratio baseline, a
max-subgraph solver, exact branch-and-bound oracles for desk-scale
verification, instance constructions, seeded generators, text formats,
and the `clawdel` command line tool.
"""

from .claws import (
    ClawWitness,
    find_claw,
    find_claw_split,
    is_feasible,
    is_minimal,
    reverse_delete,
)
from .formats import (
    ParseError,
    parse_auto,
    parse_bipartite,
    parse_hypergraph,
    parse_split,
    serialize_bipartite,
    serialize_hypergraph,
    serialize_split,
    sniff_format,
)
from .generate import GenSpec, generate, provenance
from .graphs import (
    BipartiteGraph,
    Hypergraph,
    SplitGraph,
    degree,
    incident_edges,
    incident_edges_within,
    vertex_degrees,
)
from .oracle import (
    OracleLimitError,
    enumerate_minimal_deletion_sets,
    exact_max_subgraph,
    exact_min_deletion_set,
    exact_min_vc_graph,
    exact_min_vc_hypergraph,
)
from .polymatroid import (
    PolymatroidContext,
    dual_rank,
    dual_rank_from_definition,
    dual_rank_incident,
    incidence_dual_ranks,
    is_matching,
    is_spanning_dual,
    rank,
)
from .reductions import (
    ReductionMap,
    from_hypergraph_cover,
    from_regular_graph_cover,
    map_solution,
    read_map,
    to_bipartite,
    to_split,
    write_map,
)
from .solvers import (
    ALGORITHMS,
    ShadowMismatchError,
    SolveReport,
    TraceStep,
    exact_solve,
    local_ratio_solve,
    max_subgraph_solve,
    primal_dual_solve,
    solve,
    theta_of_solution,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "BipartiteGraph",
    "ClawWitness",
    "GenSpec",
    "Hypergraph",
    "OracleLimitError",
    "ParseError",
    "PolymatroidContext",
    "ReductionMap",
    "ShadowMismatchError",
    "SolveReport",
    "SplitGraph",
    "TraceStep",
    "degree",
    "dual_rank",
    "dual_rank_from_definition",
    "dual_rank_incident",
    "enumerate_minimal_deletion_sets",
    "exact_max_subgraph",
    "exact_min_deletion_set",
    "exact_min_vc_graph",
    "exact_min_vc_hypergraph",
    "exact_solve",
    "find_claw",
    "find_claw_split",
    "from_hypergraph_cover",
    "from_regular_graph_cover",
    "generate",
    "incidence_dual_ranks",
    "incident_edges",
    "incident_edges_within",
    "is_feasible",
    "is_matching",
    "is_minimal",
    "is_spanning_dual",
    "local_ratio_solve",
    "map_solution",
    "max_subgraph_solve",
    "parse_auto",
    "parse_bipartite",
    "parse_hypergraph",
    "parse_split",
    "primal_dual_solve",
    "provenance",
    "rank",
    "read_map",
    "reverse_delete",
    "serialize_bipartite",
    "serialize_hypergraph",
    "serialize_split",
    "sniff_format",
    "solve",
    "theta_of_solution",
    "to_bipartite",
    "to_split",
    "vertex_degrees",
    "write_map",
]
