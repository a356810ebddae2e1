"""Exact circuit walks and circuit-diameter oracles on m x n
transportation polytopes."""

from .core import (
    WALK_KINDS,
    Assignment,
    Circuit,
    DegenerateError,
    HypothesisError,
    Instance,
    ResourceLimitError,
    TransportError,
    UnreachableCaseError,
    Walk,
    apply_circuit,
    as_matrix,
    edge_distance,
    format_rational,
    objective,
    parse_rational,
    support_graph,
)
from .circuits import (
    CircuitSet,
    Decomposition,
    circuit_count,
    enumerate_circuits,
    max_step,
    sign_compatible_decomposition,
)
from .construct import (
    MarkState,
    MarkTrace,
    cdfm_walk_2xn,
    edge_walk_2xn_report,
    edge_walk_3xn_report,
    lp_optimum_2xn,
    monotone_walk_2xn_report,
)
from .instances import (
    GeneratedCase,
    gen_coincide,
    gen_diameter_n,
    gen_example1,
    gen_hirsch_sharp,
    perturb,
    perturb_certified,
    random_instance,
)
from .oracle import (
    DistanceTable,
    cd_at_most,
    cd_minimum,
    cdfm_distance,
    graph_diameter,
    graph_distance,
    graph_distance_table,
)
from .polytope import (
    PivotResult,
    VertexSet,
    are_adjacent,
    critical_edges,
    enumerate_vertices,
    hirsch_bound,
    insert_pivot,
    is_nondegenerate,
    northwest_corner,
    tree_count,
)
from .walks import WalkReport, is_monotone, validate_walk

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
