"""Double traces of graphs: decision, construction, and verification.

The package decides which graphs admit double traces of each kind
(plain, d-stable, strong) and direction (parallel, antiparallel, mixed),
constructs witnesses, and verifies them.  The antiparallel d-stable case is
characterized by the minimum degree exceeding d together with a spanning
tree whose odd co-tree components each contain a vertex of degree at least
2d + 2; both directions of that equivalence are implemented constructively.
"""

from .decide import (
    DecisionCertificate,
    build_antiparallel_d_stable,
    condition_table,
    decide_existence,
    extract_qualified_tree_from_trace,
    find_witness,
    sufficient_four_edge_connected,
)
from .errors import TraceForgeError
from .graph import (
    Graph,
    SplitSpec,
    betti_number,
    build_graph,
    complete_graph,
    cube_graph,
    cycle_graph,
    edge_connectivity,
    identify_vertices,
    is_connected,
    path_graph,
    split_vertex,
)
from .search import enumerate_traces, find_trace
from .spanning import (
    CoTreeDecomposition,
    DeficiencyCertificate,
    SpanningTree,
    cotree_decomposition,
    deficiency_of_tree,
    min_tree,
    qualified_trees,
    spanning_tree,
)
from .transform import (
    SplitOutcome,
    lift_trace_through_identification,
    project_trace_through_split,
    split_reduce_deficiency,
    split_reduce_qualified,
    transfer_tree_on_identification,
)
from .walks import (
    DoubleTrace,
    TraceClass,
    TraceSpec,
    TransitionGraph,
    classify_trace,
    direction_profile,
    transition_graph_at,
    validate_double_trace,
)

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "SplitSpec",
    "build_graph",
    "is_connected",
    "betti_number",
    "edge_connectivity",
    "split_vertex",
    "identify_vertices",
    "complete_graph",
    "cycle_graph",
    "path_graph",
    "cube_graph",
    "DoubleTrace",
    "TransitionGraph",
    "TraceClass",
    "validate_double_trace",
    "direction_profile",
    "transition_graph_at",
    "classify_trace",
    "TraceSpec",
    "find_trace",
    "enumerate_traces",
    "SpanningTree",
    "CoTreeDecomposition",
    "DeficiencyCertificate",
    "spanning_tree",
    "cotree_decomposition",
    "deficiency_of_tree",
    "qualified_trees",
    "min_tree",
    "SplitOutcome",
    "transfer_tree_on_identification",
    "split_reduce_deficiency",
    "split_reduce_qualified",
    "project_trace_through_split",
    "lift_trace_through_identification",
    "DecisionCertificate",
    "decide_existence",
    "find_witness",
    "build_antiparallel_d_stable",
    "extract_qualified_tree_from_trace",
    "sufficient_four_edge_connected",
    "condition_table",
    "TraceForgeError",
    "__version__",
]
