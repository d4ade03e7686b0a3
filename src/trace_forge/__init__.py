"""Double traces of graphs: decision, construction, and verification.

The package decides which graphs admit double traces of each kind
(plain, d-stable, strong) and direction (parallel, antiparallel, mixed),
constructs witnesses, and verifies them.  The antiparallel d-stable case is
characterized by the minimum degree exceeding d together with a spanning
tree whose odd co-tree components each contain a vertex of degree at least
2d + 2.  A decided yes is built into a trace from that tree, and the tree
extracted from such a trace is the decision's own certificate.
"""

from .decide import (
    DecisionCertificate,
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
from .search import find_trace
from .spanning import (
    SpanningTree,
    cotree_decomposition,
    min_tree,
    qualified_deficiency_of_tree,
    spanning_tree,
)
from .transform import (
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
    "TraceClass",
    "validate_double_trace",
    "direction_profile",
    "transition_graph_at",
    "classify_trace",
    "TraceSpec",
    "find_trace",
    "SpanningTree",
    "spanning_tree",
    "cotree_decomposition",
    "qualified_deficiency_of_tree",
    "min_tree",
    "transfer_tree_on_identification",
    "split_reduce_deficiency",
    "split_reduce_qualified",
    "project_trace_through_split",
    "lift_trace_through_identification",
    "DecisionCertificate",
    "decide_existence",
    "find_witness",
    "extract_qualified_tree_from_trace",
    "sufficient_four_edge_connected",
    "condition_table",
    "TraceForgeError",
    "__version__",
]
