"""Input checks that no other test reaches: each rejects its input with its
named error class."""

import pytest

from trace_forge.decide import build_antiparallel_d_stable, sufficient_four_edge_connected
from trace_forge.errors import (
    EmptyGraphError,
    GraphTooSmallError,
    InvalidPartitionError,
    NotSpanningTreeError,
    ParseError,
    UnknownVertexError,
)
from trace_forge.formats import parse_trace_text
from trace_forge.graph import (
    SplitSpec,
    build_graph,
    complete_graph,
    edge_connectivity,
    identify_vertices,
    path_graph,
    split_vertex,
)
from trace_forge.search import enumerate_traces, find_trace
from trace_forge.spanning import qualified_deficiency_of_tree, spanning_tree
from trace_forge.transform import project_trace_through_split
from trace_forge.walks import (
    TraceSpec,
    transition_graph_at,
    validate_double_trace,
)

POINT = build_graph([], isolated_vertices=[0])
K3 = complete_graph(3)
P4 = path_graph(4)  # 0-1-2-3: 0 and 3 are apart and share no neighbor
EDGE_TRACE = validate_double_trace(path_graph(2), (0, 1))


CASES = {
    "neighbors-unknown-vertex": (
        lambda: K3.neighbors(7), UnknownVertexError, "not in graph"
    ),
    "split-spec-empty-part": (
        lambda: SplitSpec(0, (frozenset({1}), frozenset())),
        InvalidPartitionError,
        "non-empty",
    ),
    "split-spec-overlapping-parts": (
        lambda: SplitSpec(0, (frozenset({1, 2}), frozenset({2}))),
        InvalidPartitionError,
        "disjoint",
    ),
    "build-negative-edge-end": (
        lambda: build_graph([(-1, 0)]), UnknownVertexError, "non-negative"
    ),
    "build-negative-isolated-vertex": (
        lambda: build_graph([(0, 1)], isolated_vertices=[-2]),
        UnknownVertexError,
        "non-negative",
    ),
    "edge-connectivity-of-a-point": (
        lambda: edge_connectivity(POINT), GraphTooSmallError, "at least 2"
    ),
    "split-unknown-vertex": (
        lambda: split_vertex(K3, SplitSpec(7, (frozenset({0}), frozenset({1})))),
        UnknownVertexError,
        "not in graph",
    ),
    "identify-negative-new-id": (
        lambda: identify_vertices(P4, [0, 3], -1), UnknownVertexError, "non-negative"
    ),
    "identify-new-id-collides": (
        lambda: identify_vertices(P4, [0, 3], 1), InvalidPartitionError, "collides"
    ),
    "validate-on-a-point": (
        lambda: validate_double_trace(POINT, ()), EmptyGraphError, "at least one edge"
    ),
    "transition-graph-unknown-vertex": (
        lambda: transition_graph_at(EDGE_TRACE, 7), UnknownVertexError, "not in host"
    ),
    "parse-empty-trace-text": (
        lambda: parse_trace_text(" \t "), ParseError, "empty trace"
    ),
    "score-tree-of-another-graph": (
        lambda: qualified_deficiency_of_tree(
            complete_graph(4), spanning_tree(K3, [(0, 1), (1, 2)]), None
        ),
        NotSpanningTreeError,
        "does not span",
    ),
    "project-unknown-vertex": (
        lambda: project_trace_through_split(EDGE_TRACE, 7, [[0], [1]]),
        UnknownVertexError,
        "not in host",
    ),
    "spec-unknown-direction": (
        lambda: TraceSpec("double", "sideways"), ValueError, "unknown direction"
    ),
    "find-trace-on-a-point": (
        lambda: find_trace(POINT, TraceSpec("double")), EmptyGraphError, "at least one edge"
    ),
    "enumerate-traces-on-a-point": (
        lambda: enumerate_traces(POINT, TraceSpec("strong")),
        EmptyGraphError,
        "at least one edge",
    ),
    "build-pipeline-on-a-point": (
        lambda: build_antiparallel_d_stable(POINT, 1), EmptyGraphError, "at least one edge"
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_input_check_raises_its_error(case):
    call, error, message = CASES[case]
    with pytest.raises(error, match=message):
        call()


def test_four_edge_connected_shortcut_is_false_on_a_point():
    assert sufficient_four_edge_connected(POINT, 1) is False
