"""Input checks that no other test reaches: each rejects its input with its
named error class."""

import re
from pathlib import Path

import pytest

from trace_forge import spanning
from trace_forge.decide import (
    condition_table,
    decide_existence,
    find_witness,
    sufficient_four_edge_connected,
)
from trace_forge.errors import (
    DisconnectedGraphError,
    EmptyGraphError,
    GraphTooSmallError,
    InvalidPartitionError,
    ParseError,
    UnknownVertexError,
)
from trace_forge.formats import load_graph, load_trace_sequence, parse_graph6, parse_trace_text
from trace_forge.graph import (
    SplitSpec,
    build_graph,
    complete_graph,
    edge_connectivity,
    identify_vertices,
    path_graph,
    split_vertex,
)
from trace_forge.search import find_trace
from trace_forge.spanning import min_tree, qualified_deficiency_of_tree, spanning_tree
from trace_forge.transform import project_trace_through_split, split_reduce_qualified
from trace_forge.walks import (
    TraceSpec,
    transition_graph_at,
    validate_double_trace,
)

from conftest import enumerate_traces

K4_EDGES = Path(__file__).parent / "fixtures" / "k4.edges"
POINT = build_graph([], isolated_vertices=[0])
K3 = complete_graph(3)
P4 = path_graph(4)  # 0-1-2-3: 0 and 3 are apart and share no neighbor
EDGE_TRACE = validate_double_trace(path_graph(2), (0, 1))
K4_STAR = spanning_tree(complete_graph(4), [(0, 1), (0, 2), (0, 3)])  # odd triangle 1-2-3
K5 = complete_graph(5)
TWO_TRIANGLES = build_graph([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
K3_ANTI = (0, 1, 2, 0, 2, 1)


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
    # a new id is read as build_graph reads an edge end
    "identify-float-new-id": (
        lambda: identify_vertices(P4, [0, 3], 7.5),
        ValueError,
        re.escape("vertex ids must be integers, got 7.5"),
    ),
    "identify-bool-new-id": (
        lambda: identify_vertices(P4, [0, 3], True),
        ValueError,
        re.escape("vertex ids must be integers, got True"),
    ),
    "validate-on-a-point": (
        lambda: validate_double_trace(POINT, ()), EmptyGraphError, "at least one edge"
    ),
    # hosts no trace proves connected: the host check comes first, then the
    # unknown vertex, whatever else is wrong with the sequence
    "validate-on-the-empty-graph": (
        lambda: validate_double_trace(build_graph([]), ()),
        EmptyGraphError,
        "empty graph is undefined",
    ),
    "validate-on-two-triangles": (
        lambda: validate_double_trace(TWO_TRIANGLES, K3_ANTI + (3, 4, 5, 3, 5, 4)),
        DisconnectedGraphError,
        "requires a connected graph",
    ),
    "validate-on-a-graph6-host-with-an-isolated-vertex": (
        lambda: validate_double_trace(parse_graph6("Cw"), K3_ANTI),
        DisconnectedGraphError,
        "requires a connected graph",
    ),
    "validate-id-outside-a-disconnected-host": (
        lambda: validate_double_trace(TWO_TRIANGLES, K3_ANTI + (3, 4, 5, 3, 5, 9)),
        DisconnectedGraphError,
        "requires a connected graph",
    ),
    "validate-non-integer-id-on-two-triangles": (
        lambda: validate_double_trace(TWO_TRIANGLES, ("x",) * 12),
        DisconnectedGraphError,
        "requires a connected graph",
    ),
    # on a valid host a str id is rejected by name, and an id with no
    # integer value raises as operator.index raises
    "validate-non-integer-id-on-k3": (
        lambda: validate_double_trace(K3, (0, "x", 2, 0, 1, 2)),
        ValueError,
        re.escape("vertex ids must be integers, got 'x'"),
    ),
    "validate-none-id-on-k3": (
        lambda: validate_double_trace(K3, (0, None, 2, 0, 1, 2)), TypeError, "NoneType"
    ),
    "validate-id-outside-the-host-before-the-length": (
        lambda: validate_double_trace(K3, K3_ANTI + (7,)), UnknownVertexError, "vertex 7 not in host"
    ),
    "transition-graph-unknown-vertex": (
        lambda: transition_graph_at(EDGE_TRACE, 7), UnknownVertexError, "not in host"
    ),
    "load-graph-unknown-format": (
        lambda: load_graph(K4_EDGES, "bogus"),
        ParseError,
        "unknown input format 'bogus'",
    ),
    "parse-empty-trace-text": (
        lambda: parse_trace_text(" \t "), ParseError, "empty trace"
    ),
    "min-tree-negative-threshold": (
        lambda: min_tree(K3, -1), ValueError, "must be non-negative, got -1"
    ),
    "tree-score-negative-threshold": (
        lambda: qualified_deficiency_of_tree(K4_STAR, -1),
        ValueError,
        "must be non-negative, got -1",
    ),
    "split-reduce-negative-threshold": (
        lambda: split_reduce_qualified(K4_STAR, 1, -1),
        ValueError,
        "must be non-negative, got -1",
    ),
    "split-reduce-threshold-none": (
        lambda: split_reduce_qualified(K4_STAR, 1, None),
        ValueError,
        "None admits no odd component",
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
        lambda: find_witness(POINT, "stable", "antiparallel", 1),
        EmptyGraphError,
        "at least one edge",
    ),
    **{
        f"four-edge-connected-d{d}": (
            lambda d=d: sufficient_four_edge_connected(complete_graph(5), d),
            ValueError,
            "stable kind needs d >= 1",
        )
        for d in (0, -1, -3)
    },
    # every decision entry point checks the host before the cell, so a
    # disconnected host with a bad d names the host
    **{
        f"{name}-host-before-d": (
            call, DisconnectedGraphError, "requires a connected graph"
        )
        for name, call in {
            "decide": lambda: decide_existence(TWO_TRIANGLES, "stable", "any", 0),
            "table": lambda: condition_table(TWO_TRIANGLES, [1, 0]),
            "find-witness": lambda: find_witness(TWO_TRIANGLES, "stable", "any", 0),
            "build-pipeline": lambda: find_witness(TWO_TRIANGLES, "stable", "antiparallel", 0),
            "four-edge-connected": lambda: sufficient_four_edge_connected(TWO_TRIANGLES, 0),
        }.items()
    },
    "table-bad-d-after-a-good-one": (
        lambda: condition_table(K3, [1, 0]), ValueError, "stable kind needs d >= 1"
    ),
    # a stability order is an int: a float and a bool are rejected, not read
    **{
        f"{name}-d-{d}": (
            lambda call=call, d=d: call(d),
            ValueError,
            f"stable kind needs an integer d, got {d}",
        )
        for name, call in {
            "spec": lambda d: TraceSpec("stable", "antiparallel", d),
            "decide": lambda d: decide_existence(K5, "stable", "antiparallel", d),
            "find-witness": lambda d: find_witness(K5, "stable", "antiparallel", d),
            "four-edge-connected": lambda d: sufficient_four_edge_connected(K5, d),
        }.items()
        for d in (1.5, True)
    },
    # a vertex id is an integer: a float, a bool and a str are rejected by
    # name, the first one met, not read as int() would read them (1.9 as 1,
    # True as 1, " 1" as 1); on a host with no trace the host comes first
    **{
        f"{name}-id-{bad!r}": (
            lambda call=call, bad=bad: call(bad),
            ValueError,
            re.escape(f"vertex ids must be integers, got {bad!r}"),
        )
        for name, call in {
            "validate": lambda x: validate_double_trace(K3, (0, x, 2, 0, 2, 2.5)),
            "build-edge": lambda x: build_graph([(0, x), (1, 2), (3, 4.5)]),
            "build-isolated": lambda x: build_graph([(0, 1)], isolated_vertices=[5, x]),
        }.items()
        for bad in (1.9, True, " 1")
    },
    "validate-float-id-on-two-triangles": (
        lambda: validate_double_trace(TWO_TRIANGLES, K3_ANTI + (3, 4, 5, 3, 5, 4.0)),
        DisconnectedGraphError,
        "requires a connected graph",
    ),
    "joint-walk-negative-threshold": (
        lambda: spanning._first_tree(K5, (4, -2), False),
        ValueError,
        "must be non-negative, got -2",
    ),
    # a degree threshold is an int or None: a bool, a float and a str are
    # rejected, not read (True would admit every tree, as 1 does)
    **{
        f"{name}-threshold-{threshold!r}": (
            lambda call=call, threshold=threshold: call(threshold),
            ValueError,
            re.escape(f"degree threshold must be an integer or None, got {threshold!r}"),
        )
        for name, call in {
            "min-tree": lambda k: min_tree(K5, k),
            "tree-score": lambda k: qualified_deficiency_of_tree(K4_STAR, k),
            "joint-walk": lambda k: spanning._first_tree(K5, (0, k, None), True),
        }.items()
        for threshold in (True, 4.5, "4")
    },
}


@pytest.mark.parametrize("case", list(CASES))
def test_input_check_raises_its_error(case):
    call, error, message = CASES[case]
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize(
    "text, line",
    [
        ("0 1 2 0 2 1\nnot a trace at all\n", 2),
        ("0 1 2\n0 2 1\n", 2),
        ("\n0 1 2 0 2 1\n \n0 1 2 0 2 1\n", 4),
    ],
    ids=["garbage-second-line", "split-trace", "trace-given-twice"],
)
def test_trace_file_holds_one_trace_line(tmp_path, text, line):
    path = tmp_path / "two-lines.trace"
    path.write_text(text)
    with pytest.raises(ParseError, match=f"^line {line}: trace file has a second non-blank line$"):
        load_trace_sequence(path)
    # blank lines around the one trace line are skipped
    path.write_text("\n \t\n0 1 2 0 2 1\n\n  \n")
    assert load_trace_sequence(path) == K3_ANTI


def test_four_edge_connected_shortcut_is_false_on_a_point():
    assert sufficient_four_edge_connected(POINT, 1) is False
