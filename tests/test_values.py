"""Value semantics of the eight value classes: construction, defaults,
checks, equality, hashing, frozenness and repr."""

import pickle
import re

import pytest

from trace_forge.decide import DecisionCertificate
from trace_forge.errors import (
    DisconnectedGraphError,
    InvalidPartitionError,
    NotSpanningTreeError,
    UnknownVertexError,
    WrongLengthError,
)
from trace_forge.graph import Graph, SplitSpec, build_graph, complete_graph, path_graph
from trace_forge.spanning import CotreeComponent, SpanningTree
from trace_forge.walks import DoubleTrace, TraceClass, TraceSpec

K3 = complete_graph(3)
K4 = complete_graph(4)
K3_TRACE = (0, 1, 2, 0, 1, 2)
TWO_TRIANGLES = build_graph([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])


def _values():
    """Per class: one value, a value equal to it but made apart, one that
    differs in a compared field, and the compared fields in order."""
    star = frozenset({(0, 1), (0, 2), (0, 3)})
    path = frozenset({(0, 1), (1, 2), (2, 3)})
    parts = (frozenset({1}), frozenset({2, 3}))
    spec = TraceSpec("stable", "antiparallel", 1)
    return {
        "Graph": (
            K3,
            Graph((0, 1, 2), ((0, 1), (0, 2), (1, 2))),
            path_graph(3),
            ("vertices", "edges"),
        ),
        "SplitSpec": (
            SplitSpec(0, parts),
            SplitSpec(vertex=0, parts=tuple(frozenset(p) for p in parts)),
            SplitSpec(1, parts[::-1]),
            ("vertex", "parts"),
        ),
        "SpanningTree": (
            SpanningTree(K4, star),
            SpanningTree(host=complete_graph(4), tree_edges=frozenset(star)),
            SpanningTree(K4, path),
            ("host", "tree_edges"),
        ),
        "CotreeComponent": (
            CotreeComponent(frozenset({(1, 2)}), frozenset({1, 2})),
            CotreeComponent(edges=frozenset({(1, 2)}), vertices=frozenset({2, 1})),
            CotreeComponent(frozenset({(1, 3)}), frozenset({1, 3})),
            ("edges", "vertices"),
        ),
        "DoubleTrace": (
            DoubleTrace(K3, K3_TRACE),
            DoubleTrace(host=complete_graph(3), sequence=(2, 0, 1, 2, 0, 1)),
            DoubleTrace(K3, (0, 1, 2, 0, 2, 1)),
            ("host", "sequence"),
        ),
        "TraceClass": (
            TraceClass("parallel", 1, False, {0: ((1, 2),)}),
            TraceClass(
                direction="parallel", stability_order=1, strong=False,
                minimal_repetitions={7: ()},
            ),
            TraceClass("parallel", 1, True, {0: ((1, 2),)}),
            ("direction", "stability_order", "strong"),
        ),
        "TraceSpec": (
            spec,
            TraceSpec(kind="stable", direction="antiparallel", d=1),
            TraceSpec("stable", "antiparallel", 2),
            ("kind", "direction", "d"),
        ),
        "DecisionCertificate": (
            DecisionCertificate(False, spec, None, "ParityObstruction", {"betti": 3}),
            DecisionCertificate(
                verdict=False, spec=TraceSpec("stable", "antiparallel", 1),
                violated_condition="ParityObstruction", condition_detail={"betti": 3},
            ),
            DecisionCertificate(False, spec, None, "ParityObstruction", {"betti": 5}),
            ("verdict", "spec", "witness_tree", "violated_condition", "condition_detail"),
        ),
    }


VALUES = _values()
FROZEN = sorted(set(VALUES) - {"DecisionCertificate"})


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equality_is_over_the_compared_fields(name):
    value, same, other, fields = VALUES[name]
    assert value is not same
    assert value == same and not value != same
    assert value != other and not value == other
    assert [getattr(value, f) for f in fields] == [getattr(same, f) for f in fields]
    # another type never compares equal, not even a tuple of the fields
    assert value != tuple(getattr(value, f) for f in fields)
    assert value.__eq__(object()) is NotImplemented
    assert value == pickle.loads(pickle.dumps(value))


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_values_hash_their_compared_fields(name):
    value, same, other, fields = VALUES[name]
    assert hash(value) == hash(same) == hash(tuple(getattr(value, f) for f in fields))
    assert len({value, same, other}) == 2


def test_fields_outside_the_comparison():
    # a trace's kept repetitions and a class's repetition map take no part
    # in equality or hashing
    values = _values()  # fresh values: this test writes to one
    trace, same, _, _ = values["DoubleTrace"]
    object.__setattr__(same, "_repetitions", {})
    assert trace == same and hash(trace) == hash(same)
    assert trace._repetitions != same._repetitions
    cls, same_cls, _, _ = values["TraceClass"]
    assert cls.minimal_repetitions != same_cls.minimal_repetitions
    assert cls == same_cls and hash(cls) == hash(same_cls)


def test_certificate_is_mutable_and_unhashable():
    cert, same, _, _ = _values()["DecisionCertificate"]
    assert DecisionCertificate.__hash__ is None
    with pytest.raises(TypeError, match="unhashable type: 'DecisionCertificate'"):
        hash(cert)
    same.condition_detail = {"betti": 5}
    assert cert != same
    same.condition_detail["betti"] = 3
    assert cert == same
    same.verdict = True
    same.note = "kept"
    assert same.verdict is True and same.note == "kept"
    del same.note
    assert not hasattr(same, "note")


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_values_refuse_assignment_and_deletion(name):
    value, _, _, fields = VALUES[name]
    for attr in (*fields, "extra"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{attr}'"):
            setattr(value, attr, None)
    for attr in (*fields, "extra"):
        with pytest.raises(AttributeError, match=f"cannot delete field '{attr}'"):
            delattr(value, attr)
    assert [getattr(value, f) for f in fields] == [getattr(VALUES[name][1], f) for f in fields]


def test_cached_graph_facts_survive_frozenness():
    g = Graph((0, 1, 2), ((0, 1), (1, 2)))
    assert g.adjacency == {0: (1,), 1: (0, 2), 2: (1,)}
    assert g.connected and g.edge_set == {(0, 1), (1, 2)}
    with pytest.raises(AttributeError, match="cannot assign to field 'connected'"):
        g.connected = False
    assert g.connected


def test_defaults_and_construction():
    spec = TraceSpec("strong")
    assert (spec.kind, spec.direction, spec.d) == ("strong", "any", None)
    assert TraceSpec("double", "parallel") == TraceSpec(kind="double", direction="parallel", d=None)
    assert TraceSpec("stable", d=2) == TraceSpec("stable", "any", 2)
    cert = DecisionCertificate(True, spec)
    assert (cert.witness_tree, cert.violated_condition, cert.condition_detail) == (None, None, {})
    # each certificate gets a detail map of its own
    assert cert.condition_detail is not DecisionCertificate(True, spec).condition_detail
    trace = DoubleTrace(K3, (1, 2, 0, 1, 2, 0))
    assert trace.sequence == K3_TRACE and trace.host is K3
    assert trace._repetitions == {0: ((1, 2),), 1: ((0, 2),), 2: ((0, 1),)}
    calls = [
        lambda: TraceSpec(),
        lambda: TraceSpec("stable", "any", 1, 2),
        lambda: TraceSpec("strong", dd=1),
        lambda: Graph((0,)),
        lambda: SplitSpec(0),
        lambda: SpanningTree(K4),
        lambda: CotreeComponent(frozenset()),
        lambda: DoubleTrace(K3),
        lambda: DoubleTrace(K3, K3_TRACE, {}),  # the repetitions are no parameter
        lambda: DoubleTrace(K3, K3_TRACE, _repetitions={}),
        lambda: TraceClass("parallel", 1, False),  # the map has no default
        lambda: DecisionCertificate(True),
        lambda: DecisionCertificate(True, spec, None, None, {}, None),
    ]
    for call in calls:
        with pytest.raises(TypeError):
            call()


PARTS = frozenset({1}), frozenset({2})
CHECKS = {
    "split-one-part": (
        lambda: SplitSpec(0, (frozenset(),)), InvalidPartitionError,
        "a split needs at least 2 parts",
    ),
    "split-empty-part": (
        lambda: SplitSpec(0, (PARTS[0], frozenset(), PARTS[1])), InvalidPartitionError,
        "split parts must be non-empty",
    ),
    "split-overlap": (
        lambda: SplitSpec(0, (PARTS[0], PARTS[1], PARTS[0] | PARTS[1])),
        InvalidPartitionError, "split parts must be pairwise disjoint",
    ),
    "tree-outside-host": (
        lambda: SpanningTree(K3, frozenset({(0, 1), (0, 5)})), NotSpanningTreeError,
        "tree edges must belong to the host",
    ),
    "tree-too-few-edges": (
        lambda: SpanningTree(K4, frozenset({(0, 1), (0, 2)})), NotSpanningTreeError,
        "2 edges cannot span 4 vertices",
    ),
    "tree-with-a-cycle": (
        lambda: SpanningTree(K4, frozenset({(0, 1), (0, 2), (1, 2)})), NotSpanningTreeError,
        "tree edges contain a cycle",
    ),
    "spec-kind-first": (
        lambda: TraceSpec("bogus", "bogus", 0), ValueError, "unknown kind 'bogus'",
    ),
    "spec-direction": (
        lambda: TraceSpec("stable", "sideways", 1), ValueError,
        "unknown direction 'sideways'",
    ),
    "spec-bool-d": (
        lambda: TraceSpec("stable", "any", True), ValueError,
        "stable kind needs an integer d, got True",
    ),
    "spec-no-d": (lambda: TraceSpec("stable"), ValueError, "stable kind needs d >= 1"),
    "spec-zero-d": (
        lambda: TraceSpec("stable", "any", 0), ValueError, "stable kind needs d >= 1",
    ),
    "spec-d-on-strong": (
        lambda: TraceSpec("strong", "any", 1), ValueError, "kind 'strong' takes no d",
    ),
    "trace-host-before-id": (
        lambda: DoubleTrace(TWO_TRIANGLES, (0, "x")), DisconnectedGraphError, None,
    ),
    "trace-non-integer-id": (
        lambda: DoubleTrace(K3, (0, 1, 2.5)), ValueError,
        "vertex ids must be integers, got 2.5",
    ),
    "trace-unknown-vertex": (
        lambda: DoubleTrace(K3, (0, 1, 7, 0, 1, 2)), UnknownVertexError, None,
    ),
    "trace-wrong-length": (
        lambda: DoubleTrace(K3, (0, 1, 2)), WrongLengthError, None,
    ),
}


@pytest.mark.parametrize("case", sorted(CHECKS))
def test_construction_checks(case):
    make, error, message = CHECKS[case]
    with pytest.raises(error, match=None if message is None else re.escape(message)) as info:
        make()
    assert type(info.value) is error


REPRS = [
    (lambda: TraceSpec("stable", d=1), "TraceSpec(kind='stable', direction='any', d=1)"),
    (lambda: TraceSpec("strong"), "TraceSpec(kind='strong', direction='any', d=None)"),
    (
        lambda: TraceClass("antiparallel", 2, True, {0: ()}),
        "TraceClass(direction='antiparallel', stability_order=2, strong=True)",
    ),
    (
        lambda: CotreeComponent(frozenset({(1, 2)}), frozenset({1, 2})),
        "CotreeComponent(edges=frozenset({(1, 2)}), vertices=frozenset({1, 2}))",
    ),
    (
        lambda: SplitSpec(3, (frozenset({1}), frozenset({2}))),
        "SplitSpec(vertex=3, parts=(frozenset({1}), frozenset({2})))",
    ),
    (
        lambda: DecisionCertificate(False, TraceSpec("strong"), None, "Odd", {"betti": 1}),
        "DecisionCertificate(verdict=False, spec=TraceSpec(kind='strong', "
        "direction='any', d=None), witness_tree=None, violated_condition='Odd', "
        "condition_detail={'betti': 1})",
    ),
    (lambda: K3, "Graph(3 vertices, 3 edges)"),
    (
        lambda: SpanningTree(K3, frozenset({(1, 2), (0, 1)})),
        "SpanningTree([(0, 1), (1, 2)])",
    ),
    (lambda: DoubleTrace(K3, (2, 0, 1, 2, 0, 1)), "DoubleTrace(0 1 2 0 1 2)"),
]


@pytest.mark.parametrize("make, text", REPRS, ids=[text.partition("(")[0] for _, text in REPRS])
def test_reprs(make, text):
    assert repr(make()) == text
