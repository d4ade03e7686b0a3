"""Backtracking search: soundness, completeness at desk scale, determinism."""

import random
from itertools import combinations

import networkx as nx
import pytest

from trace_forge import decide, search
from trace_forge.decide import find_witness
from trace_forge.errors import BudgetExhaustedError, DisconnectedGraphError
from trace_forge.graph import build_graph, complete_graph, path_graph
from trace_forge.search import find_trace
from trace_forge.walks import TraceSpec, classify_trace, spec_satisfied, validate_double_trace

from conftest import atlas_graphs, enumerate_traces, random_connected_graph

ALL_SPECS = [
    TraceSpec("double"),
    TraceSpec("double", "parallel"),
    TraceSpec("double", "antiparallel"),
    TraceSpec("stable", "any", 1),
    TraceSpec("stable", "parallel", 1),
    TraceSpec("stable", "antiparallel", 1),
    TraceSpec("strong"),
    TraceSpec("strong", "parallel"),
    TraceSpec("strong", "antiparallel"),
]


def test_spec_validation():
    with pytest.raises(ValueError):
        TraceSpec("stable")
    with pytest.raises(ValueError):
        TraceSpec("double", d=1)
    with pytest.raises(ValueError):
        TraceSpec("weird")


def test_every_connected_graph_has_a_double_trace():
    rng = random.Random(1)
    for _ in range(20):
        g = random_connected_graph(rng, n_min=2, n_max=6)
        w = find_trace(g, TraceSpec("double"))
        assert w is not None
        assert w.length == 2 * g.num_edges


def test_antiparallel_double_always_exists():
    rng = random.Random(2)
    for _ in range(15):
        g = random_connected_graph(rng, n_min=2, n_max=6)
        w = find_trace(g, TraceSpec("double", "antiparallel"))
        assert w is not None
        assert classify_trace(w).direction == "antiparallel"


def test_k4_has_no_antiparallel_1_stable(k4):
    assert find_trace(k4, TraceSpec("stable", "antiparallel", 1)) is None


def test_k4_has_no_parallel_double(k4):
    assert find_trace(k4, TraceSpec("double", "parallel")) is None


def test_search_results_satisfy_spec():
    rng = random.Random(3)
    for _ in range(8):
        g = random_connected_graph(rng, n_min=3, n_max=5)
        for spec in ALL_SPECS:
            w = find_trace(g, spec)
            if w is not None:
                revalidated = validate_double_trace(g, w.sequence)
                assert spec_satisfied(spec, classify_trace(revalidated))


def test_find_agrees_with_enumerate():
    # enumerating weakly constrained specs explodes combinatorially, so those
    # run on smaller hosts; the decision-relevant specs (where emptiness
    # actually varies) run at full desk scale
    rng = random.Random(4)
    tight = [
        TraceSpec("double", "parallel"),
        TraceSpec("stable", "parallel", 1),
        TraceSpec("stable", "antiparallel", 1),
        TraceSpec("strong", "parallel"),
        TraceSpec("strong", "antiparallel"),
    ]
    loose = [s for s in ALL_SPECS if s not in tight]
    for _ in range(6):
        g = random_connected_graph(rng, n_min=3, n_max=5, max_edges=8)
        for spec in loose:
            found = find_trace(g, spec)
            enumerated = enumerate_traces(g, spec)
            assert (found is None) == (len(enumerated) == 0)
            if found is not None:
                assert found in enumerated
    for _ in range(6):
        g = random_connected_graph(rng, n_min=3, n_max=6, max_edges=10)
        for spec in tight:
            found = find_trace(g, spec)
            enumerated = enumerate_traces(g, spec)
            assert (found is None) == (len(enumerated) == 0)
            if found is not None:
                assert found in enumerated


def test_enumerate_triangle_contains_both_pure_directions(k3):
    traces = enumerate_traces(k3, TraceSpec("double"))[:100]
    sequences = {w.sequence for w in traces}
    assert (0, 1, 2, 0, 1, 2) in sequences  # all parallel
    assert (0, 1, 2, 0, 2, 1) in sequences  # all antiparallel


def test_enumerate_single_edge():
    traces = enumerate_traces(path_graph(2), TraceSpec("double"))
    assert [w.sequence for w in traces] == [(0, 1)]


def test_enumerate_k4_antiparallel_stable_is_empty(k4):
    assert enumerate_traces(k4, TraceSpec("stable", "antiparallel", 1)) == []


def naive_enumerate(g, spec):
    """Reference enumerator: plain slot-consuming DFS with no pruning at all,
    filtering completed walks through the public classifier."""
    from trace_forge.graph import edge_key
    from trace_forge.walks import min_rotation

    m = g.num_edges
    slots = {e: 2 for e in g.edges}
    out = set()
    start = g.vertices[0]
    walk = [start]

    def rec():
        if len(walk) == 2 * m + 1:
            if walk[-1] == start:
                w = validate_double_trace(g, min_rotation(tuple(walk[:-1])))
                if spec_satisfied(spec, classify_trace(w)):
                    out.add(w.sequence)
            return
        u = walk[-1]
        for v in g.neighbors(u):
            e = edge_key(u, v)
            if slots[e] > 0:
                slots[e] -= 1
                walk.append(v)
                rec()
                walk.pop()
                slots[e] += 1

    rec()
    return sorted(out)


def test_engine_matches_unpruned_reference():
    # validates every pruning rule and the completion check at once
    rng = random.Random(6)
    for _ in range(10):
        g = random_connected_graph(rng, n_min=3, n_max=5, max_edges=7)
        for spec in ALL_SPECS:
            fast = [w.sequence for w in enumerate_traces(g, spec)]
            assert fast == naive_enumerate(g, spec), (sorted(g.edges), spec)


def rotation_system_one_face_count(g) -> int:
    """Independent model: local cyclic orders traced edge-by-edge.

    An antiparallel strong trace is the same data as a set of vertex
    rotations whose face tracing closes up after covering every directed
    edge once, so the counts must agree exactly.
    """
    from itertools import permutations, product

    verts = list(g.vertices)
    rotations_per_vertex = []
    for v in verts:
        nbrs = list(g.neighbors(v))
        if len(nbrs) > 1:
            rots = [(nbrs[0],) + p for p in permutations(nbrs[1:])]
        else:
            rots = [tuple(nbrs)]
        rotations_per_vertex.append(rots)
    count = 0
    for combo in product(*rotations_per_vertex):
        succ = {}
        for v, rot in zip(verts, combo):
            k = len(rot)
            for i, u in enumerate(rot):
                succ[(u, v)] = (v, rot[(i + 1) % k])
        seen = set()
        faces = 0
        for start in succ:
            if start in seen:
                continue
            faces += 1
            e = start
            while e not in seen:
                seen.add(e)
                e = succ[e]
        if faces == 1:
            count += 1
    return count


@pytest.mark.parametrize(
    "graph,expected",
    [
        (complete_graph(4), 0),
        (build_graph([(i, j + 3) for i in range(3) for j in range(3)]), 24),
        (complete_graph(5), 2340),
    ],
)
def test_strong_antiparallel_count_matches_rotation_systems(graph, expected):
    assert rotation_system_one_face_count(graph) == expected
    traces = enumerate_traces(graph, TraceSpec("strong", "antiparallel"))
    assert len(traces) == expected


def test_determinism():
    rng = random.Random(5)
    for _ in range(5):
        g = random_connected_graph(rng, n_min=3, n_max=5)
        spec = TraceSpec("double")
        assert find_trace(g, spec) == find_trace(g, spec)
        assert enumerate_traces(g, spec)[:10] == enumerate_traces(g, spec)[:10]


def test_budget_exhaustion(k5):
    with pytest.raises(BudgetExhaustedError):
        find_trace(k5, TraceSpec("double"), budget=5)


def test_unbudgeted_search_runs_under_default_budget():
    g = complete_graph(6)
    assert find_trace(g, TraceSpec("double")) is not None
    assert find_trace(g, TraceSpec("double"), budget=10_000_000) is not None


def test_default_budget_is_read_at_call_time(monkeypatch):
    # K7 has odd Betti number 15, so no antiparallel strong trace exists and
    # the search runs until the budget stops it; K6's antiparallel 1-stable
    # witness searches for a strong trace of its reduced graph, so
    # find_witness reads the budget too
    monkeypatch.setattr(search, "DEFAULT_BUDGET", 1_000)
    k7 = complete_graph(7)
    with pytest.raises(BudgetExhaustedError) as info:
        find_trace(k7, TraceSpec("strong", "antiparallel"))
    assert info.value.nodes == 1_001
    with pytest.raises(BudgetExhaustedError) as info:
        find_witness(complete_graph(6), "stable", "antiparallel", 1)
    assert info.value.nodes == 1_001


def test_enumerate_runs_under_default_budget(monkeypatch):
    monkeypatch.setattr(search, "DEFAULT_BUDGET", 1_000)
    with pytest.raises(BudgetExhaustedError) as info:
        enumerate_traces(complete_graph(6), TraceSpec("strong", "antiparallel"))
    assert info.value.nodes == 1_001


K44 = build_graph([(i, j + 4) for i in range(4) for j in range(4)])


@pytest.mark.parametrize(
    "graph,budget,nodes",
    [(K44, 54_153, 54_154), (complete_graph(6), 100_000, 100_001), (complete_graph(7), 100_000, 100_001)],
)
def test_budget_exhausts_one_node_past_the_budget(graph, budget, nodes):
    # the benchmark's budget boundaries: K4,4 at d = 1 needs 54,154 search
    # nodes, K6 and K7 at d = 1 exhaust a budget of 100,000 (the benchmark
    # counts a success of either as an incorrect output)
    with pytest.raises(BudgetExhaustedError) as info:
        find_witness(graph, "stable", "antiparallel", 1, budget=budget)
    assert info.value.nodes == nodes


ICOSAHEDRON = build_graph(list(nx.icosahedral_graph().edges()))
TWO_K4 = build_graph(
    [(a, b) for block in ((0, 1, 2, 3), (3, 4, 5, 6)) for a, b in combinations(block, 2)]
)


class _Captured(Exception):
    pass


def _reduced_host(g, d, monkeypatch, search=True):
    """The all-even host whose strong trace ``find_witness`` searches for in
    the antiparallel d-stable cell, and the construction's result. With
    ``search=False`` the construction stops at that search and the result
    is None."""
    hosts = []
    real = decide.find_trace

    def capture(h, spec, budget=None):
        hosts.append(h)
        if not search:
            raise _Captured
        return real(h, spec, budget)

    with monkeypatch.context() as patch:
        patch.setattr(decide, "find_trace", capture)
        if search:
            trace = find_witness(g, "stable", "antiparallel", d)
        else:
            trace = None
            with pytest.raises(_Captured):
                find_witness(g, "stable", "antiparallel", d)
    (host,) = hosts
    return host, trace


def _moves_by_sorting(g):
    """The engine's move table and neighbour masks built without the dart
    table: sorted (neighbour, edge) pairs per vertex and a (vertex,
    neighbour) -> position dict for the reverse entries."""
    index = {v: i for i, v in enumerate(g.vertices)}
    n = len(index)
    pairs = [[] for _ in range(n)]
    bits = [0] * n
    for eid, (u, v) in enumerate(g.edges):
        ui, vi = index[u], index[v]
        pairs[ui].append((vi, eid))
        pairs[vi].append((ui, eid))
        bits[ui] |= 1 << vi
        bits[vi] |= 1 << ui
    for lst in pairs:
        lst.sort()
    position = {(c, w): pos for c in range(n) for pos, (w, _) in enumerate(pairs[c])}
    adj = tuple(
        tuple((w, eid, position[(w, c)], pos) for pos, (w, eid) in enumerate(pairs[c]))
        for c in range(n)
    )
    return adj, bits


def test_dart_table_is_the_engine_move_table(monkeypatch):
    # K6's reduced host is K6 itself; K7's lost vertex 1 to a split
    # (their searches exhaust the budget, so stop the construction there)
    hosts = [_reduced_host(complete_graph(k), 1, monkeypatch, search=False)[0] for k in (6, 7)]
    assert hosts[1].vertices == (0, 2, 3, 4, 5, 6, 7, 8)
    gapped = build_graph([(0, 5), (5, 17), (17, 40), (0, 40), (0, 17)])
    graphs = atlas_graphs(7) + hosts + [gapped]
    assert len(graphs) == 998
    for g in graphs:
        darts = g._darts
        assert len(darts) == g.num_vertices
        for c, row in enumerate(darts):
            for p, (w, i, back, pos) in enumerate(row):
                assert pos == p
                assert darts[w][back] == (c, i, pos, back)
                assert g.edges[i] == tuple(sorted((g.vertices[c], g.vertices[w])))
        engine = search._Engine(g, TraceSpec("strong", "antiparallel"), 1)
        adj, bits = _moves_by_sorting(g)
        assert engine.adj == adj and engine.adj is darts
        assert engine.nbr_bits == bits
        assert engine.deg == [g.degree(v) for v in g.vertices]
        assert engine.labels == g.vertices


@pytest.mark.parametrize(
    "graph,size,nodes,first",
    [
        (K44, (9, 16), 54_154, (
            0, 4, 2, 5, 0, 6, 2, 4, 3, 5, 2, 7, 0, 5, 9, 7,
            2, 6, 3, 7, 9, 5, 3, 6, 8, 4, 0, 7, 3, 4, 8, 6,
        )),
        (ICOSAHEDRON, (13, 30), 4_289, (
            0, 5, 4, 3, 2, 6, 3, 4, 6, 2, 8, 0, 7, 8, 2, 9, 3, 6, 5, 0,
            8, 9, 2, 12, 0, 11, 4, 5, 11, 7, 0, 12, 6, 4, 10, 3, 9, 7, 10, 4,
            11, 5, 13, 8, 7, 9, 10, 7, 11, 10, 9, 8, 13, 5, 6, 12, 2, 3, 10, 11,
        )),
        (TWO_K4, (7, 12), 7_977, (
            0, 1, 2, 0, 3, 1, 0, 2, 3, 4, 5, 3, 2, 1, 3, 5, 6, 4, 3, 6, 5, 4, 6, 3,
        )),
    ],
    ids=["K4,4", "icosahedron", "2K4"],
)
def test_engine_pins_the_benchmark_hosts(graph, size, nodes, first, monkeypatch):
    # the search golden stops at 6 vertices; these are the reduced hosts the
    # benchmark's construct_roundtrip searches at d = 1, node for node
    host, trace = _reduced_host(graph, 1, monkeypatch)
    assert (len(host.vertices), host.num_edges) == size
    cls = classify_trace(trace)
    assert cls.direction == "antiparallel" and cls.stability_order >= 1
    engine = search._Engine(host, TraceSpec("strong", "antiparallel"), search.DEFAULT_BUDGET)
    assert next(engine.run()) == first
    assert engine.nodes == nodes


def test_budget_boundary_success():
    trace = find_witness(K44, "stable", "antiparallel", 1, budget=54_154)
    assert trace is not None
    cls = classify_trace(trace)
    assert cls.direction == "antiparallel" and cls.stability_order >= 1


def test_disconnected_rejected():
    g = build_graph([(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraphError):
        find_trace(g, TraceSpec("double"))
