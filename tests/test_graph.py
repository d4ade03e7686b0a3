"""Graph core: construction, structure queries, splitting, identification."""

import random
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trace_forge import cli, search
from trace_forge.errors import (
    AdjacentTargetsError,
    DegreeTooSmallError,
    DisconnectedGraphError,
    DuplicateEdgeError,
    EmptyGraphError,
    InvalidPartitionError,
    OverlappingNeighborhoodsError,
    SelfLoopError,
)
from trace_forge.graph import (
    Graph,
    SplitSpec,
    _components,
    betti_number,
    build_graph,
    complete_graph,
    cycle_graph,
    edge_connectivity,
    identify_vertices,
    is_connected,
    path_graph,
    split_vertex,
)

from conftest import atlas_graphs, random_connected_graph


def test_build_triangle():
    g = build_graph([(0, 1), (1, 2), (2, 0)])
    assert g.num_vertices == 3
    assert g.num_edges == 3
    assert g.neighbors(0) == (1, 2)


def test_build_rejects_duplicate_edge():
    with pytest.raises(DuplicateEdgeError):
        build_graph([(0, 1), (1, 0)])


def test_build_rejects_self_loop():
    with pytest.raises(SelfLoopError):
        build_graph([(0, 0)])


def test_connectivity():
    assert is_connected(complete_graph(4))
    two_triangles = build_graph([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert not is_connected(two_triangles)
    assert is_connected(build_graph([], isolated_vertices=[7]))
    with pytest.raises(EmptyGraphError):
        is_connected(build_graph([]))


def test_connectivity_is_traversed_once_per_graph(monkeypatch, capsys):
    # a table runs require_connected in every cell; the graph keeps the answer
    traversals = []
    traverse = Graph.connected.func

    def counting(g):
        traversals.append(g)
        return traverse(g)

    monkeypatch.setattr(Graph.connected, "func", counting)
    k5 = Path(__file__).parent / "fixtures" / "k5.edges"
    assert cli.main(["table", "-i", str(k5), "-d", "1,2"]) == 0
    assert len(traversals) == 1
    g = traversals[0]
    assert is_connected(g) and betti_number(g) == 6
    assert len(traversals) == 1
    empty = build_graph([])
    for _ in range(2):  # an error is not kept: every query raises
        with pytest.raises(EmptyGraphError):
            is_connected(empty)


def test_scan_index_is_built_once_per_graph(monkeypatch, capsys):
    builds = {"_scan_index": [], "_darts": []}
    for name, made in builds.items():
        build = getattr(Graph, name).func

        def counting(g, build=build, made=made):
            made.append(g)
            return build(g)

        monkeypatch.setattr(getattr(Graph, name), "func", counting)
    engines = []
    engine = search._Engine

    def counting_engine(g, spec, budget):
        engines.append(g)
        return engine(g, spec, budget)

    monkeypatch.setattr(search, "_Engine", counting_engine)
    k5 = Path(__file__).parent / "fixtures" / "k5.edges"
    # deficiency with a threshold runs two scans and a tree check
    assert cli.main(["deficiency", "-i", str(k5), "-d", "4"]) == 0
    assert len(builds["_scan_index"]) == 1
    # the oracle searches all 15 cells of K5, one dart table for all of them
    assert cli.main(["table", "-i", str(k5), "-d", "1,2,3", "--oracle"]) == 0
    assert len(engines) == 15
    (g,) = builds["_darts"]
    assert all(h is g for h in engines)
    assert len(builds["_scan_index"]) == 2 and builds["_scan_index"][1] is g


def test_bridges_match_networkx_on_atlas():
    graphs = atlas_graphs(7)
    assert len(graphs) == 995
    for g in graphs:
        expected = {tuple(sorted(e)) for e in nx.bridges(nx.Graph(g.edges))}
        assert g.bridges == expected, g.edges


def test_adjacency_rows_ascend():
    # the rows are appended in sorted edge order, with no sort of their own
    gapped = build_graph([(0, 5), (5, 17), (17, 40), (0, 40), (0, 17)])
    for g in [*atlas_graphs(7), gapped]:
        adjacency = g.adjacency
        assert list(adjacency) == list(g.vertices)
        for v, row in adjacency.items():
            assert list(row) == sorted(row), (g.edges, v)
    assert gapped.adjacency == {0: (5, 17, 40), 5: (0, 17), 17: (0, 5, 40), 40: (0, 17)}


@pytest.mark.parametrize("seed", range(20))
def test_components_are_sorted_tuples_matching_networkx(seed):
    rng = random.Random(seed)
    nodes = sorted(rng.sample(range(1000), rng.randint(1, 40)))
    links = [
        (rng.choice(nodes), rng.choice(nodes)) for _ in range(rng.randint(0, len(nodes)))
    ]
    comps = _components(nodes, links)
    assert all(type(c) is tuple and list(c) == sorted(c) for c in comps)
    assert [c[0] for c in comps] == sorted(c[0] for c in comps)
    h = nx.MultiGraph(links)
    h.add_nodes_from(nodes)
    assert {*map(frozenset, comps)} == {*map(frozenset, nx.connected_components(h))}
    # each component lists its nodes in the given order
    shuffled = nodes[:]
    rng.shuffle(shuffled)
    rank = {x: i for i, x in enumerate(shuffled)}
    again = _components(shuffled, links)
    assert sorted(map(sorted, again)) == sorted(map(list, comps))
    assert all(list(c) == sorted(c, key=rank.get) for c in again)
    assert [rank[c[0]] for c in again] == sorted(rank[c[0]] for c in again)


def test_components_reject_a_link_outside_nodes():
    with pytest.raises(KeyError):
        _components([0, 1], [(0, 2)])


def test_bridges_on_long_path_and_cycle():
    # the pass keeps its own stack, so depth 20,000 needs no recursion
    path = path_graph(20_000)
    assert path.bridges == set(path.edges)
    assert cycle_graph(20_000).bridges == frozenset()
    two_triangles = build_graph([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert two_triangles.bridges == frozenset()  # one pass per component


@pytest.mark.parametrize(
    "graph,expected",
    [
        (complete_graph(4), 3),
        (path_graph(5), 0),
        (complete_graph(5), 6),
    ],
)
def test_betti_number(graph, expected):
    assert betti_number(graph) == expected


def test_betti_rejects_disconnected():
    g = build_graph([(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraphError):
        betti_number(g)


@pytest.mark.parametrize(
    "graph,expected",
    [
        (complete_graph(3), 2),
        (complete_graph(4), 3),
        (complete_graph(5), 4),
        (cycle_graph(4), 2),
        (path_graph(3), 1),
    ],
)
def test_edge_connectivity(graph, expected):
    assert edge_connectivity(graph) == expected


def test_split_k4():
    g = complete_graph(4)
    g2 = split_vertex(g, SplitSpec(0, (frozenset({1}), frozenset({2, 3}))))
    assert g2.num_vertices == 5
    assert g2.num_edges == 6
    assert g2.degree(4) == 1 and g2.degree(5) == 2
    assert g2.neighbors(4) == (1,)


def test_split_c4_gives_path():
    g = cycle_graph(4)
    g2 = split_vertex(g, SplitSpec(0, (frozenset({1}), frozenset({3}))))
    assert g2.num_vertices == 5
    assert g2.num_edges == 4
    assert sorted(g2.degree(v) for v in g2.vertices) == [1, 1, 2, 2, 2]
    assert is_connected(g2)


def test_split_bowtie_center_disconnects():
    bowtie = build_graph([(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    g2 = split_vertex(bowtie, SplitSpec(0, (frozenset({1, 2}), frozenset({3, 4}))))
    assert g2.num_edges == 6
    assert not is_connected(g2)


def test_split_rejects_bad_partition():
    g = complete_graph(4)
    with pytest.raises(InvalidPartitionError):
        split_vertex(g, SplitSpec(0, (frozenset({1}), frozenset({2}))))
    with pytest.raises(InvalidPartitionError):
        SplitSpec(0, (frozenset({1}),))
    with pytest.raises(DegreeTooSmallError):
        split_vertex(path_graph(2), SplitSpec(0, (frozenset({1}), frozenset({2}))))


def test_identify_two_triangles_gives_bowtie():
    g = build_graph([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    merged = identify_vertices(g, [0, 3], 9)
    assert merged.num_edges == 6
    assert merged.degree(9) == 4


def test_identify_rejects_shared_neighbor():
    g = path_graph(3)  # 0-1-2, both ends see 1
    with pytest.raises(OverlappingNeighborhoodsError):
        identify_vertices(g, [0, 2], 5)


def test_identify_rejects_adjacent_targets():
    g = complete_graph(3)
    with pytest.raises(AdjacentTargetsError):
        identify_vertices(g, [0, 1], 5)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_split_then_identify_round_trip(seed):
    rng = random.Random(seed)
    g = random_connected_graph(rng, n_min=3, n_max=6)
    candidates = [v for v in g.vertices if g.degree(v) >= 2]
    v = rng.choice(candidates)
    nbrs = list(g.neighbors(v))
    rng.shuffle(nbrs)
    cut = rng.randint(1, len(nbrs) - 1)
    parts = (frozenset(nbrs[:cut]), frozenset(nbrs[cut:]))
    g2 = split_vertex(g, SplitSpec(v, parts))
    assert g2.num_edges == g.num_edges
    # degrees away from v unchanged
    for w in g.vertices:
        if w != v:
            assert g2.degree(w) == g.degree(w)
    new_a, new_b = max(g.vertices) + 1, max(g.vertices) + 2
    back = identify_vertices(g2, [new_a, new_b], v)
    assert back == g
