"""Tree transfer, deficiency-reducing splits, and trace projection/lifting."""

import random
from itertools import islice, product

import pytest

from trace_forge.errors import (
    DegreeTooSmallError,
    NotInOddComponentError,
    NotQualifiedError,
    NotSpanningTreeError,
    PartitionNotRepetitionClosedError,
    PreconditionViolatedError,
    UnknownVertexError,
)
from trace_forge.graph import (
    build_graph,
    complete_graph,
    edge_key,
    fresh_vertex_ids,
    identify_vertices,
    is_connected,
    split_vertex,
    SplitSpec,
)
from trace_forge.search import find_trace
from trace_forge.spanning import (
    cotree_decomposition,
    deficiency_of_tree,
    iter_spanning_trees,
    spanning_tree,
    tree_is_qualified,
)
from trace_forge.transform import (
    lift_trace_through_identification,
    project_trace_through_split,
    split_reduce_deficiency,
    split_reduce_qualified,
    transfer_tree_on_identification,
)
from trace_forge.walks import (
    TraceSpec,
    classify_trace,
    direction_profile,
    transition_graph_at,
    validate_double_trace,
)

from conftest import atlas_graphs, random_connected_graph, random_spanning_tree


# -- tree transfer ---------------------------------------------------------------


def test_transfer_two_triangles_example():
    # triangles {0,1,2} and {5,3,4} joined by edge (1,3); identifying 0 and 5
    # into 6 must yield the tree {12?..}: hand-derived result below
    g_prime = build_graph([(0, 1), (0, 2), (1, 2), (5, 3), (5, 4), (3, 4), (1, 3)])
    t_prime = spanning_tree(g_prime, [(0, 1), (1, 2), (1, 3), (3, 4), (4, 5)])
    tree = transfer_tree_on_identification(g_prime, t_prime, [0, 5], 6)
    assert tree.tree_edges == frozenset({(1, 2), (1, 3), (3, 4), (4, 6)})
    g = identify_vertices(g_prime, [0, 5], 6)
    decomposition = cotree_decomposition(g, tree)
    assert len(decomposition.components) == 1
    comp = decomposition.components[0]
    assert comp.edges == frozenset({(1, 6), (2, 6), (3, 6)})
    assert comp.is_odd and 6 in comp.vertices


def test_transfer_covered_by_protected_stays_covered():
    rng = random.Random(13)
    runs = 0
    while runs < 25:
        g = random_connected_graph(rng, n_min=4, n_max=6)
        v = rng.choice([x for x in g.vertices if g.degree(x) >= 2])
        nbrs = list(g.neighbors(v))
        rng.shuffle(nbrs)
        cut = rng.randint(1, len(nbrs) - 1)
        parts = (frozenset(nbrs[:cut]), frozenset(nbrs[cut:]))
        g_prime = split_vertex(g, SplitSpec(v, parts))
        if not is_connected(g_prime):
            continue
        targets = fresh_vertex_ids(g, 2)
        t_prime = random_spanning_tree(g_prime, rng)
        protected = frozenset(
            x
            for comp in cotree_decomposition(g_prime, t_prime).odd_components()
            for x in comp.vertices
            if x not in targets
        )
        tree = transfer_tree_on_identification(g_prime, t_prime, targets, v, protected)
        g_back = identify_vertices(g_prime, targets, v)
        assert tree.host == g_back
        for comp in cotree_decomposition(g_back, tree).odd_components():
            assert comp.vertices & (protected | {v})
        runs += 1


def test_transfer_three_way_identification():
    # split a K5 vertex into three parts, pick a qualified tree upstairs,
    # and transfer it back down in one identification that drops two edges
    g = complete_graph(5)
    parts = (frozenset({1, 2}), frozenset({3}), frozenset({4}))
    g_prime = split_vertex(g, SplitSpec(0, parts))
    targets = fresh_vertex_ids(g, 3)
    hypothesis_tree = None
    for t in iter_spanning_trees(g_prime):
        if all(
            comp.vertices & set(targets)
            for comp in cotree_decomposition(g_prime, t).odd_components()
        ):
            hypothesis_tree = t
            break
    assert hypothesis_tree is not None
    tree = transfer_tree_on_identification(g_prime, hypothesis_tree, targets, 0)
    assert tree.host == g
    for comp in cotree_decomposition(g, tree).odd_components():
        assert 0 in comp.vertices


def _set_partitions(items, k):
    """Every partition of ``items`` into k non-empty blocks, once each."""
    for labels in product(range(k), repeat=len(items)):
        # every block is used, and block i first appears before block i + 1
        if sorted(set(labels), key=labels.index) == list(range(k)):
            yield tuple(
                frozenset(x for x, b in zip(items, labels) if b == i) for i in range(k)
            )


def test_transfer_over_atlas_splits():
    """Every connected 2- and 3-way split of every vertex of every connected
    atlas graph with up to 6 vertices, from the first tree upstairs: the
    transfer spans the graph, moves exactly k - 1 tree edges at the merged
    vertex to the co-tree, and keeps every odd component covered."""
    checked = 0
    for g in atlas_graphs(6):
        for v in g.vertices:
            for k in (2, 3):
                for parts in _set_partitions(g.neighbors(v), k):
                    g_prime = split_vertex(g, SplitSpec(v, parts))
                    if not is_connected(g_prime):
                        continue
                    targets = fresh_vertex_ids(g, k)
                    t_prime = next(iter_spanning_trees(g_prime))
                    protected = frozenset(
                        x
                        for comp in cotree_decomposition(
                            g_prime, t_prime
                        ).odd_components()
                        for x in comp.vertices
                        if x not in targets
                    )
                    tree = transfer_tree_on_identification(
                        g_prime, t_prime, targets, v, protected
                    )
                    assert tree.host == g
                    relabeled = {
                        edge_key(*(v if x in targets else x for x in e))
                        for e in t_prime.cotree_edges
                    }
                    added = tree.cotree_edges - relabeled
                    assert relabeled <= tree.cotree_edges
                    assert len(added) == k - 1
                    assert all(v in e for e in added)
                    for comp in cotree_decomposition(g, tree).odd_components():
                        assert comp.vertices & (protected | {v})
                    checked += 1
    assert checked > 4000


def test_transfer_rejects_uncovered_odd_component():
    # co-tree {01, 02} of the diamond is even; make an odd one away from targets
    g_prime = build_graph([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (1, 4)])
    # split nothing: fabricate targets 0 and 3 (disjoint neighborhoods)
    t_prime = spanning_tree(g_prime, [(0, 1), (1, 2), (1, 4), (4, 5), (5, 3)])
    # co-tree {02, 34}: both odd; 02 contains 0 but 34 contains 3: covered
    tree = transfer_tree_on_identification(g_prime, t_prime, [0, 3], 6)
    assert tree.host == identify_vertices(g_prime, [0, 3], 6)
    # now protect nothing and use targets that avoid the odd component {02}
    with pytest.raises(PreconditionViolatedError):
        transfer_tree_on_identification(g_prime, t_prime, [2, 5], 6)


@pytest.mark.parametrize(
    "targets", [[0], [0, 9], [0, 0]], ids=["one", "unknown", "repeated"]
)
def test_transfer_rejects_targets_identify_rejects(targets):
    # the two-triangles example; protecting 2 and 3 covers both odd co-tree
    # components, so only the identification itself can fail
    g_prime = build_graph([(0, 1), (0, 2), (1, 2), (5, 3), (5, 4), (3, 4), (1, 3)])
    t_prime = spanning_tree(g_prime, [(0, 1), (1, 2), (1, 3), (3, 4), (4, 5)])
    with pytest.raises(PreconditionViolatedError):
        transfer_tree_on_identification(g_prime, t_prime, targets, 6, (2, 3))


def test_transfer_rejects_bad_protected_set_and_foreign_tree():
    g_prime = build_graph([(0, 1), (0, 2), (1, 2), (5, 3), (5, 4), (3, 4), (1, 3)])
    t_prime = spanning_tree(g_prime, [(0, 1), (1, 2), (1, 3), (3, 4), (4, 5)])
    with pytest.raises(PreconditionViolatedError, match="must not be targets"):
        transfer_tree_on_identification(g_prime, t_prime, [0, 5], 6, (0, 3))
    with pytest.raises(PreconditionViolatedError, match="must be in the graph"):
        transfer_tree_on_identification(g_prime, t_prime, [0, 5], 6, (2, 9))
    k4 = complete_graph(4)
    foreign = spanning_tree(k4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(NotSpanningTreeError):
        transfer_tree_on_identification(g_prime, foreign, [0, 5], 6)


# -- deficiency-reducing splits ----------------------------------------------------


def test_split_reduce_k4_case1(k4):
    t = spanning_tree(k4, [(0, 1), (0, 2), (2, 3)])
    assert deficiency_of_tree(k4, t) == 1
    outcome = split_reduce_deficiency(k4, t, 0)
    assert outcome.deficiency_before == 1
    assert outcome.deficiency_after == 0
    assert is_connected(outcome.graph_after)
    assert outcome.tree_after.host == outcome.graph_after
    sizes = sorted(len(p) for p in outcome.parts)
    assert sizes == [1, 2]


def test_split_reduce_degree6_star_component():
    # hub 0: one tree edge to 1, five co-tree edges to 2..6 forming a single
    # odd component; degree 6 is not divisible by 4 and the odd parts
    # outnumber the larger half
    edges = [(0, 1)] + [(1, w) for w in range(2, 7)] + [(0, w) for w in range(2, 7)]
    g = build_graph(edges)
    t = spanning_tree(g, [(0, 1)] + [(1, w) for w in range(2, 7)])
    assert deficiency_of_tree(g, t) == 1
    outcome = split_reduce_deficiency(g, t, 0)
    assert outcome.deficiency_after < 1
    assert sorted(len(p) for p in outcome.parts) == [3, 3]


def test_split_reduce_needs_tree_rewiring():
    # book graph: v-u plus three pages w1..w3 adjacent to both; with the
    # star tree at u, every direct split leaves two odd one-edge components,
    # so the reduction must first move to a tree with two tree edges at v
    g = build_graph([(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    t = spanning_tree(g, [(0, 1), (1, 2), (1, 3), (1, 4)])
    assert deficiency_of_tree(g, t) == 1
    outcome = split_reduce_deficiency(g, t, 0)
    assert outcome.deficiency_after == 0
    assert is_connected(outcome.graph_after)
    q = split_reduce_qualified(g, t, 0, 4)
    assert q.deficiency_after == 0
    assert tree_is_qualified(q.graph_after, q.tree_after, 4)


def test_split_reduce_rejects_even_component_vertex():
    g = build_graph([(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)])
    t = spanning_tree(g, [(0, 3), (1, 3), (2, 3)])
    with pytest.raises(NotInOddComponentError):
        split_reduce_deficiency(g, t, 0)  # component {01, 02} is even


def test_split_reduce_universal_over_small_graphs():
    """Both accept rules find a split at every odd-component vertex of the
    first trees of every connected atlas graph with up to 6 vertices, from
    the recipe on the given tree or on a rewired one alone."""
    checked = 0
    for g in atlas_graphs(6):
        for t in islice(iter_spanning_trees(g), 10):
            odd = cotree_decomposition(g, t).odd_components()
            before = len(odd)
            for v in sorted({v for comp in odd for v in comp.vertices}):
                outcome = split_reduce_deficiency(g, t, v)
                assert is_connected(outcome.graph_after)
                assert outcome.deficiency_after < before
                degree = g.degree(v)
                assert sorted(len(p) for p in outcome.parts) == sorted(
                    ((degree + 1) // 2, degree // 2)
                )
                # the largest threshold the instance supports
                threshold = min(
                    [degree] + [g.degree(comp.witness_vertex) for comp in odd]
                )
                q = split_reduce_qualified(g, t, v, threshold)
                assert q.deficiency_after < before
                assert tree_is_qualified(q.graph_after, q.tree_after, threshold)
                checked += 1
    assert checked > 2000


def test_split_reduce_qualified_degree8_hub():
    # hub 0 with one tree edge and seven co-tree edges; threshold 8 = d(0)
    edges = [(0, 1)] + [(1, w) for w in range(2, 9)] + [(0, w) for w in range(2, 9)]
    g = build_graph(edges)
    t = spanning_tree(g, [(0, 1)] + [(1, w) for w in range(2, 9)])
    assert tree_is_qualified(g, t, 8)
    outcome = split_reduce_qualified(g, t, 0, 8)
    assert outcome.deficiency_after == outcome.deficiency_before - 1
    assert tree_is_qualified(outcome.graph_after, outcome.tree_after, 8)


def test_split_reduce_qualified_rejects_low_degree():
    g = complete_graph(4)
    t = spanning_tree(g, [(0, 1), (0, 2), (2, 3)])
    with pytest.raises(NotQualifiedError):
        split_reduce_qualified(g, t, 0, 5)


def test_split_reduce_qualified_rejects_unqualified_tree_and_bad_vertex():
    # two triangles joined by the bridge 2-3: co-tree {02, 45}, and the odd
    # component {45} has no vertex of degree >= 3 although 2 has degree 3
    g = build_graph([(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])
    t = spanning_tree(g, [(0, 1), (1, 2), (2, 3), (3, 4), (3, 5)])
    with pytest.raises(NotQualifiedError, match="no vertex of degree >= 3"):
        split_reduce_qualified(g, t, 2, 3)
    with pytest.raises(UnknownVertexError):
        split_reduce_qualified(g, t, 9)
    pendant = build_graph([(0, 1), (0, 2), (1, 2), (2, 3)])
    t = spanning_tree(pendant, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(DegreeTooSmallError):
        split_reduce_qualified(pendant, t, 3)


# -- trace projection and lifting ---------------------------------------------------


def test_project_triangle_to_path(k3):
    w = validate_double_trace(k3, [0, 1, 2, 0, 2, 1])
    projected = project_trace_through_split(w, 0, [{1}, {2}])
    host = projected.host
    assert host.num_vertices == 4
    assert sorted(host.degree(v) for v in host.vertices) == [1, 1, 2, 2]
    assert set(direction_profile(projected).values()) == {"antiparallel"}


def test_project_rejects_unclosed_partition(k3):
    w = validate_double_trace(k3, [0, 1, 2, 0, 1, 2])  # strong: one component
    with pytest.raises(PartitionNotRepetitionClosedError):
        project_trace_through_split(w, 0, [{1}, {2}])


def test_project_then_lift_round_trip():
    rng = random.Random(19)
    done = 0
    while done < 20:
        g = random_connected_graph(rng, n_min=3, n_max=5)
        w = find_trace(g, TraceSpec("double", "antiparallel"))
        split_candidates = [
            v
            for v in g.vertices
            if len(transition_graph_at(w, v).components) >= 2
        ]
        if not split_candidates:
            continue
        v = rng.choice(split_candidates)
        parts = transition_graph_at(w, v).components
        projected = project_trace_through_split(w, v, parts)
        new_ids = fresh_vertex_ids(g, len(parts))
        lifted = lift_trace_through_identification(projected, new_ids, v)
        assert lifted == w
        done += 1


def test_project_keeps_other_vertices_and_directions():
    rng = random.Random(21)
    done = 0
    while done < 15:
        g = random_connected_graph(rng, n_min=4, n_max=5)
        w = find_trace(g, TraceSpec("double"))
        candidates = [
            v
            for v in g.vertices
            if len(transition_graph_at(w, v).components) >= 2
        ]
        if not candidates:
            continue
        v = candidates[0]
        parts = transition_graph_at(w, v).components
        projected = project_trace_through_split(w, v, parts)
        before = direction_profile(w)
        after = direction_profile(projected)
        for e, label in before.items():
            if v not in e:
                assert after[e] == label
        new_ids = set(fresh_vertex_ids(g, len(parts)))

        def unsplit(comps):
            return {
                frozenset(v if x in new_ids else x for x in comp) for comp in comps
            }

        for u in g.vertices:
            if u == v:
                continue
            assert unsplit(transition_graph_at(w, u).components) == unsplit(
                transition_graph_at(projected, u).components
            )
        done += 1


def test_lift_of_uneven_split_breaks_stability(k5):
    # split K5's vertex 0 into {1} and {2,3,4}; any trace upstairs lifts to a
    # trace with the size-1 repetition {1} at 0
    g_prime = split_vertex(k5, SplitSpec(0, (frozenset({1}), frozenset({2, 3, 4}))))
    w_prime = find_trace(g_prime, TraceSpec("double", "antiparallel"))
    assert w_prime is not None
    lifted = lift_trace_through_identification(w_prime, fresh_vertex_ids(k5, 2), 0)
    cls = classify_trace(lifted)
    assert frozenset({1}) in cls.minimal_repetitions[0]
    assert cls.stability_order == 0


def test_lift_of_balanced_split_keeps_stability():
    # K5 plus a degree-2 vertex has odd betti, so the d=1 pipeline must split
    # a degree->=4 vertex; both halves have size > 1, and the lift introduces
    # exactly the halves' neighborhoods as the repetitions at the old vertex
    from trace_forge.spanning import min_tree

    g = build_graph(
        [(i, j) for i in range(5) for j in range(i + 1, 5)] + [(0, 5), (1, 5)]
    )
    cert = min_tree(g, 4)
    assert cert is not None and cert.value == 1
    v = min(
        x
        for comp in cotree_decomposition(g, cert.witness_tree).odd_components()
        for x in comp.vertices
        if g.degree(x) >= 4
    )
    outcome = split_reduce_qualified(g, cert.witness_tree, v, 4)
    w_prime = find_trace(outcome.graph_after, TraceSpec("stable", "antiparallel", 1))
    assert w_prime is not None
    lifted = lift_trace_through_identification(w_prime, outcome.new_vertices, v)
    cls = classify_trace(lifted)
    assert cls.direction == "antiparallel"
    assert cls.stability_order >= 1
    reps = cls.minimal_repetitions[v]
    assert set(reps) <= {outcome.parts[0], outcome.parts[1]} or all(
        any(comp <= part for part in outcome.parts) for comp in reps
    )


def test_lift_rejects_adjacent_targets(k4):
    w = find_trace(k4, TraceSpec("double"))
    with pytest.raises(PreconditionViolatedError):
        lift_trace_through_identification(w, [0, 1], 9)


def test_project_with_three_or_more_parts():
    # hub of degree 6 (three triangles sharing vertex 0, ring-connected so
    # the 3-way split stays connected): lifting a trace from the split
    # plants at least three components at the hub, and projecting along all
    # of them round-trips
    g = build_graph(
        [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (0, 5), (0, 6), (5, 6),
         (2, 3), (4, 5), (6, 1)]
    )
    parts = (frozenset({1, 2}), frozenset({3, 4}), frozenset({5, 6}))
    g_prime = split_vertex(g, SplitSpec(0, parts))
    assert is_connected(g_prime)
    w_prime = find_trace(g_prime, TraceSpec("double", "antiparallel"))
    new_ids = fresh_vertex_ids(g, 3)
    lifted = lift_trace_through_identification(w_prime, new_ids, 0)
    comps = transition_graph_at(lifted, 0).components
    assert len(comps) >= 3
    for part in parts:
        assert any(comp <= part for comp in comps)
    projected = project_trace_through_split(lifted, 0, comps)
    assert projected.host.num_vertices == g.num_vertices - 1 + len(comps)
    back = lift_trace_through_identification(
        projected, fresh_vertex_ids(g, len(comps)), 0
    )
    assert back == lifted
