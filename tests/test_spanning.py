"""Spanning trees, co-tree components, and deficiency quantities."""

import random
from collections import Counter
from itertools import combinations, islice

import networkx as nx
import pytest

from trace_forge import spanning
from trace_forge.errors import NotSpanningTreeError
from trace_forge.graph import betti_number, build_graph, path_graph
from trace_forge.spanning import (
    cotree_decomposition,
    iter_spanning_trees,
    min_tree,
    qualified_deficiency_of_tree,
    spanning_tree,
)

from conftest import (
    atlas_graphs,
    find_root,
    k4_chain,
    k4_ring,
    odd_components,
    qualified_trees,
    random_connected_graph,
    random_spanning_tree,
)


def reference_trees(g):
    """Edge sets of the spanning trees in ``combinations`` order: every
    (|V| - 1)-subset of the edges, kept when a union-find finds no cycle."""
    for subset in combinations(g.edges, g.num_vertices - 1):
        parent = {v: v for v in g.vertices}
        for u, v in subset:
            ru, rv = find_root(parent, u), find_root(parent, v)
            if ru == rv:
                break
            parent[ru] = rv
        else:
            yield frozenset(subset)


def star_tree(g, center):
    return spanning_tree(g, [(center, w) for w in g.neighbors(center)])


def test_spanning_tree_validation(k4):
    with pytest.raises(NotSpanningTreeError):
        spanning_tree(k4, [(0, 1), (1, 2)])  # too few
    with pytest.raises(NotSpanningTreeError):
        spanning_tree(k4, [(0, 1), (1, 2), (0, 2)])  # cycle
    with pytest.raises(NotSpanningTreeError):
        spanning_tree(k4, [(0, 1), (1, 2), (4, 5)])  # foreign edges


def test_cotree_k4_star(k4):
    t = star_tree(k4, 0)
    (comp,) = cotree_decomposition(t)
    assert comp.edges == frozenset({(1, 2), (1, 3), (2, 3)})
    assert len(comp.edges) == 3
    assert comp.is_odd
    assert qualified_deficiency_of_tree(t, 0) == 1


def test_cotree_k5_star(k5):
    t = star_tree(k5, 0)
    (comp,) = cotree_decomposition(t)
    assert len(comp.edges) == 6
    assert not comp.is_odd
    assert qualified_deficiency_of_tree(t, 0) == 0


def test_cotree_of_tree_graph_is_empty():
    g = path_graph(5)
    t = spanning_tree(g, g.edges)
    assert cotree_decomposition(t) == ()


def test_cotree_matches_networkx_components():
    """On the first 10 trees of every connected atlas graph with up to 6
    vertices, the co-tree components are networkx's connected components of
    the co-tree edge subgraph, ordered by least edge."""
    checked = 0
    for g in atlas_graphs(6):
        for t in islice(iter_spanning_trees(g), 10):
            cotree = nx.Graph(sorted(t.cotree_edges))
            expected = []
            for verts in nx.connected_components(cotree):
                edges = frozenset(e for e in t.cotree_edges if e[0] in verts)
                expected.append((min(edges), edges, frozenset(verts)))
            expected.sort()
            got = [(min(c.edges), c.edges, c.vertices) for c in cotree_decomposition(t)]
            assert got == expected
            checked += 1
    assert checked > 1000


def test_cotree_c4_path(c4):
    t = spanning_tree(c4, [(0, 1), (1, 2), (2, 3)])
    assert qualified_deficiency_of_tree(t, 0) == 1


def test_spanning_tree_count_k4(k4):
    assert sum(1 for _ in iter_spanning_trees(k4)) == 16  # Cayley: 4^2


def test_tree_order_matches_subset_scan_on_atlas():
    """Every connected atlas graph with up to 7 vertices yields the same
    trees in the same order as the scan over all edge subsets."""
    graphs = atlas_graphs(7)
    assert len(graphs) == 995
    for g in graphs:
        got = [t.tree_edges for t in iter_spanning_trees(g)]
        assert got == list(reference_trees(g)), g.edges


def test_tree_order_matches_subset_scan_on_q4():
    # Q4 has 42,467,328 spanning trees, so only a prefix is compared
    q4 = build_graph(
        [(i, i ^ (1 << b)) for i in range(16) for b in range(4) if i < i ^ (1 << b)]
    )
    got = [t.tree_edges for t in islice(iter_spanning_trees(q4), 10)]
    assert got == list(islice(reference_trees(q4), 10))


def test_cotree_edges_sum_to_betti():
    rng = random.Random(6)
    for _ in range(20):
        g = random_connected_graph(rng, n_min=3, n_max=6)
        t = random_spanning_tree(g, rng)
        assert sum(len(c.edges) for c in cotree_decomposition(t)) == betti_number(g)


def test_graph_deficiency_values(k3, k4, k5):
    assert min_tree(k5)[0] == 0
    assert min_tree(k4)[0] == 1
    assert min_tree(k3)[0] == 1


def test_deficiency_witness_revalidates(k4):
    value, tree = min_tree(k4)
    assert qualified_deficiency_of_tree(tree, 0) == value


def test_qualified_deficiency_k4(k4):
    assert min_tree(k4, 4) is None  # max degree 3, odd betti


def test_qualified_deficiency_k5_star(k5):
    found = min_tree(k5, 8)
    assert found is not None
    assert found[0] == 0


def test_qualified_deficiency_with_given_tree(k4, k5):
    # a given tree is scored by qualified_deficiency_of_tree
    t = star_tree(k5, 0)
    assert qualified_deficiency_of_tree(t, 8) is not None
    assert qualified_deficiency_of_tree(t, 0) == 0
    path = spanning_tree(k5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert qualified_deficiency_of_tree(path, None) is not None  # one even co-tree component
    # K4's star leaves the odd triangle 1-2-3, whose vertices have degree 3
    star = star_tree(k4, 0)
    assert qualified_deficiency_of_tree(star, 0) == 1
    assert qualified_deficiency_of_tree(star, 3) is not None
    assert qualified_deficiency_of_tree(star, 4) is None
    assert qualified_deficiency_of_tree(star, None) is None


def test_find_even_cotree_tree(k4, k5, q3):
    assert min_tree(k5, None) is not None
    assert min_tree(k4, None) is None  # betti 3 is odd
    assert min_tree(q3, None) is None  # betti 5 is odd


def test_find_qualified_tree(k4, k5, c4):
    value, t = next(qualified_trees(k5, 4))
    assert qualified_deficiency_of_tree(t, 4) is not None
    assert value == qualified_deficiency_of_tree(t, 0)
    assert next(qualified_trees(k4, 4), None) is None
    assert next(qualified_trees(c4, 4), None) is None


def test_parity_law_and_minimality():
    rng = random.Random(9)
    for _ in range(30):
        g = random_connected_graph(rng, n_min=3, n_max=6)
        beta = betti_number(g)
        minimum = min_tree(g)[0]
        t = random_spanning_tree(g, rng)
        value = qualified_deficiency_of_tree(t, 0)
        assert value % 2 == beta % 2
        assert minimum <= value
        assert (min_tree(g, None) is not None) == (minimum == 0)


def component_score(t, threshold):
    """Qualified deficiency of t read off ``cotree_decomposition``: the
    number of odd components when each has a vertex of host degree at least
    ``threshold``, else None; ``None`` admits no odd component."""
    odd = odd_components(t)
    for comp in odd:
        if threshold is None or max(t.host.degree(x) for x in comp.vertices) < threshold:
            return None
    return len(odd)


def test_qualified_deficiency_below_threshold_matches_enumeration():
    """On every connected atlas graph with up to 6 vertices, ``min_tree`` is
    the first qualified tree of least deficiency and ``qualified_trees``
    starts at the first qualified tree, as a plain filter over all trees
    finds them over the subset scan.  Thresholds above the maximum degree
    take the parity shortcut, which must return the same tree or None."""
    outcomes = set()
    for g in atlas_graphs(6):
        trees = [spanning_tree(g, edges) for edges in reference_trees(g)]
        for threshold in (0, None, 4, 6, g.max_degree() + 1):
            scored = ((component_score(t, threshold), t) for t in trees)
            qualified = [(value, t) for value, t in scored if value is not None]
            first = qualified[0] if qualified else None
            least = min(qualified, key=lambda pair: pair[0]) if qualified else None
            assert next(qualified_trees(g, threshold), None) == first
            assert min_tree(g, threshold) == least
            outcomes.add(first is None)
    assert outcomes == {True, False}


def test_scorer_matches_components_on_every_atlas_tree():
    """On every spanning tree of every connected atlas graph with up to 6
    vertices, the per-tree scores agree with the co-tree components."""
    checked = 0
    for g in atlas_graphs(6):
        for t in iter_spanning_trees(g):
            for threshold in (0, None, 4, 6, g.max_degree() + 1):
                expected = component_score(t, threshold)
                assert qualified_deficiency_of_tree(t, threshold) == expected
            checked += 1
    assert checked > 10_000


def grid_graph(k):
    return build_graph(
        [(r * k + c, r * k + c + 1) for r in range(k) for c in range(k - 1)]
        + [(r * k + c, (r + 1) * k + c) for r in range(k - 1) for c in range(k)]
    )


CHAIN2_WITNESS = [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (4, 6)]
CHAIN3_WITNESS = CHAIN2_WITNESS + [(4, 7), (7, 8), (8, 9), (8, 10)]
GRID_PREFIX = [
    (0, 1), (0, 4), (1, 2), (1, 5), (2, 3), (2, 6), (3, 7), (4, 8), (5, 9),
    (6, 10), (7, 11), (8, 12), (9, 13), (10, 14),
]  # fmt: skip

#: graph -> threshold -> (min_tree, first of qualified_trees), each as
#: (value, sorted tree edges) or None
PINNED_SCANS = {
    "k4chain2": (k4_chain(2), {
        0: ((2, CHAIN2_WITNESS + [(4, 7)]),) * 2,
        None: (None, None),
        4: ((2, CHAIN2_WITNESS + [(5, 7)]),) * 2,
        6: (None, None),
    }),
    "k4chain3": (k4_chain(3), {
        0: ((3, CHAIN3_WITNESS + [(8, 11)]),) * 2,
        None: (None, None),
        4: ((3, CHAIN3_WITNESS + [(9, 11)]),) * 2,
        6: (None, None),
    }),
    "grid4x4": (grid_graph(4), {
        0: ((1, GRID_PREFIX + [(14, 15)]), (3, GRID_PREFIX + [(11, 15)])),
        None: (None, None),
        4: ((1, GRID_PREFIX + [(14, 15)]),) * 2,
        6: (None, None),
    }),
}  # fmt: skip


@pytest.mark.parametrize("name", sorted(PINNED_SCANS))
def test_scans_pinned_on_larger_graphs(name):
    g, expected = PINNED_SCANS[name]
    for threshold, (least, first) in expected.items():
        found = min_tree(g, threshold)
        got = None if found is None else (found[0], found[1].sorted_edges())
        assert got == least, threshold
        pair = next(qualified_trees(g, threshold), None)
        got = None if pair is None else (pair[0], pair[1].sorted_edges())
        assert got == first, threshold


def test_scans_validate_only_the_trees_they_keep(monkeypatch):
    # the search builds trees without checking them again: of the trees a
    # scan walks it checks only the one it returns.  k4chain3 has 4,096
    # trees; min_tree gives up on the whole graph after |E| = 20 of them
    # and walks each of the three K4 blocks (16 trees) on its own
    checked, walked = [], []
    check, trees = spanning._check_spanning_tree, spanning.iter_spanning_trees

    def counting(g, edges):
        checked.append(edges)
        check(g, edges)

    def walking(g):
        for t in trees(g):
            walked.append(t)
            yield t

    monkeypatch.setattr(spanning, "_check_spanning_tree", counting)
    monkeypatch.setattr(spanning, "iter_spanning_trees", walking)
    g = k4_chain(3)
    for threshold in (0, 4):
        checked.clear()
        walked.clear()
        _, tree = min_tree(g, threshold)
        assert checked == [tree.tree_edges]
        assert 20 < len(walked) <= 20 + 3 * 16
    checked.clear()
    assert min_tree(g, 6) is None and checked == []
    ((_, tree),) = spanning._first_tree(g, (4,), False)
    assert checked == [tree.tree_edges]


#: two K4s sharing vertex 3: a cut vertex, but no bridge
K4_PAIR = build_graph(
    [(i, j) for i in range(4) for j in range(i + 1, 4)]
    + [(i, j) for i in range(3, 7) for j in range(i + 1, 7)]
)


def global_scans(g, threshold):
    """``(least, first)``: the first qualified tree of least value and the
    first qualified tree from one pass over ``qualified_trees``, each as
    ``(value, tree edges)`` or None."""
    least = first = None
    for value, t in qualified_trees(g, threshold):
        if first is None:
            first = (value, t.tree_edges)
        if least is None or value < least[0]:
            least = (value, t.tree_edges)
    return least, first


def assert_block_scan_matches(g, thresholds):
    """The block path, forced through ``spanning._by_blocks``, and the
    public scans agree with the global scan in value and witness tree."""

    def pair(found):
        return None if found is None else (found[0], found[1].tree_edges)

    for threshold in thresholds:
        least, first = global_scans(g, threshold)
        (by_least,) = spanning._by_blocks(g, (threshold,), True)
        (by_first,) = spanning._by_blocks(g, (threshold,), False)
        assert pair(by_least) == least, threshold
        assert pair(by_first) == first, threshold
        assert pair(min_tree(g, threshold)) == least, threshold
        assert pair(spanning._first_tree(g, (threshold,), False)[0]) == first, threshold


def test_block_scan_matches_global_scan_on_bridged_atlas_graphs():
    graphs = [g for g in atlas_graphs(7) if g.bridges]
    assert len(graphs) == 418
    for g in graphs:
        assert_block_scan_matches(g, (0, None, 4, 6, g.max_degree() + 1))


@pytest.mark.parametrize(
    "g", [k4_chain(2), k4_chain(3), k4_chain(4), K4_PAIR],
    ids=["k4chain2", "k4chain3", "k4chain4", "k4pair"],
)
def test_block_scan_matches_global_scan(g):
    assert_block_scan_matches(g, (0, None, 4, 6, g.max_degree() + 1))


def test_block_scan_of_a_bridge_free_graph_is_the_global_scan():
    # the ring's 393,216 trees take seconds per full scan, so min_tree is
    # compared only where it needs none; the first qualified trees come
    # early at every threshold
    ring = k4_ring(4)
    assert ring.bridges == K4_PAIR.bridges == frozenset()
    assert list(spanning._blocks(ring)) == [ring]
    assert list(spanning._blocks(K4_PAIR)) == [K4_PAIR]
    for threshold in (0, None, 4, 6, ring.max_degree() + 1):
        first = next(qualified_trees(ring, threshold), None)
        (found,) = spanning._by_blocks(ring, (threshold,), False)
        assert (found,) == spanning._first_tree(ring, (threshold,), False) == (first,)
    for threshold in (None, 6, ring.max_degree() + 1):
        assert min_tree(ring, threshold) is None
        assert spanning._by_blocks(ring, (threshold,), True) == [None]


WALK_THRESHOLDS = (0, 3, 4, 5, 6, 8, None)


def threshold_tuples(rng):
    """Threshold tuples for one graph: every threshold in a shuffled order,
    and three draws of one to four thresholds with repeats."""
    everything = list(WALK_THRESHOLDS)
    rng.shuffle(everything)
    draws = [tuple(rng.choices(WALK_THRESHOLDS, k=rng.randint(1, 4))) for _ in range(3)]
    return [tuple(everything), *draws]


def assert_walk_matches_single_scans(g, tuples, leasts=(True, False)):
    """One walk over several thresholds returns, for each, what the scan
    with that threshold alone returns."""
    for least in leasts:
        single = {}
        for thresholds in tuples:
            for k in thresholds:
                if k not in single:
                    single[k] = spanning._first_tree(g, (k,), least)[0]
            got = spanning._first_tree(g, thresholds, least)
            assert list(got) == [single[k] for k in thresholds], (g.edges, thresholds, least)


def test_walk_matches_single_scans_on_atlas():
    rng = random.Random(31)
    for g in atlas_graphs(7):
        assert_walk_matches_single_scans(g, threshold_tuples(rng))


@pytest.mark.parametrize("name", sorted(PINNED_SCANS))
def test_walk_matches_single_scans_on_larger_graphs(name):
    # k4chain2 and k4chain3 take the block path, and a threshold the whole
    # graph settles before the gate stays out of the blocks
    g, _ = PINNED_SCANS[name]
    assert_walk_matches_single_scans(g, threshold_tuples(random.Random(name)))


def test_walk_matches_single_scans_on_the_ring():
    # a least scan at 0, 3 or 4 walks most of the ring's 393,216 trees, so
    # only first-qualified walks take those; 5, 6, 8 and None exceed every
    # degree and the Betti number 13 is odd, so they walk nothing
    ring = k4_ring(4)
    assert_walk_matches_single_scans(ring, [WALK_THRESHOLDS, (None, 0, 4, 0), (8, 3)], [False])
    assert_walk_matches_single_scans(ring, [(5, 6, 8, None), (None, 6, 6)], [True])


@pytest.mark.parametrize(
    "argv",
    [["table", "-d", "1,2,3"], ["deficiency", "-d", "4"]],
    ids=["table", "deficiency"],
)
def test_commands_walk_each_graph_once(tmp_path, monkeypatch, capsys, argv):
    # one walk per graph answers every threshold a command asks for: the
    # whole graph once, and each block once when the walk goes to the
    # blocks; each distinct returned tree is checked once
    from trace_forge import cli, decide

    walks, checked, returned = [], [], []
    trees, check = spanning.iter_spanning_trees, spanning._check_spanning_tree

    def walking(g):
        walks.append((g.vertices, g.edges))
        return trees(g)

    def counting(g, edges):
        checked.append(edges)
        check(g, edges)

    def recording(first_tree):
        def call(g, thresholds, least):
            found = first_tree(g, thresholds, least)
            returned.extend(f[1].tree_edges for f in found if f is not None)
            return found

        return call

    monkeypatch.setattr(spanning, "iter_spanning_trees", walking)
    monkeypatch.setattr(spanning, "_check_spanning_tree", counting)
    monkeypatch.setattr(cli, "_first_tree", recording(spanning._first_tree))
    monkeypatch.setattr(decide, "_first_tree", recording(spanning._first_tree))
    graphs = [k4_chain(3), K4_PAIR, grid_graph(3), *atlas_graphs(5)]
    for i, g in enumerate(graphs):
        path = tmp_path / f"{i}.edges"
        path.write_text("".join(f"{u} {v}\n" for u, v in g.edges))
        walks.clear(), checked.clear(), returned.clear()
        assert cli.main([argv[0], "-i", str(path), *argv[1:], "--json"]) == 0
        assert len(walks) == len(set(walks)), g.edges
        assert Counter(checked) == Counter(set(returned)), g.edges
    capsys.readouterr()
