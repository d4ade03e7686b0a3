"""Shared fixtures: named graphs, random generators, and small-graph sweeps."""

from __future__ import annotations

import functools
import random
from itertools import combinations, permutations
from typing import Iterable, Iterator

import networkx as nx
import pytest

from trace_forge import search
from trace_forge.graph import (
    Edge,
    Graph,
    betti_number,
    build_graph,
    complete_graph,
    cube_graph,
    cycle_graph,
    edge_key,
    fresh_vertex_ids,
    path_graph,
)
from trace_forge.spanning import (
    CotreeComponent,
    SpanningTree,
    cotree_decomposition,
    iter_spanning_trees,
    qualified_deficiency_of_tree,
    spanning_tree,
)
from trace_forge.walks import (
    DoubleTrace,
    TraceSpec,
    require_trace_host,
    validate_double_trace,
)


@pytest.fixture
def k3() -> Graph:
    return complete_graph(3)


@pytest.fixture
def k4() -> Graph:
    return complete_graph(4)


@pytest.fixture
def k5() -> Graph:
    return complete_graph(5)


@pytest.fixture
def p3() -> Graph:
    return path_graph(3)


@pytest.fixture
def c4() -> Graph:
    return cycle_graph(4)


@pytest.fixture
def q3() -> Graph:
    return cube_graph()


def fixture_family() -> dict[str, Graph]:
    return {
        "K3": complete_graph(3),
        "P3": path_graph(3),
        "C4": cycle_graph(4),
        "K4": complete_graph(4),
        "K5": complete_graph(5),
        "Q3": cube_graph(),
    }


# -- random generators ---------------------------------------------------------


def random_connected_graph(
    rng: random.Random,
    n_min: int = 3,
    n_max: int = 6,
    extra_edge_prob: float = 0.45,
    max_edges: int | None = None,
) -> Graph:
    """Random spanning tree plus a sprinkle of extra edges; always connected."""
    n = rng.randint(n_min, n_max)
    order = list(range(n))
    rng.shuffle(order)
    edges = {edge_key(order[i], order[rng.randrange(i)]) for i in range(1, n)}
    pairs = list(combinations(range(n), 2))
    rng.shuffle(pairs)
    for u, v in pairs:
        if max_edges is not None and len(edges) >= max_edges:
            break
        if rng.random() < extra_edge_prob:
            edges.add(edge_key(u, v))
    return build_graph(sorted(edges))


def find_root(parent: dict[int, int], x: int) -> int:
    """Root of x in a union-find forest, halving the path on the way up: the
    tests' own union-find, apart from the library's ``graph._components``."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def kruskal(vertices: Iterable[int], order: Iterable[Edge]) -> list[Edge]:
    """The edges of ``order`` that close no cycle with the edges kept before
    them, in that order."""
    parent = {v: v for v in vertices}
    kept = []
    for u, v in order:
        ru, rv = find_root(parent, u), find_root(parent, v)
        if ru != rv:
            parent[ru] = rv
            kept.append((u, v))
    return kept


def random_spanning_tree(g: Graph, rng: random.Random) -> SpanningTree:
    """Kruskal over a shuffled edge order."""
    edges = list(g.edges)
    rng.shuffle(edges)
    return spanning_tree(g, kruskal(g.vertices, edges))


def random_double_trace(g: Graph, rng: random.Random) -> DoubleTrace:
    """Random Euler tour of the doubled edge multiset (always exists)."""
    slots = {e: 2 for e in g.edges}
    start = rng.choice(g.vertices)
    stack = [start]
    tour: list[int] = []
    while stack:
        u = stack[-1]
        nbrs = [w for w in g.neighbors(u) if slots[edge_key(u, w)] > 0]
        if not nbrs:
            tour.append(stack.pop())
        else:
            w = rng.choice(nbrs)
            slots[edge_key(u, w)] -= 1
            stack.append(w)
    tour.reverse()
    return validate_double_trace(g, tour[:-1])


def _shuffled_neighbors(g: Graph, rng: random.Random) -> dict[int, list[int]]:
    nbrs = {v: list(g.neighbors(v)) for v in g.vertices}
    for ns in nbrs.values():
        rng.shuffle(ns)
    return nbrs


def euler_circuit(g: Graph, rng: random.Random) -> list[int]:
    """A random Euler circuit of an Eulerian graph (Hierholzer), read
    cyclically: the start is not repeated at the end."""
    unused = _shuffled_neighbors(g, rng)
    used: set[tuple[int, int]] = set()
    stack = [rng.choice(g.vertices)]
    circuit: list[int] = []
    while stack:
        u = stack[-1]
        while unused[u] and edge_key(u, unused[u][-1]) in used:
            unused[u].pop()
        if unused[u]:
            w = unused[u].pop()
            used.add(edge_key(u, w))
            stack.append(w)
        else:
            circuit.append(stack.pop())
    circuit.reverse()
    return circuit[:-1]


def retracting_dfs_tour(g: Graph, rng: random.Random) -> list[int]:
    """A depth-first walk that steps back along every edge it takes: tree
    edges on retreat, the others at once; each edge is traversed once in
    each direction, so the trace is antiparallel."""
    nbrs = _shuffled_neighbors(g, rng)
    start = rng.choice(g.vertices)
    seen, used = {start}, set()
    tour = [start]
    stack = [(start, iter(nbrs[start]))]
    while stack:
        u, pending = stack[-1]
        for w in pending:
            if edge_key(u, w) in used:
                continue
            used.add(edge_key(u, w))
            tour.append(w)
            if w in seen:
                tour.append(u)
            else:
                seen.add(w)
                stack.append((w, iter(nbrs[w])))
            break
        else:
            stack.pop()
            if stack:
                tour.append(stack[-1][0])
    return tour[:-1]


def hypercube(k: int) -> Graph:
    """The k-dimensional hypercube Q_k on vertices 0 .. 2^k - 1."""
    return build_graph(
        [(i, i | 1 << b) for i in range(1 << k) for b in range(k) if not i >> b & 1]
    )


def k4_chain(k: int) -> Graph:
    """k copies of K4 joined in a row by k - 1 bridges."""
    edges = []
    for b in range(k):
        edges += [(4 * b + i, 4 * b + j) for i in range(4) for j in range(i + 1, 4)]
        if b:
            edges.append((4 * b - 1, 4 * b))
    return build_graph(edges)


def k4_ring(k: int) -> Graph:
    """k copies of K4 joined in a ring by k single edges: no bridge."""
    edges = []
    for b in range(k):
        edges += [(4 * b + i, 4 * b + j) for i in range(4) for j in range(i + 1, 4)]
        edges.append((4 * b + 3, (4 * b + 4) % (4 * k)))
    return build_graph(edges)


def torus(k: int) -> Graph:
    """The k x k torus grid; vertex r * k + c."""
    return build_graph(
        [(r * k + c, r * k + (c + 1) % k) for r in range(k) for c in range(k)]
        + [(r * k + c, (r + 1) % k * k + c) for r in range(k) for c in range(k)]
    )


@functools.cache
def long_traces() -> dict[str, DoubleTrace]:
    """A mixed, a parallel and an antiparallel trace over Q6 (384 steps) and
    over the 12 x 12 torus (576 steps), keyed ``"<graph>-<direction>"``."""
    rng = random.Random(16)
    traces = {}
    for name, g in (("Q6", hypercube(6)), ("torus12", torus(12))):
        circuit = euler_circuit(g, rng)
        traces[f"{name}-mixed"] = random_double_trace(g, rng)
        traces[f"{name}-parallel"] = validate_double_trace(g, circuit + circuit)
        traces[f"{name}-antiparallel"] = validate_double_trace(g, retracting_dfs_tour(g, rng))
    return traces


LONG_TRACE_NAMES = [
    f"{g}-{d}" for g in ("Q6", "torus12") for d in ("mixed", "parallel", "antiparallel")
]


# -- brute-force repetition oracle ------------------------------------------------


def is_repetition(w: DoubleTrace, v: int, subset: frozenset[int]) -> bool:
    """Direct check: at every visit of v, pred in subset iff succ in subset."""
    return all((p in subset) == (s in subset) for p, s in w.visits(v))


def minimal_repetitions_brute(w: DoubleTrace, v: int) -> tuple[tuple[int, ...], ...]:
    """Inclusion-minimal non-empty repetition sets by scanning all subsets,
    each a sorted tuple, ordered by least element."""
    nbhd = w.host.neighbors(v)
    reps = [
        frozenset(sub)
        for r in range(1, len(nbhd) + 1)
        for sub in combinations(nbhd, r)
        if is_repetition(w, v, frozenset(sub))
    ]
    minimal = [s for s in reps if not any(t < s for t in reps)]
    return tuple(sorted(tuple(sorted(s)) for s in minimal))


def repetitions_brute(w: DoubleTrace) -> tuple[dict, int, bool]:
    """(minimal repetitions per vertex, stability order, strong) from the
    definitions: the order is one less than the smallest non-empty
    repetition anywhere, and strong means each vertex has only its whole
    neighborhood."""
    per_vertex = {v: minimal_repetitions_brute(w, v) for v in w.host.vertices}
    order = min(len(c) for comps in per_vertex.values() for c in comps) - 1
    strong = all(len(comps) == 1 for comps in per_vertex.values())
    return per_vertex, order, strong


# -- brute-force listings of qualified trees and of traces ------------------------


def odd_components(t: SpanningTree) -> list[CotreeComponent]:
    """The odd co-tree components of t, in ``cotree_decomposition`` order."""
    return [c for c in cotree_decomposition(t) if c.is_odd]


def split_parts(t: SpanningTree, split: SpanningTree) -> tuple[frozenset[int], ...]:
    """The halves of a split that turned t into ``split``: the neighborhoods,
    in the split host, of the two ids ``fresh_vertex_ids`` gives t's host."""
    return tuple(
        frozenset(split.host.neighbors(x)) for x in fresh_vertex_ids(t.host, 2)
    )


def qualified_trees(
    g: Graph, threshold: int | None = 0
) -> Iterator[tuple[int, SpanningTree]]:
    """``(deficiency, tree)`` for every qualified spanning tree, in the
    order of ``iter_spanning_trees``.

    A tree qualifies when each odd co-tree component has a vertex of degree
    at least ``threshold``; 0 lets every tree through and ``None`` only
    all-even co-trees.  A threshold above the maximum degree also leaves
    only all-even co-trees, and component parities sum to the Betti number,
    so an odd Betti number then yields nothing without a walk: the ring of
    four K4 blocks would take seconds per walk of its 393,216 trees.
    """
    if (threshold is None or threshold > g.max_degree()) and betti_number(g) % 2:
        return
    for t in iter_spanning_trees(g):
        value = qualified_deficiency_of_tree(t, threshold)
        if value is not None:
            yield value, t


def enumerate_traces(g: Graph, spec: TraceSpec) -> list[DoubleTrace]:
    """Every trace of the cell ``spec`` up to rotation, in sorted order, from
    one full run of the search engine; reflections count as distinct since
    direction matters.  Raises ``BudgetExhaustedError`` past
    ``search.DEFAULT_BUDGET`` nodes, read at call time."""
    require_trace_host(g)
    engine = search._Engine(g, spec, search.DEFAULT_BUDGET)
    return [DoubleTrace(g, seq) for seq in sorted(set(engine.run()))]


# -- exhaustive small-graph enumeration ------------------------------------------


def atlas_graphs(max_vertices: int) -> list[Graph]:
    """Every connected graph with an edge and at most ``max_vertices``
    vertices (<= 7) from networkx's graph atlas, one per isomorphism class."""
    return [
        build_graph(sorted(h.edges()))
        for h in nx.graph_atlas_g()
        if 0 < h.number_of_edges()
        and h.number_of_nodes() <= max_vertices
        and nx.is_connected(h)
    ]


def canonical_form(n: int, edges: frozenset[tuple[int, int]]) -> frozenset:
    """Smallest relabeling of the edge set; exact isomorphism key for tiny n."""
    best = None
    for perm in permutations(range(n)):
        relabeled = frozenset(edge_key(perm[u], perm[v]) for u, v in edges)
        key = tuple(sorted(relabeled))
        if best is None or key < best[0]:
            best = (key, relabeled)
    return best[1]
