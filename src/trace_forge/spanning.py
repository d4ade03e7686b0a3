"""Spanning trees, co-tree components, and deficiency.

The co-tree of a spanning tree T is the edge complement G - E(T); its
connected components, found by one pass of the package's union-find
(``graph._find_root``), are classified odd or even by edge count.  The
deficiency of T counts its odd components, the deficiency of G is the
minimum over all spanning trees, and the qualified variant restricts the
minimum to trees whose every odd component contains a vertex meeting a
degree threshold.  One scan serves every question: ``qualified_trees``
yields the qualified trees with their deficiencies in enumeration order and
``min_tree`` takes the first of least deficiency.

``iter_spanning_trees`` yields every spanning tree in the order
``itertools.combinations`` lists their edge sets, by a pruned depth-first
search over edge indices instead of a scan of all C(|E|, |V| - 1) subsets.
A full scan of a graph with many trees is still exponential and has no
budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import NotSpanningTreeError
from .graph import Edge, Graph, _find_root, betti_number, require_connected


@dataclass(frozen=True)
class SpanningTree:
    """A validated spanning tree of ``host`` given by its edge subset."""

    host: Graph
    tree_edges: frozenset[Edge]

    def __post_init__(self):
        _check_spanning_tree(self.host, self.tree_edges)

    @property
    def cotree_edges(self) -> frozenset[Edge]:
        return self.host.edge_set - self.tree_edges

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.tree_edges)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpanningTree({sorted(self.tree_edges)})"


def _check_spanning_tree(g: Graph, edges: frozenset[Edge]) -> None:
    if not edges <= g.edge_set:
        raise NotSpanningTreeError("tree edges must belong to the host")
    if len(edges) != g.num_vertices - 1:
        raise NotSpanningTreeError(
            f"{len(edges)} edges cannot span {g.num_vertices} vertices"
        )
    parent = {v: v for v in g.vertices}
    for u, v in edges:
        ru, rv = _find_root(parent, u), _find_root(parent, v)
        if ru == rv:
            raise NotSpanningTreeError("tree edges contain a cycle")
        parent[ru] = rv
    # n-1 acyclic edges on n vertices are automatically spanning and connected


def spanning_tree(g: Graph, edges) -> SpanningTree:
    """Factory accepting any iterable of edge pairs."""
    return SpanningTree(g, frozenset((min(e), max(e)) for e in edges))


@dataclass(frozen=True)
class CotreeComponent:
    """One connected component of the co-tree, as an edge-induced subgraph."""

    edges: frozenset[Edge]
    vertices: frozenset[int]
    witness_vertex: int  # maximum host degree, smallest id on ties

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def parity(self) -> int:
        """edge_count mod 2; 1 means odd."""
        return len(self.edges) % 2

    @property
    def is_odd(self) -> bool:
        return self.parity == 1


@dataclass(frozen=True)
class CoTreeDecomposition:
    tree: SpanningTree
    components: tuple[CotreeComponent, ...]

    def odd_components(self) -> tuple[CotreeComponent, ...]:
        return tuple(c for c in self.components if c.is_odd)

    def qualified_deficiency(self, threshold: int | None) -> int | None:
        """Number of odd components when each has a vertex of host degree at
        least ``threshold``, else None; ``None`` lets no odd component
        through."""
        host = self.tree.host
        odd = self.odd_components()
        for comp in odd:
            if threshold is None or host.degree(comp.witness_vertex) < threshold:
                return None
        return len(odd)


@dataclass(frozen=True)
class DeficiencyCertificate:
    """A deficiency value with the spanning tree that realizes it."""

    value: int
    witness_tree: SpanningTree


def _witness_vertex(g: Graph, vertices: frozenset[int]) -> int:
    return min(vertices, key=lambda v: (-g.degree(v), v))


def cotree_decomposition(g: Graph, t: SpanningTree) -> CoTreeDecomposition:
    """Components of the co-tree with parities and degree witnesses.

    One union-find pass over the sorted co-tree edges, then the edges are
    grouped by root in the order each root is first met, which is the order
    of the components' least edges.
    """
    if t.host != g:
        raise NotSpanningTreeError("tree does not span this graph")
    cotree = sorted(t.cotree_edges)
    parent = {x: x for e in cotree for x in e}
    for u, v in cotree:
        ru, rv = _find_root(parent, u), _find_root(parent, v)
        if ru != rv:
            parent[ru] = rv
    groups: dict[int, list[Edge]] = {}
    for e in cotree:
        groups.setdefault(_find_root(parent, e[0]), []).append(e)
    components = []
    for edges in groups.values():
        verts = frozenset(x for e in edges for x in e)
        components.append(
            CotreeComponent(
                edges=frozenset(edges),
                vertices=verts,
                witness_vertex=_witness_vertex(g, verts),
            )
        )
    return CoTreeDecomposition(tree=t, components=tuple(components))


def deficiency_of_tree(g: Graph, t: SpanningTree) -> int:
    """Number of odd co-tree components of t."""
    return len(cotree_decomposition(g, t).odd_components())


def tree_is_qualified(g: Graph, t: SpanningTree, threshold: int | None) -> bool:
    """True when every odd co-tree component clears the degree threshold.

    ``threshold=None`` demands that there are no odd components at all.
    """
    return cotree_decomposition(g, t).qualified_deficiency(threshold) is not None


def iter_spanning_trees(g: Graph) -> Iterator[SpanningTree]:
    """All spanning trees in edge-lexicographic order.

    The trees come in the order ``itertools.combinations(g.edges, |V| - 1)``
    lists their edge sets: a depth-first search over edge indices takes
    each edge before leaving it out.  An edge that closes a cycle with the
    edges taken so far is left out at once, and a prefix is dropped as soon
    as too few edges remain to finish a tree, so the search visits forests,
    never the cyclic subsets.  Acyclicity is kept by a union-find with
    union by size and no path compression, undone edge by edge on
    backtracking.
    """
    require_connected(g)
    index = {v: i for i, v in enumerate(g.vertices)}
    ends = [(index[u], index[v]) for u, v in g.edges]
    m, k = len(ends), g.num_vertices - 1
    parent = list(range(g.num_vertices))
    size = [1] * g.num_vertices
    chosen: list[int] = []  # edge indices of the current forest, increasing
    attached: list[int] = []  # the root each chosen edge hung below another
    i = 0
    while True:
        if len(chosen) == k:
            yield SpanningTree(g, frozenset(g.edges[j] for j in chosen))
        elif m - i >= k - len(chosen):
            a, b = ends[i]
            while parent[a] != a:
                a = parent[a]
            while parent[b] != b:
                b = parent[b]
            if a != b:
                if size[a] > size[b]:
                    a, b = b, a
                parent[a] = b
                size[b] += size[a]
                chosen.append(i)
                attached.append(a)
            i += 1
            continue
        if not chosen:
            return
        a = attached.pop()
        size[parent[a]] -= size[a]
        parent[a] = a
        i = chosen.pop() + 1


def qualified_trees(
    g: Graph, threshold: int | None = 0
) -> Iterator[tuple[int, SpanningTree]]:
    """``(deficiency, tree)`` for every qualified spanning tree, in
    enumeration order.

    A tree qualifies when each odd co-tree component has a vertex of degree
    at least ``threshold``; 0 lets every tree through and ``None`` only
    all-even co-trees.  A threshold above the maximum degree also leaves
    only all-even co-trees, and since component parities sum to the Betti
    number, an odd Betti number then rules out every tree unenumerated.
    """
    betti = betti_number(g)  # rejects a disconnected graph before the shortcut
    if threshold is None or threshold > g.max_degree():
        if betti % 2 == 1:
            return
        threshold = None
    for t in iter_spanning_trees(g):
        value = cotree_decomposition(g, t).qualified_deficiency(threshold)
        if value is not None:
            yield value, t


def min_tree(g: Graph, threshold: int | None = 0) -> DeficiencyCertificate | None:
    """The first qualified tree of least deficiency, or None when no tree
    qualifies (see :func:`qualified_trees` for ``threshold``).

    ``min_tree(g)`` is the deficiency of g.  Every tree's deficiency has
    the parity of the Betti number, so the scan stops at the first tree of
    deficiency 0 or 1: none can be lower.
    """
    best: tuple[int, SpanningTree] | None = None
    for value, tree in qualified_trees(g, threshold):
        if best is None or value < best[0]:
            best = (value, tree)
            if value <= 1:
                break
    if best is None:
        return None
    return DeficiencyCertificate(value=best[0], witness_tree=best[1])
