"""Spanning trees, co-tree components, and deficiency.

The co-tree of a spanning tree T is the edge complement G - E(T); its
connected components are classified odd or even by edge count.  The
deficiency of T counts its odd components, the deficiency of G is the
minimum over all spanning trees, and the qualified variant restricts the
minimum to trees whose every odd component contains a vertex meeting a
degree threshold.  All searches enumerate spanning trees exhaustively,
which is exact at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .errors import (
    NotQualifiedError,
    NotSpanningTreeError,
    VertexNotInCoTreeError,
)
from .graph import Edge, Graph, require_connected


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

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
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
    edge_count: int
    parity: int  # edge_count mod 2; 1 means odd
    witness_vertex: int  # maximum host degree, smallest id on ties

    @property
    def is_odd(self) -> bool:
        return self.parity == 1


@dataclass(frozen=True)
class CoTreeDecomposition:
    tree: SpanningTree
    components: tuple[CotreeComponent, ...]

    def odd_components(self) -> tuple[CotreeComponent, ...]:
        return tuple(c for c in self.components if c.is_odd)


@dataclass(frozen=True)
class DeficiencyCertificate:
    """A deficiency value with the spanning tree that realizes it.

    When ``qualified_bound`` is set, every odd component of the witness
    co-tree contains a vertex of host degree at least that bound.
    """

    value: int
    witness_tree: SpanningTree
    qualified_bound: int | None = None


@dataclass(frozen=True)
class LocalSplit:
    """Parity split of one co-tree component around a vertex.

    The parts are the components obtained from v's co-tree component when v
    is replaced by one fresh endpoint per incident co-tree edge; each part is
    recorded as its original edge set.
    """

    vertex: int
    odd_parts: tuple[frozenset[Edge], ...]
    even_parts: tuple[frozenset[Edge], ...]


def _edge_components(edges: set[Edge]) -> list[set[Edge]]:
    """Connected components of an edge-induced subgraph, as edge sets."""
    by_vertex: dict[int, list[Edge]] = {}
    for e in edges:
        for x in e:
            by_vertex.setdefault(x, []).append(e)
    seen: set[Edge] = set()
    components = []
    for start in sorted(edges):
        if start in seen:
            continue
        comp = {start}
        seen.add(start)
        stack = [start]
        while stack:
            u, v = stack.pop()
            for x in (u, v):
                for e in by_vertex[x]:
                    if e not in seen:
                        seen.add(e)
                        comp.add(e)
                        stack.append(e)
        components.append(comp)
    return components


def _witness_vertex(g: Graph, vertices: frozenset[int]) -> int:
    return min(vertices, key=lambda v: (-g.degree(v), v))


def cotree_decomposition(g: Graph, t: SpanningTree) -> CoTreeDecomposition:
    """Components of the co-tree with parities and degree witnesses."""
    if t.host != g:
        raise NotSpanningTreeError("tree does not span this graph")
    components = []
    for comp in _edge_components(set(t.cotree_edges)):
        verts = frozenset(x for e in comp for x in e)
        components.append(
            CotreeComponent(
                edges=frozenset(comp),
                vertices=verts,
                edge_count=len(comp),
                parity=len(comp) % 2,
                witness_vertex=_witness_vertex(g, verts),
            )
        )
    components.sort(key=lambda c: min(c.edges))
    return CoTreeDecomposition(tree=t, components=tuple(components))


def deficiency_of_tree(g: Graph, t: SpanningTree) -> int:
    """Number of odd co-tree components of t."""
    return len(cotree_decomposition(g, t).odd_components())


def tree_is_qualified(g: Graph, t: SpanningTree, threshold: int | None) -> bool:
    """True when every odd co-tree component clears the degree threshold.

    ``threshold=None`` demands that there are no odd components at all.
    """
    for comp in cotree_decomposition(g, t).odd_components():
        if threshold is None or g.degree(comp.witness_vertex) < threshold:
            return False
    return True


def iter_spanning_trees(g: Graph) -> Iterator[SpanningTree]:
    """All spanning trees in deterministic (edge-lexicographic) order.

    Brute force over (|V|-1)-subsets with a union-find acyclicity check;
    fine at desk scale.
    """
    require_connected(g)
    k = g.num_vertices - 1
    for subset in combinations(g.edges, k):
        parent = {v: v for v in g.vertices}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for u, v in subset:
            ru, rv = find(u), find(v)
            if ru == rv:
                ok = False
                break
            parent[ru] = rv
        if ok:
            yield SpanningTree(g, frozenset(subset))


def graph_deficiency(g: Graph) -> DeficiencyCertificate:
    """Minimum tree deficiency with a witness tree, by exhaustive enumeration.

    Stops early once the parity lower bound (Betti number mod 2) is reached.
    """
    require_connected(g)
    lower = (g.num_edges - g.num_vertices + 1) % 2
    best: tuple[int, SpanningTree] | None = None
    for t in iter_spanning_trees(g):
        value = deficiency_of_tree(g, t)
        if best is None or value < best[0]:
            best = (value, t)
            if value == lower:
                break
    assert best is not None
    return DeficiencyCertificate(value=best[0], witness_tree=best[1])


def qualified_deficiency(
    g: Graph, threshold: int, t: SpanningTree | None = None
) -> DeficiencyCertificate | None:
    """Deficiency restricted to trees whose odd components clear ``threshold``.

    With ``t`` given, validates the qualification and returns its value;
    otherwise minimizes over all qualified spanning trees and returns
    ``None`` when no tree qualifies.
    """
    require_connected(g)
    if t is not None:
        if t.host != g:
            raise NotSpanningTreeError("tree does not span this graph")
        if not tree_is_qualified(g, t, threshold):
            raise NotQualifiedError(
                f"an odd co-tree component has no vertex of degree >= {threshold}"
            )
        return DeficiencyCertificate(
            value=deficiency_of_tree(g, t),
            witness_tree=t,
            qualified_bound=threshold,
        )
    if g.max_degree() < threshold:
        # no vertex can cover an odd component, so a qualified tree has an
        # all-even co-tree; the first such tree is the one the loop would pick
        even = find_even_cotree_tree(g)
        if even is None:
            return None
        return DeficiencyCertificate(
            value=0, witness_tree=even, qualified_bound=threshold
        )
    lower = (g.num_edges - g.num_vertices + 1) % 2
    best: tuple[int, SpanningTree] | None = None
    for tree in iter_spanning_trees(g):
        if not tree_is_qualified(g, tree, threshold):
            continue
        value = deficiency_of_tree(g, tree)
        if best is None or value < best[0]:
            best = (value, tree)
            if value == lower:
                break
    if best is None:
        return None
    return DeficiencyCertificate(
        value=best[0], witness_tree=best[1], qualified_bound=threshold
    )


def local_odd_even_split(g: Graph, t: SpanningTree, v: int) -> LocalSplit:
    """Split v's co-tree component into its post-detachment parts by parity.

    Replacing v with one fresh endpoint per incident co-tree edge leaves one
    part per component of C - v, carrying that component's edges plus the
    v-edges attached to it.
    """
    decomposition = cotree_decomposition(g, t)
    home = None
    for comp in decomposition.components:
        if v in comp.vertices:
            home = comp
            break
    if home is None:
        raise VertexNotInCoTreeError(f"vertex {v} has no co-tree edge")
    v_edges = [e for e in home.edges if v in e]
    rest = {e for e in home.edges if v not in e}
    rest_components = _edge_components(rest)
    # each pendant co-tree edge at v whose far end touches no other edge of C
    # forms its own one-edge part
    parts: list[set[Edge]] = []
    attached: set[Edge] = set()
    for comp in rest_components:
        verts = {x for e in comp for x in e}
        part = set(comp)
        for e in v_edges:
            far = e[0] if e[1] == v else e[1]
            if far in verts:
                part.add(e)
                attached.add(e)
        parts.append(part)
    for e in v_edges:
        if e not in attached:
            parts.append({e})
    odd = tuple(
        frozenset(p) for p in sorted(parts, key=min) if len(p) % 2 == 1
    )
    even = tuple(
        frozenset(p) for p in sorted(parts, key=min) if len(p) % 2 == 0
    )
    return LocalSplit(vertex=v, odd_parts=odd, even_parts=even)


def find_even_cotree_tree(g: Graph) -> SpanningTree | None:
    """First spanning tree whose co-tree components are all even, if any.

    Component parities sum to the Betti number, so an odd Betti number rules
    such a tree out without enumeration.
    """
    require_connected(g)
    if (g.num_edges - g.num_vertices + 1) % 2 == 1:
        return None
    for t in iter_spanning_trees(g):
        if deficiency_of_tree(g, t) == 0:
            return t
    return None


def find_qualified_tree(g: Graph, threshold: int) -> SpanningTree | None:
    """First spanning tree whose odd co-tree components all clear ``threshold``."""
    require_connected(g)
    if g.max_degree() < threshold:
        # no vertex can cover an odd component, so all components must be even
        return find_even_cotree_tree(g)
    for t in iter_spanning_trees(g):
        if tree_is_qualified(g, t, threshold):
            return t
    return None
