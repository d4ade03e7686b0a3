"""Immutable simple graphs with the splitting/identification primitives.

Vertices are arbitrary non-negative integers, edges are unordered pairs of
distinct vertices.  Graph values are frozen after construction; every
operation returns a new value, so sharing across threads is safe.  Each
value numbers its vertices, edge ends and darts once, on first use: the
spanning-tree scans read ``Graph._scan_index``, and the bridge finder and
the search engine walk ``Graph._darts``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cached_property
from itertools import chain, combinations

from .errors import (
    AdjacentTargetsError,
    DegreeTooSmallError,
    DisconnectedGraphError,
    DuplicateEdgeError,
    EmptyGraphError,
    GraphTooSmallError,
    InvalidPartitionError,
    OverlappingNeighborhoodsError,
    SelfLoopError,
    UnknownVertexError,
)

Edge = tuple[int, int]


def edge_key(u: int, v: int) -> Edge:
    """Canonical unordered form of an edge: endpoints sorted ascending."""
    return (u, v) if u < v else (v, u)


def _vertex_id(x) -> int:
    """``x`` read as a vertex id.  An int is one, and so is an integer of
    another type through ``__index__`` (a numpy int); a bool, a float and a
    str are not read but rejected by name."""
    if type(x) is int:
        return x
    if isinstance(x, (bool, float, str)):
        raise ValueError(f"vertex ids must be integers, got {x!r}")
    from operator import index  # noqa: PLC0415 - only an id of another type gets here

    return index(x)


def _vertex_ids(xs: Iterable) -> tuple[int, ...]:
    """``xs`` as a tuple of vertex ids, each read as :func:`_vertex_id`
    reads it; a run of ints passes with one scan of the types."""
    xs = tuple(xs)
    if set(map(type, xs)) <= {int}:
        return xs
    return tuple(map(_vertex_id, xs))


def _components(
    nodes: Iterable[int], links: Iterable[tuple[int, int]]
) -> tuple[tuple[int, ...], ...]:
    """Connected components of the pairing given by ``links`` on ``nodes``.

    A union-find that keeps each group as a list: a link merges the smaller
    of its endpoints' groups into the larger, so a node moves O(log |nodes|)
    times.  Then the nodes are bucketed by group in their given order: each
    component is the tuple of its nodes in that order, and components come
    in the order of their first node.  So sorted ``nodes`` give sorted
    tuples, ordered by least element.  When the first node's group holds
    every node, the one component is the nodes as given, unbucketed.  A
    link outside ``nodes`` raises ``KeyError``.
    """
    group = {x: [x] for x in nodes}
    for a, b in links:
        ga, gb = group[a], group[b]
        if ga is not gb:
            if len(ga) < len(gb):
                ga, gb = gb, ga
            ga += gb
            for x in gb:
                group[x] = ga
    if group and len(next(iter(group.values()))) == len(group):
        return (tuple(group),)
    buckets: dict[int, list[int]] = {}
    for x, grp in group.items():
        buckets.setdefault(id(grp), []).append(x)
    return tuple(map(tuple, buckets.values()))


class _Value:
    """A value equal to one of its own class with the same ``_key()``; unhashable."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()


class _Frozen(_Value):
    """A value hashed by its ``_key()``; constructors write the instance dict."""

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Graph(_Frozen):
    """A finite simple undirected graph.

    ``vertices`` is sorted and ``edges`` holds canonical ``(u, v)`` pairs with
    ``u < v``, sorted; two graphs compare equal iff they have the same vertex
    and edge sets.
    """

    def __init__(self, vertices: tuple[int, ...], edges: tuple[Edge, ...]):
        self.__dict__.update(vertices=vertices, edges=edges)

    def _key(self):
        return self.vertices, self.edges

    @cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        """Each vertex's neighbours, ascending: the sorted edges meet each
        vertex's lower neighbours first, then its higher ones in order."""
        nbrs: dict[int, list[int]] = {v: [] for v in self.vertices}
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return {v: tuple(ns) for v, ns in nbrs.items()}

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    @cached_property
    def connected(self) -> bool:
        """True iff the graph has exactly one component, found by one
        traversal from the least vertex per graph value; see
        :func:`is_connected`."""
        if not self.vertices:
            raise EmptyGraphError("connectivity of the empty graph is undefined")
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            for w in self.adjacency[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.num_vertices

    @cached_property
    def _scan_index(
        self,
    ) -> tuple[dict[int, int], dict[Edge, tuple[int, int]], list[int]]:
        """Each vertex's position, each edge's ends as positions in edge
        order, and degrees by position: the index spanning-tree scans work
        on, built once per graph value."""
        position = {v: i for i, v in enumerate(self.vertices)}
        ends = {e: (position[e[0]], position[e[1]]) for e in self.edges}
        return position, ends, [len(self.adjacency[v]) for v in self.vertices]

    @cached_property
    def _darts(self) -> tuple[tuple[tuple[int, int, int, int], ...], ...]:
        """Row ``c`` holds ``(w, i, back, pos)`` for each dart (edge end, read
        as its edge leaving ``c``) by ascending ``w``: edge ``i`` joins ``c``
        and ``w``, ``pos`` is the dart's place in row ``c`` and ``back`` its
        twin's in row ``w``.  Built once per graph value in one pass over the
        sorted edges, which meets each vertex's lower neighbours first."""
        rows: list[list[tuple[int, int, int, int]]] = [[] for _ in self.vertices]
        for i, (a, b) in enumerate(self._scan_index[1].values()):
            ra, rb = rows[a], rows[b]
            pa, pb = len(ra), len(rb)
            ra.append((b, i, pb, pa))
            rb.append((a, i, pa, pb))
        return tuple(map(tuple, rows))

    @cached_property
    def bridges(self) -> frozenset[Edge]:
        """The edges on no cycle, found once per graph value by one Tarjan
        pass over the rows of :attr:`_darts`, kept on an explicit stack."""
        darts = self._darts
        n = self.num_vertices
        found = [0] * n  # discovery time, 0 while unvisited
        low = [0] * n  # least discovery time reached through one back edge
        clock = 0
        bridges = []
        for root in range(n):
            if found[root]:
                continue
            clock += 1
            found[root] = low[root] = clock
            stack = [(root, -1, iter(darts[root]))]
            while stack:
                v, via, pending = stack[-1]
                for w, i, _, _ in pending:
                    if found[w]:
                        if i != via and found[w] < low[v]:
                            low[v] = found[w]
                        continue
                    clock += 1
                    found[w] = low[w] = clock
                    stack.append((w, i, iter(darts[w])))
                    break
                else:
                    stack.pop()
                    if stack:
                        u = stack[-1][0]
                        if low[v] < low[u]:
                            low[u] = low[v]
                        if low[v] > found[u]:
                            bridges.append(self.edges[via])
        return frozenset(bridges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        if v not in self.adjacency:
            raise UnknownVertexError(f"vertex {v} not in graph")
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self.edge_set

    def min_degree(self) -> int:
        return min(map(len, self.adjacency.values()))

    def max_degree(self) -> int:
        return max(map(len, self.adjacency.values()))

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph({self.num_vertices} vertices, {self.num_edges} edges)"


class SplitSpec(_Frozen):
    """An ordered partition of one vertex's neighborhood, used by split_vertex."""

    def __init__(self, vertex: int, parts: tuple[frozenset[int], ...]):
        self.__dict__.update(vertex=vertex, parts=parts)
        if len(parts) < 2:
            raise InvalidPartitionError("a split needs at least 2 parts")
        if any(not part for part in parts):
            raise InvalidPartitionError("split parts must be non-empty")
        seen: set[int] = set()
        for part in parts:
            if seen & part:
                raise InvalidPartitionError("split parts must be pairwise disjoint")
            seen |= part

    def _key(self):
        return self.vertex, self.parts

    def __repr__(self) -> str:
        return "SplitSpec(vertex=%r, parts=%r)" % self._key()


def make_graph(vertices: Iterable[int], edges: Iterable[Edge]) -> Graph:
    """Internal constructor: canonicalize already-validated data."""
    return Graph(tuple(sorted(set(vertices))), tuple(sorted(set(edges))))


def build_graph(
    edge_list: Sequence[tuple[int, int]],
    isolated_vertices: Iterable[int] = (),
) -> Graph:
    """Build and validate a graph from a list of vertex-id pairs.

    The vertex set is the union of the endpoints plus any explicitly declared
    isolated vertices.  Rejects self-loops, repeated edges and ids that are
    no integers.
    """
    edges: set[Edge] = set()
    for u, v in edge_list:
        u, v = _vertex_id(u), _vertex_id(v)
        if u < 0 or v < 0:
            raise UnknownVertexError("vertex ids must be non-negative")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        key = edge_key(u, v)
        if key in edges:
            raise DuplicateEdgeError(f"edge {key} given more than once")
        edges.add(key)
    # the loop above checked every endpoint; the edges are distinct already
    isolated = set(map(_vertex_id, isolated_vertices))
    if any(w < 0 for w in isolated):
        raise UnknownVertexError("vertex ids must be non-negative")
    vertices = isolated.union(chain.from_iterable(edges))
    return Graph(tuple(sorted(vertices)), tuple(sorted(edges)))


def is_connected(g: Graph) -> bool:
    """True iff the graph has exactly one component (single vertex counts).

    The answer is computed once per graph value and kept on it; the empty
    graph raises :class:`EmptyGraphError`.
    """
    return g.connected


def require_connected(g: Graph) -> None:
    if not is_connected(g):
        raise DisconnectedGraphError("operation requires a connected graph")


def betti_number(g: Graph) -> int:
    """Cycle rank |E| - |V| + 1; equals the co-tree size of any spanning tree."""
    require_connected(g)
    return g.num_edges - g.num_vertices + 1


def edge_connectivity(g: Graph) -> int:
    """Size of a minimum edge cut, computed exactly."""
    if g.num_vertices < 2:
        raise GraphTooSmallError("edge connectivity needs at least 2 vertices")
    require_connected(g)
    import networkx as nx  # noqa: PLC0415 - imported on use, it is slow to load

    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(g.edges)
    return nx.edge_connectivity(h)


def fresh_vertex_ids(g: Graph, count: int) -> tuple[int, ...]:
    """Deterministic fresh ids: max existing id + 1, + 2, ..."""
    base = max(g.vertices) + 1
    return tuple(base + i for i in range(count))


def split_vertex(g: Graph, spec: SplitSpec) -> Graph:
    """Replace ``spec.vertex`` by one new vertex per part of its neighborhood.

    The new vertices are mutually non-adjacent and the i-th one is adjacent to
    exactly the i-th part; ids follow :func:`fresh_vertex_ids` order.  Edge
    count is preserved.  The result may be disconnected; callers that need
    connectivity must check it themselves.
    """
    v = spec.vertex
    if v not in g.adjacency:
        raise UnknownVertexError(f"vertex {v} not in graph")
    nbhd = set(g.neighbors(v))
    if len(nbhd) < 2:
        raise DegreeTooSmallError(f"vertex {v} has degree {len(nbhd)} < 2")
    if set().union(*spec.parts) != nbhd:
        raise InvalidPartitionError("parts must cover exactly the neighborhood")
    new_ids = fresh_vertex_ids(g, len(spec.parts))
    edges = [e for e in g.edges if v not in e]
    for vid, part in zip(new_ids, spec.parts):
        edges.extend(edge_key(vid, w) for w in part)
    vertices = [w for w in g.vertices if w != v]
    vertices.extend(new_ids)
    return make_graph(vertices, edges)


def identify_vertices(g: Graph, targets: Iterable[int], new_id: int) -> Graph:
    """Merge vertices with pairwise disjoint neighborhoods into one vertex.

    Inverse of :func:`split_vertex`: all targets are replaced by ``new_id``,
    adjacent to the union of their neighborhoods.  Edge count is preserved.
    """
    targets = sorted(set(targets))
    if len(targets) < 2:
        raise InvalidPartitionError("need at least 2 vertices to identify")
    for t in targets:
        if t not in g.adjacency:
            raise UnknownVertexError(f"vertex {t} not in graph")
    for a, b in combinations(targets, 2):
        if g.has_edge(a, b):
            raise AdjacentTargetsError(f"targets {a} and {b} are adjacent")
        if set(g.neighbors(a)) & set(g.neighbors(b)):
            raise OverlappingNeighborhoodsError(
                f"targets {a} and {b} share a neighbor"
            )
    target_set = set(targets)
    new_id = _vertex_id(new_id)
    if new_id < 0:
        raise UnknownVertexError("vertex ids must be non-negative")
    if new_id in g.adjacency and new_id not in target_set:
        raise InvalidPartitionError(f"new id {new_id} collides with an existing vertex")
    edges = []
    for u, v in g.edges:
        u2 = new_id if u in target_set else u
        v2 = new_id if v in target_set else v
        edges.append(edge_key(u2, v2))
    vertices = [w for w in g.vertices if w not in target_set]
    vertices.append(new_id)
    return make_graph(vertices, edges)


# -- small graph families (used by demos and fixtures) ------------------------

def complete_graph(n: int) -> Graph:
    return build_graph([(i, j) for i, j in combinations(range(n), 2)])


def cycle_graph(n: int) -> Graph:
    return build_graph([(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return build_graph([(i, i + 1) for i in range(n - 1)])


def cube_graph() -> Graph:
    """The 3-dimensional hypercube on vertices 0..7 (bit-flip adjacency)."""
    return build_graph(
        [(i, i ^ (1 << b)) for i in range(8) for b in range(3) if i < i ^ (1 << b)]
    )
