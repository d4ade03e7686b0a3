"""Spanning trees, co-tree components, and deficiency.

The co-tree of a spanning tree T is the edge complement G - E(T); its
connected components are classified odd or even by edge count.  The
deficiency of T counts its odd components, the deficiency of G is the
minimum over all spanning trees, and the qualified variant restricts the
minimum to trees whose every odd component contains a vertex meeting a
degree threshold.

One depth-first search, ``iter_spanning_trees``, lists the spanning trees
in the order ``itertools.combinations`` lists their edge sets, without a
scan of all C(|E|, |V| - 1) subsets; the trees it builds are not checked
again.  One index scorer, ``_score``, reads two numbers from a union-find
pass over a tree's co-tree on vertex positions: the count of odd
components and the least top degree among them, from which a tree's
qualified deficiency at any threshold follows; every score in the package,
``qualified_deficiency_of_tree`` included, comes from it.  The positions,
edge ends and degrees are kept on the graph (``Graph._scan_index``; its
edge ends also number ``Graph._darts``).  One scan driver, ``_pick``,
scores the trees of the search in order for several thresholds at once and
stops when each has its answer; ``min_tree``, the deficiency command (the
plain and the qualified minimum) and the antiparallel cells of the
decision and of the condition table run it through ``_first_tree``, one
walk per call, answer with the same ``(value, tree)`` pair and check again
only the trees they return.
``cotree_decomposition`` returns the components themselves, as a tuple.  A
:class:`SpanningTree` carries its host, so the functions on a given tree
take the tree alone.

The block rule: a bridge lies in every spanning tree and no co-tree
component crosses one, so a tree's value is the sum of its values on the
bridge-free blocks, scored with the host's degrees, and the first tree of
least value (or the first qualified tree) is the union of the bridges and
each block's own.  ``_pick`` walks the whole graph first; once |E| trees
have passed without an answer it looks for bridges (``Graph.bridges``, one
pass without recursion) and, if there are any, walks each block on its own
itself: the sum of the blocks' tree counts instead of their product.  The
chain of four K4 blocks joined by three bridges walks at most 27 + 4 x 16
trees per scan instead of 65,536.  A bridge-free graph with many trees
still gets an exhaustive scan with no budget: the ring of four K4 blocks
joined by four single edges has 393,216 trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import NotSpanningTreeError
from .graph import Edge, Graph, _components, betti_number, require_connected


@dataclass(frozen=True)
class SpanningTree:
    """A spanning tree of ``host`` given by its edge subset, checked when
    constructed; the trees of :func:`iter_spanning_trees` skip the check."""

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
    # n - 1 edges on n vertices are acyclic exactly when they connect them
    if len(_components(g.vertices, edges)) != 1:
        raise NotSpanningTreeError("tree edges contain a cycle")


def spanning_tree(g: Graph, edges) -> SpanningTree:
    """Factory accepting any iterable of edge pairs."""
    return SpanningTree(g, frozenset((min(e), max(e)) for e in edges))


@dataclass(frozen=True)
class CotreeComponent:
    """One connected component of the co-tree, as an edge-induced subgraph."""

    edges: frozenset[Edge]
    vertices: frozenset[int]

    @property
    def is_odd(self) -> bool:
        return len(self.edges) % 2 == 1


def _edge_groups(edges: list[Edge]) -> Iterable[list[Edge]]:
    """``edges`` grouped by the connected components they form, in the
    order each component is first met, each group in the given order."""
    components = _components({x for e in edges for x in e}, edges)
    owner = {x: i for i, comp in enumerate(components) for x in comp}
    groups: dict[int, list[Edge]] = {}
    for e in edges:
        groups.setdefault(owner[e[0]], []).append(e)
    return groups.values()


def cotree_decomposition(t: SpanningTree) -> tuple[CotreeComponent, ...]:
    """Components of the co-tree in the order of their least edges: the
    sorted co-tree edges grouped by :func:`_edge_groups`."""
    return tuple(
        CotreeComponent(frozenset(edges), frozenset(x for e in edges for x in e))
        for edges in _edge_groups(sorted(t.cotree_edges))
    )


def _score(
    ends: dict[Edge, tuple[int, int]], degrees: list[int], cotree: Iterable[Edge]
) -> tuple[int, int]:
    """The number of odd components of the co-tree ``cotree``, and the least
    over them of the largest host degree in each (0 when there is none).

    One union-find pass over vertex positions keeps, for each root, the
    parity of its component's edge count and the largest host degree in it;
    then the odd roots are read.  The qualified deficiency at a threshold
    is the count when there is no odd component or the least of those
    degrees meets the threshold (None admits no odd component), else None.
    """
    parent = list(range(len(degrees)))
    odd = [False] * len(degrees)
    top = degrees[:]
    for e in cotree:
        a, b = ends[e]
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a == b:
            odd[a] = not odd[a]
        else:
            parent[b] = a
            odd[a] = odd[a] is odd[b]  # the joining edge flips the sum's parity
            if top[b] > top[a]:
                top[a] = top[b]
    count = least = 0
    for r, p in enumerate(parent):
        if p == r and odd[r]:
            if not count or top[r] < least:
                least = top[r]
            count += 1
    return count, least


def _check_threshold(threshold: int | None) -> None:
    if threshold is None:
        return
    # an exact type test: bool is an int subclass, and True is no degree
    if type(threshold) is not int:
        raise ValueError(f"degree threshold must be an integer or None, got {threshold!r}")
    if threshold < 0:
        raise ValueError(f"degree threshold must be non-negative, got {threshold}")


def qualified_deficiency_of_tree(t: SpanningTree, threshold: int | None) -> int | None:
    """Number of odd co-tree components of t when each has a vertex of host
    degree at least ``threshold``, else None.  ``None`` admits no odd
    component, 0 admits every one (the plain deficiency of t), and a
    threshold that is not an int or None, or is negative, raises
    ``ValueError``."""
    _check_threshold(threshold)
    _, ends, degrees = t.host._scan_index
    count, least_top = _score(ends, degrees, t.cotree_edges)
    if count and (threshold is None or least_top < threshold):
        return None
    return count


def _searched_tree(g: Graph, edges: frozenset[Edge]) -> SpanningTree:
    """A :class:`SpanningTree` the search below has already proved, built
    without running the check again."""
    t = object.__new__(SpanningTree)
    object.__setattr__(t, "host", g)
    object.__setattr__(t, "tree_edges", edges)
    return t


def iter_spanning_trees(g: Graph) -> Iterator[SpanningTree]:
    """All spanning trees in edge-lexicographic order: the order
    ``itertools.combinations(g.edges, |V| - 1)`` lists their edge sets.

    A depth-first search over edge indices takes each edge before leaving
    it out.  An edge that closes a cycle with the edges taken so far is left
    out at once, and a prefix is dropped as soon as too few edges remain to
    finish a tree, so the search visits forests, never the cyclic subsets.
    Acyclicity is kept by a union-find with union by size and no path
    compression, undone edge by edge on backtracking.  Every yielded tree is
    |V| - 1 edges that never closed a cycle, so it is not checked again.
    """
    require_connected(g)
    edges = g.edges
    ends = list(g._scan_index[1].values())
    n = g.num_vertices
    k = n - 1
    slack = len(ends) - k  # edges that may be left out
    parent = list(range(n))
    size = [1] * n
    chosen: list[int] = []  # edge indices of the current forest, increasing
    attached: list[int] = []  # the root each chosen edge hung below another
    taken = i = 0  # len(chosen), and the next edge to decide
    while True:
        if taken == k:
            yield _searched_tree(g, frozenset(map(edges.__getitem__, chosen)))
        elif i - taken <= slack:
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
                taken += 1
            i += 1
            continue
        if not taken:
            return
        a = attached.pop()
        size[parent[a]] -= size[a]
        parent[a] = a
        i = chosen.pop() + 1
        taken -= 1


def _pick(
    g: Graph, degrees: list[int], thresholds: Sequence[int | None], least: bool
) -> list:
    """For each of ``thresholds``, the first qualified ``(value, tree)`` of
    least value, or the first qualified one when not ``least``, over the
    trees of :func:`iter_spanning_trees`; None when no tree qualifies.  One
    walk answers them all.

    Each tree is scored once by :func:`_score` with ``degrees`` by vertex
    position, and each threshold still open reads its value from the score;
    the walked trees are not checked again.  A threshold above every degree
    admits no odd component, so it shares the answer of None, and
    component parities sum to the Betti number, so an odd Betti number
    then rules out every tree unwalked.  Every tree's value has the parity
    of the Betti number, so a value of 0 or 1 closes a threshold: none can
    be lower.  The walk ends once every threshold is closed.  Once |E|
    trees have passed and g has a bridge, the thresholds still open are
    answered block by block (:func:`_by_blocks`); a block has no bridge,
    so its own walk never hands off.
    """
    betti = betti_number(g)  # rejects a disconnected graph before the shortcut
    top = max(degrees)
    keys = []  # each threshold, or None for one above every degree
    best = {}  # each key's answer so far
    for k in thresholds:
        if k is not None and k > top:
            k = None
        keys.append(k)
        best[k] = None
    pending = list(best)
    if betti % 2 and None in best:
        pending.remove(None)
    if not pending:
        return [None] * len(keys)
    ends = g._scan_index[1]
    edge_set = g.edge_set
    for walked, t in enumerate(iter_spanning_trees(g), 1):
        count, least_top = _score(ends, degrees, edge_set - t.tree_edges)
        closed = False
        for k in pending:
            if count and (k is None or least_top < k):
                continue  # not qualified at k
            found = best[k]
            if found is None or count < found[0]:
                best[k] = (count, t)
                if count <= 1 or not least:
                    closed = True
        if closed:
            pending = [k for k in pending if best[k] is None or least and best[k][0] > 1]
            if not pending:
                break
        if walked == g.num_edges and g.bridges:
            best.update(zip(pending, _by_blocks(g, pending, least)))
            break
    return list(map(best.__getitem__, keys))


def _blocks(g: Graph) -> Iterator[Graph]:
    """The 2-edge-connected components of g that have an edge, each a
    :class:`Graph` on its sorted subsequence of ``g.edges``, built as it
    is reached."""
    bridges = g.bridges
    for edges in _edge_groups([e for e in g.edges if e not in bridges]):
        yield Graph(tuple(sorted({x for e in edges for x in e})), tuple(edges))


def _by_blocks(g: Graph, thresholds: Sequence[int | None], least: bool) -> list:
    """:func:`_pick` for g assembled from its blocks: the bridges lie in
    every spanning tree and no co-tree component crosses one, so a tree's
    value is the sum of its blocks' values with host degrees, and the first
    tree of least value (or the first qualified tree) is the union of each
    block's own and the bridges.  Each block is walked once for the
    thresholds every block so far has answered."""
    position, _, degrees = g._scan_index
    sums = dict.fromkeys(thresholds, 0)
    trees = {k: set(g.bridges) for k in sums}
    for h in _blocks(g):
        pending = list(sums)
        picks = _pick(h, [degrees[position[v]] for v in h.vertices], pending, least)
        for k, found in zip(pending, picks):
            if found is None:
                del sums[k]
            else:
                sums[k] += found[0]
                trees[k] |= found[1].tree_edges
        if not sums:
            break
    return [
        (sums[k], _searched_tree(g, frozenset(trees[k]))) if k in sums else None
        for k in thresholds
    ]


def _first_tree(g: Graph, thresholds: Sequence[int | None], least: bool) -> tuple:
    """For each of ``thresholds``, ``(value, tree)`` of the first qualified
    tree of least value, or of the first qualified tree when not ``least``,
    in enumeration order; None when no tree qualifies.  Each result is the
    one a call with that threshold alone returns; one walk serves them all.

    A threshold that is not an int or None, or is negative, raises
    ``ValueError``.  One :func:`_pick` call answers them all; on a graph
    with a bridge it hands the thresholds still open after |E| trees to the
    bridge-free blocks itself.  Only the returned trees are checked once
    more, each distinct tree once.
    """
    for threshold in thresholds:
        _check_threshold(threshold)
    found = _pick(g, g._scan_index[2], thresholds, least)
    checked = set()
    for f in found:
        if f is not None and f[1].tree_edges not in checked:
            _check_spanning_tree(g, f[1].tree_edges)
            checked.add(f[1].tree_edges)
    return tuple(found)


def min_tree(g: Graph, threshold: int | None = 0) -> tuple[int, SpanningTree] | None:
    """``(value, tree)`` of the first qualified tree of least deficiency, or
    None when no tree qualifies.

    A tree qualifies when each odd co-tree component has a vertex of degree
    at least ``threshold``: 0 lets every tree through, and ``None`` or a
    threshold above the maximum degree only trees with all-even co-trees; a
    threshold that is not an int or None, or is negative, raises
    ``ValueError``.  ``min_tree(g)[0]`` is the deficiency of g.  The tree
    and its value are those of a scan over every tree in enumeration order;
    the scan driver finds them block by block itself once it runs long on a
    graph with a bridge (:func:`_pick`).
    """
    return _first_tree(g, (threshold,), least=True)[0]
