"""Constructive transforms between a graph and its vertex splits.

Three families of machinery live here:

* transferring a spanning tree across vertex identification while keeping
  odd co-tree components covered,
* splitting a vertex in an odd co-tree component so that the deficiency
  strictly drops while every odd component keeps a vertex of degree at
  least a threshold (threshold 0, the plain deficiency rule, asks nothing
  more), and
* projecting a double trace through a split of one vertex along its
  repetition sets, plus the inverse lift.

Every transform validates its postconditions mechanically; a construction
branch is never trusted blindly.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import combinations

from .errors import (
    DegreeTooSmallError,
    InternalInvariantError,
    NotInOddComponentError,
    NotQualifiedError,
    NotSpanningTreeError,
    PartitionNotRepetitionClosedError,
    PreconditionViolatedError,
    TraceForgeError,
    UnknownVertexError,
)
from .graph import (
    Edge,
    SplitSpec,
    _components,
    edge_key,
    fresh_vertex_ids,
    identify_vertices,
    split_vertex,
)
from .spanning import (
    SpanningTree,
    cotree_decomposition,
    iter_spanning_trees,
    qualified_deficiency_of_tree,
)
from .walks import DoubleTrace, validate_double_trace


# -- tree transfer under identification ---------------------------------------


def _odd_components_covered(t: SpanningTree, covering: frozenset[int]) -> bool:
    return all(c.vertices & covering for c in cotree_decomposition(t) if c.is_odd)


def transfer_tree_on_identification(
    t_prime: SpanningTree,
    targets: Iterable[int],
    new_id: int,
    protected: Iterable[int] = (),
) -> SpanningTree:
    """Pull a spanning tree back through vertex identification of its host.

    Preconditions: the targets have pairwise disjoint neighborhoods with no
    edge between them, and every odd co-tree component of ``t_prime``
    contains a protected vertex or a target.  The result spans the identified
    graph and every odd co-tree component contains a protected vertex or
    ``new_id``.

    The result is the Kruskal tree of the relabeled tree edges: first the
    edges that touch no target, a sub-forest of ``t_prime``, then the edges
    of each target, the last target first, in sorted order, dropping every
    edge that would close a cycle.  ``t_prime`` is acyclic, so every cycle of
    the relabeled tree passes through ``new_id``: the dropped edges, one
    fewer than the targets, all join the co-tree component of ``new_id``,
    and the odd components away from the targets are unchanged and stay
    covered by ``protected``.  Every relabeled target edge ends at
    ``new_id``, so the pass keeps the sub-forest and, for each of its
    pieces, the first target edge into it.
    """
    targets = sorted(set(targets))
    target_set = frozenset(targets)
    protected = frozenset(protected)
    g_prime = t_prime.host
    if protected & target_set:
        raise PreconditionViolatedError("protected vertices must not be targets")
    if not protected <= set(g_prime.vertices):
        raise PreconditionViolatedError("protected vertices must be in the graph")
    if not _odd_components_covered(t_prime, protected | target_set):
        raise PreconditionViolatedError(
            "an odd co-tree component contains no protected vertex and no target"
        )
    try:
        g = identify_vertices(g_prime, targets, new_id)
    except TraceForgeError as exc:
        raise PreconditionViolatedError(str(exc)) from exc

    tree_edges = sorted(t_prime.tree_edges)
    kept = [e for e in tree_edges if not target_set.intersection(e)]
    piece = {x: i for i, comp in enumerate(_components(g.vertices, kept)) for x in comp}
    first: dict[int, Edge] = {}
    for a in reversed(targets):
        for x, y in tree_edges:
            if a in (x, y):
                w = y if x == a else x
                first.setdefault(piece[w], edge_key(new_id, w))
    try:
        t = SpanningTree(g, frozenset(kept + list(first.values())))
    except NotSpanningTreeError as exc:  # pragma: no cover - construction bug
        raise InternalInvariantError(
            f"tree transfer produced a non-tree: {exc}"
        ) from exc
    if not _odd_components_covered(t, protected | frozenset({new_id})):
        raise InternalInvariantError(
            "tree transfer left an odd co-tree component uncovered"
        )
    return t


# -- deficiency-reducing splits -------------------------------------------------


def _relabeled_tree_edges(
    t: SpanningTree, v: int, side: frozenset[int], v1: int, v2: int
) -> set[Edge]:
    """Tree edges with v replaced by v1 toward ``side`` and v2 elsewhere."""
    out = set()
    for x, y in t.tree_edges:
        if x == v:
            out.add(edge_key(v1 if y in side else v2, y))
        elif y == v:
            out.add(edge_key(v1 if x in side else v2, x))
        else:
            out.add(edge_key(x, y))
    return out


def _split_candidates(t: SpanningTree, v: int) -> Iterator[SpanningTree]:
    """The split trees of the constructive recipe: the tree neighbor u sits in
    one half, a co-tree neighbor w in the other, and the tree regains the
    edge wv.  Halves have sizes ceil(d/2) and floor(d/2); both assignments of
    u's side are tried.  The relabeled tree plus v2-w puts |V| edges on the
    |V| + 1 vertices of the split graph, so they form a spanning tree exactly
    when v2-w closes no cycle, that is when the branch of t - v holding w
    hangs off a tree neighbor of v in u's half.  Other splits are skipped
    before they are built; they include every disconnected one.
    """
    g = t.host
    nbhd = set(g.neighbors(v))
    degree = len(nbhd)
    tree_nbrs = sorted(x for x in nbhd if edge_key(x, v) in t.tree_edges)
    tree_set = set(tree_nbrs)
    cotree_nbrs = sorted(x for x in nbhd if edge_key(x, v) not in t.tree_edges)
    # each vertex but v -> the tree neighbor of v whose branch of t - v holds it
    branches = _components((x for x in g.vertices if x != v), (e for e in t.tree_edges if v not in e))
    hub = {y: x for comp in branches for x in tree_set.intersection(comp) for y in comp}
    ceil_half = (degree + 1) // 2
    floor_half = degree // 2
    sizes = [ceil_half] if ceil_half == floor_half else [ceil_half, floor_half]
    v1, v2 = fresh_vertex_ids(g, 2)
    for u in tree_nbrs:
        for w in cotree_nbrs:
            rest = sorted(nbhd - {u, w})
            for size in sizes:
                for extra in combinations(rest, size - 1):
                    u_side = frozenset({u, *extra})
                    if hub[w] not in u_side:
                        continue
                    w_side = frozenset(nbhd - u_side)
                    g2 = split_vertex(g, SplitSpec(v, (u_side, w_side)))
                    edges = _relabeled_tree_edges(t, v, u_side, v1, v2)
                    edges.add(edge_key(v2, w))
                    yield SpanningTree(g2, frozenset(edges))


def _recipe_trees(t: SpanningTree, v: int, deficiency: int) -> Iterator[SpanningTree]:
    """t itself, then every other tree of its host the recipe may have to
    move to first: v in an odd co-tree component, at least two tree edges at
    v and deficiency at most ``deficiency``."""
    g = t.host
    yield t
    for t_alt in iter_spanning_trees(g):
        if t_alt.tree_edges == t.tree_edges:
            continue
        odd = [c for c in cotree_decomposition(t_alt) if c.is_odd]
        if len(odd) > deficiency or not any(v in c.vertices for c in odd):
            continue
        if sum(1 for x in g.neighbors(v) if edge_key(x, v) in t_alt.tree_edges) < 2:
            continue
        yield t_alt


def split_reduce_deficiency(t: SpanningTree, v: int) -> SpanningTree:
    """:func:`split_reduce_qualified` at threshold 0, the plain deficiency rule."""
    return split_reduce_qualified(t, v, 0)


def split_reduce_qualified(t: SpanningTree, v: int, threshold: int = 0) -> SpanningTree:
    """Split v (in an odd co-tree component of t's host) so the deficiency
    strictly drops and every odd component keeps a vertex of degree >=
    ``threshold``.

    Requires d(v) >= threshold and a tree whose odd components all contain
    such a vertex; threshold 0 is the plain deficiency rule, which every tree
    meets.  Returns a connected split into halves of sizes ceil(d(v)/2) and
    floor(d(v)/2): the returned spanning tree of the split graph meets the
    same rule.  Its host's two new vertices are ``fresh_vertex_ids(t.host,
    2)``, and their neighborhoods there are the halves.  The recipe runs on
    t first, then on another tree with at least two tree edges at v and no
    larger deficiency.  No other search runs: when both fail, the
    guaranteed construction has been broken.  t and each candidate are
    scored by ``spanning.qualified_deficiency_of_tree``; the result is
    validated, not assumed.  A threshold of None, which admits no odd
    component, leaves nothing to split and raises ``ValueError``.
    """
    if threshold is None:
        raise ValueError("a split needs an integer threshold; None admits no odd component")
    g = t.host
    if v in g.adjacency and g.degree(v) < threshold:
        raise NotQualifiedError(
            f"vertex {v} has degree {g.degree(v)} < threshold {threshold}"
        )
    before = qualified_deficiency_of_tree(t, threshold)
    if before is None:
        raise NotQualifiedError(
            f"an odd co-tree component has no vertex of degree >= {threshold}"
        )
    if v not in g.adjacency:
        raise UnknownVertexError(f"vertex {v} not in graph")
    if g.degree(v) < 2:
        raise DegreeTooSmallError(f"vertex {v} has degree {g.degree(v)} < 2")
    if not any(v in c.vertices for c in cotree_decomposition(t) if c.is_odd):
        raise NotInOddComponentError(
            f"vertex {v} does not lie in an odd co-tree component"
        )

    for tree in _recipe_trees(t, v, before):
        for t2 in _split_candidates(tree, v):
            after = qualified_deficiency_of_tree(t2, threshold)
            if after is not None and after < before:
                return t2
    raise InternalInvariantError(
        f"no deficiency-reducing split exists at vertex {v}; "
        f"this contradicts a guaranteed construction"
    )


# -- trace projection and lifting ------------------------------------------------


def project_trace_through_split(
    w: DoubleTrace, v: int, parts: Sequence[Iterable[int]]
) -> DoubleTrace:
    """Rewrite a trace onto the split of v along repetition-closed parts.

    Each part must be a union of minimal repetitions (transition-graph
    components) of the trace at v; then every visit of v maps to a
    well-defined copy and the projected sequence is again a valid double
    trace.  Edge directions are untouched, so antiparallel stays antiparallel.
    The partition is validated first; closure is then checked visit by
    visit, since the parts are unions of transition-graph components exactly
    when no visit of v enters from one part and leaves into another.
    """
    g = w.host
    if v not in g.adjacency:
        raise UnknownVertexError(f"vertex {v} not in host")
    norm_parts = tuple(frozenset(p) for p in parts)
    g2 = split_vertex(g, SplitSpec(v, norm_parts))
    new_ids = fresh_vertex_ids(g, len(norm_parts))
    part_of = {x: i for i, part in enumerate(norm_parts) for x in part}
    seq = list(w.sequence)
    n = len(seq)
    out = []
    for i, x in enumerate(seq):
        if x != v:
            out.append(x)
            continue
        pred = seq[(i - 1) % n]
        succ = seq[(i + 1) % n]
        if part_of[pred] != part_of[succ]:
            raise PartitionNotRepetitionClosedError(
                f"the visit {pred}-{v}-{succ} crosses a part boundary at {v}"
            )
        out.append(new_ids[part_of[pred]])
    return validate_double_trace(g2, out)


def lift_trace_through_identification(
    w_prime: DoubleTrace, targets: Iterable[int], new_id: int
) -> DoubleTrace:
    """Rewrite a trace onto the graph that identifies the targets.

    Inverse of :func:`project_trace_through_split`; introduces exactly the
    neighborhoods of the former targets as repetitions at ``new_id`` and
    changes nothing elsewhere.
    """
    targets = set(targets)
    try:
        g = identify_vertices(w_prime.host, targets, new_id)
    except TraceForgeError as exc:
        raise PreconditionViolatedError(str(exc)) from exc
    out = [new_id if x in targets else x for x in w_prime.sequence]
    return validate_double_trace(g, out)
