"""Exhaustive backtracking over double traces.

This module is the engine alone; the cell it searches for is a
:class:`~trace_forge.walks.TraceSpec`.  It serves the tests, ``--oracle``,
and the traces that ``decide`` has no construction for yet.  The search
walks the doubled edge multiset: every edge has two traversal slots and a
step consumes one.  Constraints prune slots (parallel: the second
traversal must repeat the first direction; antiparallel: oppose it) and
partial transition graphs prune stability violations as soon as a local
component is sealed.  The search is complete: a ``None`` result means the
whole space was exhausted.

The bookkeeping is positional.  Each move carries its edge id, its own
position and the position of the reverse entry in the neighbor's list, so a
step touches both ends without a lookup.  Every transition graph is a set of
paths and cycles, kept as the far end and the size at each path end: a step
joins two paths or closes a cycle in O(1), and a closed cycle is a sealed
component.  Every expanded node keeps all open edges in the head's component
of the open-edge graph, so after a step that closes an edge the
stranded-edge test is one DFS that stops at the step's tail, not a scan of
every open edge.
"""

from __future__ import annotations

from typing import Iterator

from .errors import BudgetExhaustedError
from .graph import Graph
from .walks import (
    ANTIPARALLEL,
    PARALLEL,
    DoubleTrace,
    TraceSpec,
    min_rotation,
    require_trace_host,
    validate_double_trace,
)

#: Node budget of :func:`enumerate_traces` and of a :func:`find_trace` call
#: that passes none.
DEFAULT_BUDGET = 5_000_000


class _Engine:
    """One backtracking run over a fixed host and spec.

    Vertices are indices into the sorted labels.  ``adj[c]`` lists the moves
    ``(w, eid, back, pos)`` from ``c`` by ascending neighbor ``w``, where
    ``pos`` is the move's own position in ``adj[c]`` and ``back`` is the
    position of ``c`` in ``adj[w]``, so a step carries the positions it
    touches at both ends and the search never looks a position up.

    The transition graph at ``c`` has the positions of ``adj[c]`` as nodes.
    Each traversal of an edge end takes part in one transition there, so a
    position has at most two links and every component is a path or a
    cycle.  :meth:`run` keeps the far end and the size of each path at both
    of its ends: a transition {a, b} closes a cycle exactly when b is a's far
    end, and otherwise joins two paths, which backtracking undoes.

    The caller checks that the host is connected and has an edge
    (:func:`~trace_forge.walks.require_trace_host`).  Every node the search
    expands keeps one invariant: each open edge (used fewer than twice)
    lies in the head's component of the open-edge graph.  :meth:`run`
    states why one local test keeps it after a step.
    """

    def __init__(self, g: Graph, spec: TraceSpec, budget: int):
        self.g = g
        self.spec = spec
        self.budget = budget
        self.nodes = 0

        self.labels = list(g.vertices)
        index = {v: i for i, v in enumerate(self.labels)}
        self.n = len(self.labels)
        self.m = g.num_edges
        self.deg = [g.degree(v) for v in self.labels]
        pairs: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for eid, (u, v) in enumerate(g.edges):
            ui, vi = index[u], index[v]
            pairs[ui].append((vi, eid))
            pairs[vi].append((ui, eid))
        for lst in pairs:
            lst.sort()  # ascending neighbor id (labels are sorted, so index order matches)
        position = {(c, w): pos for c in range(self.n) for pos, (w, _) in enumerate(pairs[c])}
        self.adj: list[list[tuple[int, int, int, int]]] = [
            [(w, eid, position[(w, c)], pos) for pos, (w, eid) in enumerate(pairs[c])]
            for c in range(self.n)
        ]

    # -- pruning ---------------------------------------------------------------

    def _impossible_upfront(self) -> bool:
        spec = self.spec
        if spec.kind == "stable" and self.g.min_degree() <= spec.d:
            # any trace's stability is at most min degree - 1
            return True
        if spec.direction == PARALLEL and any(d % 2 for d in self.deg):
            # a parallel trace directs both copies of each edge the same way,
            # so every vertex needs in-traversals == d(v), two per edge
            return True
        return False

    # -- DFS ---------------------------------------------------------------------

    def run(self) -> Iterator[tuple[int, ...]]:
        """Yield each spec-satisfying closed walk from vertex 0, as its
        minimal rotation of labels, in DFS order.

        A step u -> v is one node.  It consumes a traversal slot of the edge
        and adds at u the transition {prev, v} between the positions of the
        previous walk vertex and v.  At u != 0 every earlier traversal at u
        already sits in a transition, so the step seals a component exactly
        when that transition closes a cycle.  The node is cut when it seals
        a component at u (other than vertex 0, checked once in full when the
        walk closes) that can only end as a forbidden repetition, or when it
        strands an open edge.  Stranding is tested without scanning the open
        edges.  Before the step, every open edge lay in u's component of the
        open-edge graph.  A step that leaves u-v open keeps that component
        and moves the head inside it.  A step that closes u-v removes one
        edge, which splits that component into at most two parts, one
        holding u and one holding v.  So an edge is stranded exactly when u
        still has an open edge and v no longer reaches u.  The search tests
        just that, from a count of open edges per vertex and, when v keeps
        one, a DFS from v that stops when it meets u, and so cuts the same
        nodes as a count of the open edges v reaches.
        """
        if self._impossible_upfront():
            return
        spec = self.spec
        adj, deg, labels = self.adj, self.deg, self.labels
        constrained = spec.direction != "any"
        parallel = spec.direction == PARALLEL
        check_repetitions = spec.kind != "double"
        strong = spec.kind == "strong"
        d = spec.d
        limit = self.budget
        used = [0] * self.m
        first_from = [0] * self.m
        open_edges = list(deg)  # per vertex: edges used fewer than twice
        # per vertex and position, read while the position ends a path of
        # the transition graph: the path's far end and its size
        ends = [list(range(k)) for k in deg]
        sizes = [[1] * k for k in deg]
        zero_cycles: list[int] = []  # sizes of the cycles closed at vertex 0
        mark = [0] * self.n
        stamp = 0
        nodes = 0
        last = 2 * self.m - 1  # depth whose step completes a walk
        # one frame per step on the walk: the tail, the tail's arrival
        # position, the tail's move iterator, the move's position and edge,
        # and what the transition at the tail did: the size of the arrival
        # position's path when it joined two paths, -1 when it closed a
        # cycle at vertex 0, else 0
        frames: list[tuple[int, int, Iterator[tuple[int, int, int, int]], int, int, int]] = []
        # antiparallel traces use each start edge exactly once outward, so
        # every trace has exactly one rotation beginning with the smallest
        # neighbor; pinning the first step drops the duplicate rotations
        moves = iter(adj[0][:1] if spec.direction == ANTIPARALLEL else adj[0])
        depth = u = a = 0
        end, size, deg_u = ends[0], sizes[0], deg[0]
        while True:
            for v, eid, back, b in moves:
                k = used[eid]
                if k == 2 or (k == 1 and constrained and (first_from[eid] == u) != parallel):
                    continue
                nodes += 1
                if nodes > limit:
                    self.nodes = nodes
                    raise BudgetExhaustedError(nodes)
                closes = depth and end[a] == b
                if closes and check_repetitions and u and size[a] != deg_u:
                    # a sealed proper component survives into every
                    # completion as a repetition
                    sealed = size[a]
                    if strong or sealed <= d or deg_u - sealed <= d:
                        continue
                if depth == last:
                    # Each transition component is checked once.  At u != 0
                    # every final component is a cycle closed at a departure
                    # from u, where the screen above ran.  At vertex 0 every
                    # position ends two links except the first-departure and
                    # last-arrival positions, which end one each, so those
                    # two end the one path at vertex 0, whose size its
                    # first-departure end keeps; the wrap-around link closes
                    # it and joins nothing else.
                    if v == 0 and (
                        not check_repetitions
                        or not zero_cycles
                        or (not strong and min(min(zero_cycles), sizes[0][frames[0][3]]) > d)
                    ):
                        self.nodes = nodes
                        yield min_rotation(tuple(labels[f[0]] for f in frames) + (labels[u],))
                    continue
                if k:
                    # the step closes u-v: while u keeps an open edge, cut
                    # unless v still reaches u over open edges
                    if open_edges[u] > 1:
                        if open_edges[v] == 1:
                            continue
                        used[eid] = 2  # the DFS must not cross u-v
                        stamp += 1
                        mark[v] = stamp
                        stack = [v]
                        cut = True
                        while stack and cut:
                            for y, e, _, _ in adj[stack.pop()]:
                                if used[e] < 2 and mark[y] != stamp:
                                    if y == u:
                                        cut = False
                                        break
                                    mark[y] = stamp
                                    stack.append(y)
                        if cut:
                            used[eid] = 1
                            continue
                    open_edges[u] -= 1
                    open_edges[v] -= 1
                else:
                    first_from[eid] = u
                # only a node the search descends into writes its step, so a
                # cut node or a leaf leaves nothing to undo
                used[eid] = k + 1
                joined = 0
                if closes:
                    if not u:
                        zero_cycles.append(size[a])
                        joined = -1
                elif depth:
                    joined = size[a]
                    ea, eb = end[a], end[b]
                    end[ea], end[eb] = eb, ea
                    size[ea] = size[eb] = joined + size[b]
                frames.append((u, a, moves, b, eid, joined))
                depth += 1
                u, a, moves = v, back, iter(adj[v])
                end, size, deg_u = ends[v], sizes[v], deg[v]
                break
            else:
                # every move from u is tried: step back along the edge into u
                if not depth:
                    break
                depth -= 1
                v = u
                u, a, moves, b, eid, joined = frames.pop()
                end, size, deg_u = ends[u], sizes[u], deg[u]
                k = used[eid] - 1
                used[eid] = k
                if k:
                    open_edges[u] += 1
                    open_edges[v] += 1
                if joined > 0:
                    # a was its own far end when its path had size 1
                    ea = a if joined == 1 else end[a]
                    eb = end[ea]
                    size[eb] = size[ea] - joined
                    size[ea] = joined
                    end[ea], end[eb] = a, b
                elif joined:
                    zero_cycles.pop()
        self.nodes = nodes


def find_trace(g: Graph, spec: TraceSpec, budget: int | None = None) -> DoubleTrace | None:
    """First spec-satisfying double trace in deterministic DFS order.

    Returns ``None`` only after the complete search space was exhausted.
    Raises :class:`BudgetExhaustedError` past ``budget`` nodes; no budget
    means :data:`DEFAULT_BUDGET`, read at call time.
    """
    require_trace_host(g)
    engine = _Engine(g, spec, DEFAULT_BUDGET if budget is None else budget)
    for seq in engine.run():
        return validate_double_trace(g, seq)
    return None


def enumerate_traces(g: Graph, spec: TraceSpec) -> list[DoubleTrace]:
    """All spec-satisfying traces up to rotation, in canonical sorted order.

    Reflections count as distinct traces since direction matters.  Raises
    :class:`BudgetExhaustedError` past :data:`DEFAULT_BUDGET` nodes, read at
    call time.
    """
    require_trace_host(g)
    engine = _Engine(g, spec, DEFAULT_BUDGET)
    canonical = {seq for seq in engine.run()}
    return [DoubleTrace(g, seq) for seq in sorted(canonical)]
