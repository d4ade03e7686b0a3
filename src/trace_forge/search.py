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

The bookkeeping is positional.  Each adjacency entry carries the edge id and
the position of the reverse entry in the neighbor's list, so a step updates
the transition graphs at both ends without a lookup.  Every expanded node
keeps all open edges in the head's component of the open-edge graph, so
after a step that closes an edge the stranded-edge test is one DFS that
stops at the step's tail, not a scan of every open edge.
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

    Vertices are indices into the sorted labels.  ``adj[c]`` lists
    ``(w, eid, back)`` by ascending neighbor ``w``, where ``back`` is the
    position of ``c`` in ``adj[w]``, so a step carries the positions it
    touches at both ends and the search never looks a position up.  The
    transition graph at ``c`` is a union-find over the positions of
    ``adj[c]``; each root holds its component size and its count of still
    open traversal slots, and every union is undone on backtracking.

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
        self.adj: list[list[tuple[int, int, int]]] = [
            [(w, eid, position[(w, c)]) for w, eid in pairs[c]] for c in range(self.n)
        ]
        self.dsu_parent = [list(range(len(a))) for a in self.adj]
        self.dsu_size = [[1] * len(a) for a in self.adj]
        self.dsu_open = [[2] * len(a) for a in self.adj]

    def _find(self, center: int, pos: int) -> int:
        parent = self.dsu_parent[center]
        while parent[pos] != pos:
            pos = parent[pos]
        return pos

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

    def _component_sizes_ok(self, center: int) -> bool:
        """Full spec check at one vertex whose links are all known."""
        size = self.dsu_size[center]
        groups: dict[int, int] = {}
        for pos in range(len(self.adj[center])):
            r = self._find(center, pos)
            if r not in groups:
                groups[r] = size[r]
        if len(groups) <= 1:
            # connected: only trivial repetitions; the upfront min-degree
            # check already covers the stable degree bound
            return True
        if self.spec.kind == "strong":
            return False
        return min(groups.values()) > self.spec.d

    # -- DFS ---------------------------------------------------------------------

    def run(self) -> Iterator[tuple[int, ...]]:
        """Yield each spec-satisfying closed walk from vertex 0, as its
        minimal rotation of labels, in DFS order.

        A step u -> v is one node.  It consumes a traversal slot of the edge,
        drops the open count of the edge's position at u and at v, and joins
        at u the positions of the previous walk vertex and v (the transition
        {prev, v}).  The node is then cut when it seals a transition
        component at u (other than vertex 0, checked once in full when the
        walk closes) that can only end as a forbidden repetition, or when it
        strands an open edge.  Stranding is tested without scanning the open
        edges.  Before the step, every open edge lay in u's component of the
        open-edge graph.  A step that leaves u-v open keeps that component
        and moves the head inside it.  A step that closes u-v removes one
        edge, which splits that component into at most two parts, one
        holding u and one holding v.  So an edge is stranded exactly when u
        still has an open edge and v no longer reaches u.  The search tests
        just that, with a DFS from v that stops when it meets u, and so cuts
        the same nodes as a count of the open edges v reaches.
        """
        if self._impossible_upfront():
            return
        spec = self.spec
        adj, deg, labels = self.adj, self.deg, self.labels
        parent, size, opened = self.dsu_parent, self.dsu_size, self.dsu_open
        constrained = spec.direction != "any"
        parallel = spec.direction == PARALLEL
        check_repetitions = spec.kind != "double"
        strong = spec.kind == "strong"
        d = spec.d
        limit = self.budget
        used = [0] * self.m
        first_from = [0] * self.m
        mark = [0] * self.n
        stamp = 0
        nodes = 0
        last = 2 * self.m - 1  # depth whose step completes a walk
        # per depth k <= last: the walk vertex, the position of walk[k - 1]
        # in its adjacency, the index of the next move to try from it (saved
        # on the way down), and the position at walk[k - 1] that the step
        # into k attached under another root, or -1
        walk = [0] * (last + 1)
        into = [0] * (last + 1)
        resume = [0] * (last + 1)
        child_at = [0] * (last + 1)
        # antiparallel traces use each start edge exactly once outward, so
        # every trace has exactly one rotation beginning with the smallest
        # neighbor; pinning the first step drops the duplicate rotations
        first_moves = adj[0][:1] if spec.direction == ANTIPARALLEL else adj[0]
        depth, u, moves, idx = 0, 0, first_moves, 0
        while True:
            if idx < len(moves):
                v, eid, back = moves[idx]
                idx += 1
                k = used[eid]
                if k == 2 or (k == 1 and constrained and (first_from[eid] == u) != parallel):
                    continue
                nodes += 1
                if nodes > limit:
                    self.nodes = nodes
                    raise BudgetExhaustedError(nodes)
                used[eid] = k + 1
                if k == 0:
                    first_from[eid] = u
                pu, ou = parent[u], opened[u]
                ru = idx - 1
                while pu[ru] != ru:
                    ru = pu[ru]
                ou[ru] -= 1
                pv = parent[v]
                rv = back
                while pv[rv] != rv:
                    rv = pv[rv]
                opened[v][rv] -= 1
                child = -1
                cut = False
                if depth:
                    rp = into[depth]
                    while pu[rp] != rp:
                        rp = pu[rp]
                    su = size[u]
                    if rp != ru:
                        if su[rp] < su[ru]:
                            rp, ru = ru, rp
                        pu[ru] = rp
                        su[rp] += su[ru]
                        ou[rp] += ou[ru]
                        child = ru
                    if check_repetitions and u and ou[rp] == 0 and su[rp] != deg[u]:
                        # a sealed proper component survives into every
                        # completion as a repetition
                        sealed = su[rp]
                        cut = strong or sealed <= d or deg[u] - sealed <= d
                if depth == last:
                    # Each transition component is checked once.  At u != 0
                    # every final component sealed at a departure from u,
                    # where the screen above ran, so `cut` is the full check
                    # there.  At vertex 0 every position ends two joined
                    # links except the first-departure and last-arrival
                    # positions, which end one each; a component holds an
                    # even number of odd-degree positions, so those two
                    # already share one and the wrap-around link joins
                    # nothing.
                    if v == 0 and not cut and (not check_repetitions or self._component_sizes_ok(0)):
                        self.nodes = nodes
                        yield min_rotation(tuple(labels[i] for i in walk))
                elif not cut and k == 1:
                    # the step closed u-v: while u keeps an open edge, cut
                    # unless v still reaches u over open edges
                    for _, e, _ in adj[u]:
                        if used[e] < 2:
                            cut = True
                            break
                    if cut:
                        stamp += 1
                        mark[v] = stamp
                        stack = [v]
                        while stack and cut:
                            for y, e, _ in adj[stack.pop()]:
                                if used[e] < 2 and mark[y] != stamp:
                                    if y == u:
                                        cut = False
                                        break
                                    mark[y] = stamp
                                    stack.append(y)
                if depth != last and not cut:
                    resume[depth] = idx
                    depth += 1
                    walk[depth], into[depth], child_at[depth] = v, back, child
                    u, moves, idx = v, adj[v], 0
                    continue
            else:
                # every move from u is tried: step back along the edge into u
                if not depth:
                    break
                v, back, child = u, into[depth], child_at[depth]
                depth -= 1
                u, idx = walk[depth], resume[depth]
                moves = adj[u] if depth else first_moves
                eid = moves[idx - 1][1]
                pu, ou = parent[u], opened[u]
            # undo the step u -> v taken by moves[idx - 1]
            if child >= 0:
                root = pu[child]
                pu[child] = child
                size[u][root] -= size[u][child]
                ou[root] -= ou[child]
            pv = parent[v]
            rv = back
            while pv[rv] != rv:
                rv = pv[rv]
            opened[v][rv] += 1
            ru = idx - 1
            while pu[ru] != ru:
                ru = pu[ru]
            ou[ru] += 1
            used[eid] -= 1
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
