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

The bookkeeping is positional and bitwise.  The moves are the host's darts
(``Graph._darts``): each carries its edge id, its own position and its
twin's, so a step touches both ends without a lookup.  Each vertex keeps a
mask of the positions whose edge still has a slot the direction allows, and
the move loop tries only those.  Every transition graph is a set of paths
and cycles, kept as the far end and the size at each path end: a step joins
two paths or closes a cycle in O(1), and a closed cycle is a sealed
component.  The open-edge graph (edges used fewer than twice) is one mask of
open neighbors per vertex.  Every expanded node keeps all open edges in the
head's component of that graph, so after a step that closes an edge the
stranded-edge test is a breadth-first search over masks from the step's
head that stops as soon as it meets an open neighbor of the step's tail;
one AND answers it when the two ends share an open neighbor.
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

#: Node budget of a :func:`find_trace` call that passes none, read at call
#: time, so replacing it here reaches every search that passes none.
DEFAULT_BUDGET = 5_000_000


class _Engine:
    """One backtracking run over a fixed host and spec.

    Vertices are positions in the sorted labels.  ``adj[c]`` lists the moves
    ``(w, eid, back, pos)`` from ``c`` by ascending neighbor ``w``, where
    ``pos`` is the move's own position in ``adj[c]`` and ``back`` is the
    position of ``c`` in ``adj[w]``, so a step carries the positions it
    touches at both ends and the search never looks a position up.  ``adj``
    is the host's ``Graph._darts``, tuples that every search reuses.

    The transition graph at ``c`` has the positions of ``adj[c]`` as nodes.
    Each traversal of an edge end takes part in one transition there, so a
    position has at most two links and every component is a path or a
    cycle.  :meth:`run` keeps the far end and the size of each path at both
    of its ends: a transition {a, b} closes a cycle exactly when b is a's far
    end, and otherwise joins two paths, which backtracking undoes.

    ``nbr_bits[c]`` has bit ``w`` set for each neighbor ``w`` of ``c``;
    :meth:`run` starts its open-edge graph from it.  The caller checks that
    the host is connected and has an edge
    (:func:`~trace_forge.walks.require_trace_host`).  Every node the search
    expands keeps one invariant: each open edge (used fewer than twice)
    lies in the head's component of the open-edge graph.  :meth:`run`
    states why one local test keeps it after a step.
    """

    def __init__(self, g: Graph, spec: TraceSpec, budget: int):
        self.spec = spec
        self.budget = budget
        self.nodes = 0
        self.labels = g.vertices
        self.m = g.num_edges
        self.deg = g._scan_index[2]
        self.adj = g._darts
        self.nbr_bits = [sum(1 << w for w, _, _, _ in row) for row in self.adj]

    # -- pruning ---------------------------------------------------------------

    def _impossible_upfront(self) -> bool:
        spec = self.spec
        if spec.kind == "stable" and min(self.deg) <= spec.d:
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
        previous walk vertex and v.  The moves tried from u are those whose
        position is set in u's live mask.  A step clears each position whose
        last allowed slot it takes: an antiparallel step clears its own
        position at u, since the edge's other traversal must run v -> u; a
        parallel first traversal clears the reverse position at v and the
        second clears its own at u; with any direction the second traversal
        clears both.  Backtracking sets them again, so the loop never tries
        a slot that is used twice or that the direction forbids.

        At u != 0 every earlier traversal at u already sits in a transition,
        so the step seals a component exactly when that transition closes a
        cycle.  The node is cut when it seals a component at u (other than
        vertex 0, checked once in full when the walk closes) that can only
        end as a forbidden repetition, or when it strands an open edge.
        Stranding is tested without scanning the open edges.  Before the
        step, every open edge lay in u's component of the open-edge graph.
        A step that leaves u-v open keeps that component and moves the head
        inside it.  A step that closes u-v removes one edge, which splits
        that component into at most two parts, one holding u and one holding
        v.  So an edge is stranded exactly when u still has an open edge and
        v no longer reaches u.  Let ou and ov be the open neighbors of u and
        v without each other.  An empty ou strands nothing, and an empty ov
        strands u's edges.  Otherwise a breadth-first search grows from ov
        one frontier mask at a time and stops when a frontier meets ou,
        since the last vertex before u on an open path from v lies in ou;
        it cuts the node when the frontier empties first.  So the test cuts
        the same nodes as a count of the open edges v reaches.
        """
        if self._impossible_upfront():
            return
        spec = self.spec
        adj, deg, labels = self.adj, self.deg, self.labels
        # indexed by the edge's traversal count k before a step u -> v:
        # whether the step takes the last allowed slot of its position at u
        # (tail) and of the reverse position at v (head)
        if spec.direction == ANTIPARALLEL:
            tail_clear, head_clear = (True, True), (False, False)
        elif spec.direction == PARALLEL:
            tail_clear, head_clear = (False, True), (True, False)
        else:
            tail_clear, head_clear = (False, True), (False, True)
        check_repetitions = spec.kind != "double"
        strong = spec.kind == "strong"
        d = spec.d
        limit = self.budget
        used = [0] * self.m
        # the open-edge graph: bit w of oadj[x] is set while x-w is open
        oadj = list(self.nbr_bits)
        # per vertex: bit p of live[x] is set while the move at position p
        # has a slot the direction allows; menus[x] maps each live mask
        # seen to its moves, starting with the full mask
        live = [(1 << k) - 1 for k in deg]
        menus = [{mask: moves} for mask, moves in zip(live, adj)]
        # per vertex and position, read while the position ends a path of
        # the transition graph: the path's far end and its size
        ends = [list(range(k)) for k in deg]
        sizes = [[1] * k for k in deg]
        zero_cycles: list[int] = []  # sizes of the cycles closed at vertex 0
        nodes = 0
        last = 2 * self.m - 1  # depth whose step completes a walk
        # one frame per step on the walk: the tail, the tail's arrival
        # position, the iterator over the tail's live moves, the move's
        # position and edge, and what the transition at the tail did: the
        # size of the arrival position's path when it joined two paths, -1
        # when it closed a cycle at vertex 0, else 0
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
                    ou = oadj[u] ^ 1 << v
                    ov = oadj[v] ^ 1 << u
                    if ou and not ov & ou:
                        if not ov:
                            continue
                        # breadth-first from v's open neighbors until a
                        # frontier meets one of u's
                        seen = ov | 1 << v
                        front = ov
                        while front:
                            reach = 0
                            while front:
                                low = front & -front
                                reach |= oadj[low.bit_length() - 1]
                                front ^= low
                            if reach & ou:
                                break
                            front = reach & ~seen
                            seen |= front
                        else:
                            continue  # the frontier emptied first
                    oadj[u] = ou
                    oadj[v] = ov
                if tail_clear[k]:
                    live[u] ^= 1 << b
                if head_clear[k]:
                    live[v] ^= 1 << back
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
                mask = live[v]
                menu = menus[v].get(mask)
                if menu is None:
                    menu = menus[v][mask] = [mv for mv in adj[v] if mask >> mv[3] & 1]
                u, a, moves = v, back, iter(menu)
                end, size, deg_u = ends[v], sizes[v], deg[v]
                break
            else:
                # every move from u is tried: step back along the edge into u
                if not depth:
                    break
                depth -= 1
                v, back = u, a
                u, a, moves, b, eid, joined = frames.pop()
                end, size, deg_u = ends[u], sizes[u], deg[u]
                k = used[eid] - 1
                used[eid] = k
                if k:
                    oadj[u] ^= 1 << v
                    oadj[v] ^= 1 << u
                if tail_clear[k]:
                    live[u] ^= 1 << b
                if head_clear[k]:
                    live[v] ^= 1 << back
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

