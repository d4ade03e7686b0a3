"""Exhaustive backtracking over double traces.

The search walks the doubled edge multiset: every edge has two traversal
slots and a step consumes one.  Constraints prune slots (parallel: the second
traversal must repeat the first direction; antiparallel: oppose it) and
partial transition graphs prune stability violations as soon as a local
component is sealed.  The search is complete: a ``None`` result means the
whole space was exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import BudgetExhaustedError, EmptyGraphError
from .graph import Graph, require_connected
from .walks import (
    ANTIPARALLEL,
    PARALLEL,
    DoubleTrace,
    TraceClass,
    classify_trace,
    min_rotation,
    validate_double_trace,
)

KINDS = ("double", "stable", "strong")
DIRECTIONS = ("any", PARALLEL, ANTIPARALLEL)

#: Above this many edges a search node budget must be supplied.
UNBUDGETED_EDGE_LIMIT = 12


@dataclass(frozen=True)
class TraceSpec:
    """A cell of the kind x direction matrix to search for."""

    kind: str
    direction: str = "any"
    d: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.direction not in DIRECTIONS:
            raise ValueError(f"unknown direction {self.direction!r}")
        if self.kind == "stable":
            if self.d is None or self.d < 1:
                raise ValueError("stable kind needs d >= 1")
        elif self.d is not None:
            raise ValueError(f"kind {self.kind!r} takes no d")


def spec_satisfied(spec: TraceSpec, cls: TraceClass) -> bool:
    if spec.kind == "stable" and cls.stability_order < spec.d:
        return False
    if spec.kind == "strong" and not cls.strong:
        return False
    if spec.direction != "any" and cls.direction != spec.direction:
        return False
    return True


class _Engine:
    """One backtracking run over a fixed host and spec."""

    def __init__(self, g: Graph, spec: TraceSpec, budget: int | None):
        self.g = g
        self.spec = spec
        self.budget = budget
        self.nodes = 0

        self.labels = list(g.vertices)
        index = {v: i for i, v in enumerate(self.labels)}
        self.n = len(self.labels)
        self.m = g.num_edges
        self.deg = [g.degree(v) for v in self.labels]
        self.adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for eid, (u, v) in enumerate(g.edges):
            ui, vi = index[u], index[v]
            self.adj[ui].append((vi, eid))
            self.adj[vi].append((ui, eid))
        for lst in self.adj:
            lst.sort()  # ascending neighbor id (labels are sorted, so index order matches)

        self.used = [0] * self.m
        self.first_from = [-1] * self.m
        self.open_edges = self.m
        self.walk: list[int] = [0]
        self._mark = [0] * self.n
        self._edge_mark = [0] * self.m
        self._stamp = 0

        # per-vertex transition-graph state: a union-find over the neighbor
        # positions with, at each root, the component size and the number of
        # still-open traversal slots; unions roll back on backtracking
        self.loc: dict[tuple[int, int], int] = {}
        for c in range(self.n):
            for pos, (w, _) in enumerate(self.adj[c]):
                self.loc[(c, w)] = pos
        self.dsu_parent = [list(range(len(self.adj[c]))) for c in range(self.n)]
        self.dsu_size = [[1] * len(self.adj[c]) for c in range(self.n)]
        self.dsu_open = [[2] * len(self.adj[c]) for c in range(self.n)]

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

    def _step_allowed(self, u: int, eid: int) -> bool:
        used = self.used[eid]
        if used == 2:
            return False
        if used == 1 and self.spec.direction != "any":
            same = self.first_from[eid] == u
            if self.spec.direction == PARALLEL:
                return same
            return not same
        return True

    def _component_groups(self, center: int) -> dict[int, int]:
        """root -> component size at a vertex, from the live union-find."""
        groups: dict[int, int] = {}
        size = self.dsu_size[center]
        for pos in range(len(self.adj[center])):
            r = self._find(center, pos)
            if r not in groups:
                groups[r] = size[r]
        return groups

    def _component_sizes_ok(self, center: int, extra_link: tuple[int, int] | None = None) -> bool:
        """Full spec check at one vertex whose links are all known."""
        groups = self._component_groups(center)
        if extra_link is not None:
            ra = self._find(center, self.loc[(center, extra_link[0])])
            rb = self._find(center, self.loc[(center, extra_link[1])])
            if ra != rb:
                groups[ra] = groups[ra] + groups.pop(rb)
        if len(groups) <= 1:
            # connected: only trivial repetitions; the upfront min-degree
            # check already covers the stable degree bound
            return True
        if self.spec.kind == "strong":
            return False
        return min(groups.values()) > self.spec.d

    def _sealed_prune(self, center: int, root: int) -> bool:
        """True when the just-finished visit of ``center`` dooms the walk.

        A component of the partial transition graph is sealed once every
        traversal slot inside it is used; sealed proper components survive
        into every completion as repetitions.  The start vertex is exempt:
        its wrap-around link is still pending.
        """
        if self.dsu_open[center][root] != 0:
            return False
        size = self.dsu_size[center][root]
        d_center = self.deg[center]
        if size == d_center:
            return False  # complete and connected: no nontrivial repetition here
        if self.spec.kind == "strong":
            return True
        return size <= self.spec.d or d_center - size <= self.spec.d

    def _reachability_prune(self, head: int) -> bool:
        """True when some unfinished edge cannot be reached from the head."""
        if self.open_edges == 0:
            return False
        self._stamp += 1
        stamp = self._stamp
        mark = self._mark
        edge_mark = self._edge_mark
        used = self.used
        mark[head] = stamp
        stack = [head]
        seen_edges = 0
        while stack:
            x = stack.pop()
            for y, eid in self.adj[x]:
                if used[eid] < 2:
                    if edge_mark[eid] != stamp:
                        edge_mark[eid] = stamp
                        seen_edges += 1
                    if mark[y] != stamp:
                        mark[y] = stamp
                        stack.append(y)
        return seen_edges < self.open_edges

    # -- DFS ---------------------------------------------------------------------

    def _apply(self, u: int, v: int, eid: int):
        """Consume one traversal slot and register the finished visit of u.

        Returns an undo record: (eid, prev_used, link_center, union_child,
        union_root, link_root).  The union-find open counts drop for u's slot
        at v and v's slot at u; the link {previous walk vertex, v} merges two
        components at the old head u.
        """
        prev_used = self.used[eid]
        self.used[eid] = prev_used + 1
        if prev_used == 0:
            self.first_from[eid] = u
        else:
            self.open_edges -= 1
        ru = self._find(u, self.loc[(u, v)])
        self.dsu_open[u][ru] -= 1
        rv = self._find(v, self.loc[(v, u)])
        self.dsu_open[v][rv] -= 1
        walk = self.walk
        walk.append(v)
        if len(walk) < 3:
            return eid, prev_used, -1, -1, -1, -1
        center = u
        rp = self._find(center, self.loc[(center, walk[-3])])
        rs = self._find(center, self.loc[(center, v)])
        if rp == rs:
            return eid, prev_used, center, -1, -1, rp
        size = self.dsu_size[center]
        if size[rp] < size[rs]:
            rp, rs = rs, rp
        # attach rs under rp
        self.dsu_parent[center][rs] = rp
        size[rp] += size[rs]
        self.dsu_open[center][rp] += self.dsu_open[center][rs]
        return eid, prev_used, center, rs, rp, rp

    def _undo(self, record) -> None:
        eid, prev_used, center, child, parent_root, _ = record
        if child >= 0:
            self.dsu_parent[center][child] = child
            self.dsu_size[center][parent_root] -= self.dsu_size[center][child]
            self.dsu_open[center][parent_root] -= self.dsu_open[center][child]
        walk = self.walk
        v = walk.pop()
        u = walk[-1]
        rv = self._find(v, self.loc[(v, u)])
        self.dsu_open[v][rv] += 1
        ru = self._find(u, self.loc[(u, v)])
        self.dsu_open[u][ru] += 1
        if prev_used == 1:
            self.open_edges += 1
        else:
            self.first_from[eid] = -1
        self.used[eid] = prev_used

    def run(self) -> Iterator[tuple[int, ...]]:
        require_connected(self.g)
        if self.m == 0:
            raise EmptyGraphError("a double trace needs at least one edge")
        if self._impossible_upfront():
            return
        walk = self.walk
        target_len = 2 * self.m + 1
        check_repetitions = self.spec.kind != "double"
        # antiparallel traces use each start edge exactly once outward, so
        # every trace has exactly one rotation beginning with the smallest
        # neighbor; pinning the first step drops the duplicate rotations
        if self.spec.direction == ANTIPARALLEL:
            first_moves = self.adj[0][:1]
        else:
            first_moves = self.adj[0]
        # each frame: [moves, next_index, record_of_entering_move]
        stack: list[list] = [[first_moves, 0, None]]
        while stack:
            frame = stack[-1]
            moves, idx = frame[0], frame[1]
            if idx >= len(moves):
                stack.pop()
                if frame[2] is not None:
                    self._undo(frame[2])
                continue
            frame[1] = idx + 1
            u = walk[-1]
            v, eid = moves[idx]
            if not self._step_allowed(u, eid):
                continue
            self.nodes += 1
            if self.budget is not None and self.nodes > self.budget:
                raise BudgetExhaustedError(self.nodes)
            record = self._apply(u, v, eid)
            if len(walk) == target_len:
                if v == 0 and self._final_ok():
                    candidate = tuple(self.labels[i] for i in walk[:-1])
                    yield min_rotation(candidate)
                self._undo(record)
                continue
            if (
                check_repetitions
                and record[2] > 0
                and self._sealed_prune(record[2], record[5])
            ) or (record[1] == 1 and self._reachability_prune(v)):
                self._undo(record)
                continue
            stack.append([self.adj[v], 0, record])

    def _final_ok(self) -> bool:
        """Spec check for a completed walk.

        Direction constraints were enforced per step, and every component at
        every vertex other than the start and the final link's center was
        screened when it sealed; those two vertices get the full check here
        (the start vertex gains its wrap-around link).
        """
        if self.spec.kind == "double":
            return True
        walk = self.walk
        if not self._component_sizes_ok(walk[-2]):
            return False
        return self._component_sizes_ok(0, extra_link=(walk[-2], walk[1]))


def _check_budget_required(g: Graph, budget: int | None) -> None:
    if budget is None and g.num_edges > UNBUDGETED_EDGE_LIMIT:
        raise ValueError(
            f"graphs with more than {UNBUDGETED_EDGE_LIMIT} edges need an "
            f"explicit search budget"
        )


def find_trace(g: Graph, spec: TraceSpec, budget: int | None = None) -> DoubleTrace | None:
    """First spec-satisfying double trace in deterministic DFS order.

    Returns ``None`` only after the complete search space was exhausted.
    Raises :class:`BudgetExhaustedError` when a budget was given and hit.
    """
    require_connected(g)
    _check_budget_required(g, budget)
    engine = _Engine(g, spec, budget)
    for seq in engine.run():
        return validate_double_trace(g, seq)
    return None


def enumerate_traces(g: Graph, spec: TraceSpec) -> list[DoubleTrace]:
    """All spec-satisfying traces up to rotation, in canonical sorted order.

    Reflections count as distinct traces since direction matters.  Intended
    for small hosts (|E| <= 12).
    """
    require_connected(g)
    engine = _Engine(g, spec, None)
    canonical = {seq for seq in engine.run()}
    return [DoubleTrace(g, seq) for seq in sorted(canonical)]


def euler_tour(g: Graph) -> list[int] | None:
    """Closed Euler tour as a vertex list (first == last), or None.

    Deterministic Hierholzer with smallest-neighbor-first expansion.
    """
    require_connected(g)
    if g.num_edges == 0:
        return None
    if any(g.degree(v) % 2 for v in g.vertices):
        return None
    remaining = {v: list(g.neighbors(v)) for v in g.vertices}
    used_edges: set[tuple[int, int]] = set()

    def take(u: int) -> int | None:
        while remaining[u]:
            w = remaining[u][0]
            key = (u, w) if u < w else (w, u)
            if key in used_edges:
                remaining[u].pop(0)
                continue
            used_edges.add(key)
            remaining[u].pop(0)
            return w
        return None

    start = g.vertices[0]
    stack = [start]
    tour: list[int] = []
    while stack:
        u = stack[-1]
        w = take(u)
        if w is None:
            tour.append(stack.pop())
        else:
            stack.append(w)
    tour.reverse()
    if len(tour) != g.num_edges + 1:
        return None
    return tour


def find_parallel_trace(
    g: Graph, d: int | None = None, *, budget: int | None = None
) -> DoubleTrace | None:
    """Parallel double trace, optionally d-stable.

    Doubles an Euler tour in the same direction; when that misses the
    requested stability, falls back to the complete backtracking search,
    which runs under ``budget`` as in :func:`find_trace`.  Returns ``None``
    iff the graph is not Eulerian or (d given and the minimum degree is at
    most d).
    """
    require_connected(g)
    if g.num_edges == 0:
        raise EmptyGraphError("a double trace needs at least one edge")
    tour = euler_tour(g)
    if tour is None:
        return None
    cycle = tour[:-1]
    trace = validate_double_trace(g, cycle + cycle)
    if d is None:
        return trace
    if g.min_degree() <= d:
        return None
    if classify_trace(trace).stability_order >= d:
        return trace
    return find_trace(g, TraceSpec("stable", PARALLEL, d), budget)
