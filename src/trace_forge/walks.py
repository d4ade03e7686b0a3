"""Double traces and their repetition calculus.

A double trace is a closed walk using every edge of its host exactly twice.
For a vertex v, the local transition graph pairs the predecessor and the
successor of each visit of v; its connected components are the minimal
non-empty repetition sets, and every repetition is a union of components.
The stability order of a trace is the largest d such that no vertex carries
a repetition of size between 1 and d.

A cell of the kind x direction matrix, :class:`TraceSpec`, is defined by
what :func:`classify_trace` computes, and :func:`spec_satisfied` reads one
classification against one cell.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import chain

from .errors import (
    EmptyGraphError,
    NonAdjacentStepError,
    UnknownVertexError,
    WrongLengthError,
    WrongMultiplicityError,
)
from .graph import Graph, _Frozen, _vertex_ids, edge_key, require_connected

PARALLEL = "parallel"
ANTIPARALLEL = "antiparallel"
MIXED = "mixed"

KINDS = ("double", "stable", "strong")
DIRECTIONS = ("any", PARALLEL, ANTIPARALLEL)


def min_rotation(seq: Sequence[int]) -> tuple[int, ...]:
    """Lexicographically minimal rotation; reflections are left alone.

    The least rotation starts at an occurrence of the least element, so the
    cyclic sequence is cut there into blocks, each starting with the least
    element and holding it once.  Comparing two rotations block by block as
    tuples orders them as comparing element by element does: where two
    blocks first differ they differ inside both, or the shorter one ends
    and the least element that follows it is below the longer one's next
    entry, which is a tuple's prefix order.  A two-index scan runs over the
    blocks: starts i and j are the two candidates still standing and k is
    the length of their common prefix.  At the first mismatch the start
    with the larger block loses, and so does every start up to k past it,
    each beaten by its counterpart from the other start; so the scan ends
    after O(blocks) comparisons, and each occurrence and block is found by
    C-level ``index`` and slicing.
    """
    seq = tuple(seq)
    if not seq:
        return seq
    least = min(seq)
    cuts = [seq.index(least)]
    for _ in range(seq.count(least) - 1):
        cuts.append(seq.index(least, cuts[-1] + 1))
    blocks = [seq[a:b] for a, b in zip(cuts, cuts[1:])]
    blocks.append(seq[cuts[-1]:] + seq[: cuts[0]])
    n = len(blocks)
    doubled = blocks + blocks
    i, j, k = 0, 1, 0
    while i < n and j < n and k < n:
        a, b = doubled[i + k], doubled[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    start = cuts[min(i, j)]
    return seq[start:] + seq[:start]


def _transition_components(
    seq: tuple[int, ...], adjacency: dict[int, tuple[int, ...]]
) -> dict[int, tuple[tuple[int, ...], ...]] | None:
    """Each vertex of the host with this ``adjacency`` -> the components of
    its transition graph, each a sorted tuple, ordered by least element;
    None when ``seq`` is no double trace of that host.

    One pass over the cyclic sequence gives each neighbour of each vertex
    its link partners there: a visit of x from p to s makes s a partner of
    p and p one of s at x (a self-link makes p its own partner twice).  A
    missing key means a step that is no edge or an id that is no vertex.  A
    step u -> v gives u one partner at v and v one at u, so each end holds
    as many partners at the other as the edge has traversals.  Every
    neighbour holding exactly two then proves a non-empty ``seq`` a double
    trace: every step is an edge, every edge is walked twice, and the
    closed walk reaches every neighbour of each vertex it visits, so with
    no isolated vertex it reaches them all and the host is connected.

    Each transition graph is then a union of cycles.  Each cycle is walked
    from its least node not yet reached, taking at every node the partner
    it did not come from, so cycles come in order of least element; a node
    without exactly two partners stops the walk.
    """
    if not seq or not all(adjacency.values()):
        return None
    partners = {v: {u: [] for u in row} for v, row in adjacency.items()}
    per_vertex = {}
    try:
        for p, x, s in zip(seq[-1:] + seq[:-1], seq, seq[1:] + seq[:1]):
            at = partners[x]
            at[p].append(s)
            at[s].append(p)
        for v, row in adjacency.items():
            at = partners[v]
            cycles = []
            for start in row:
                if start not in at:
                    continue
                cur, _ = at.pop(start)
                prev, cycle = start, [start]
                while cur != start:
                    cycle.append(cur)
                    a, b = at.pop(cur)
                    prev, cur = cur, b if a == prev else a
                cycles.append(cycle)
            per_vertex[v] = (
                (row,) if len(cycles) == 1 else tuple(tuple(sorted(c)) for c in cycles)
            )
    except (KeyError, ValueError):
        return None
    return per_vertex


class DoubleTrace(_Frozen):
    """A double trace, stored as its minimal rotation.

    The sequence is cyclic: the first vertex implicitly follows the last, and
    no terminal vertex is repeated in storage.  Making one proves it, as
    :func:`validate_double_trace` describes, so every value is a proved
    trace, and keeps each host vertex's minimal repetitions in order.
    """

    def __init__(self, host: Graph, sequence: Sequence[int]):
        try:
            seq = _vertex_ids(sequence)
        except (TypeError, ValueError):
            require_trace_host(host)  # a host without a trace is reported first
            raise
        rotated = min_rotation(seq)
        reps = _transition_components(rotated, host.adjacency)
        if reps is None:
            _raise_first_fault(host, seq)
        self.__dict__.update(host=host, sequence=rotated, _repetitions=reps)

    def _key(self):
        return self.host, self.sequence

    @property
    def length(self) -> int:
        return len(self.sequence)

    def visits(self, v: int) -> Iterator[tuple[int, int]]:
        """(predecessor, successor) for every cyclic visit of v, in sequence
        order; an id outside the host raises :class:`UnknownVertexError`."""
        if v not in self.host.adjacency:
            raise UnknownVertexError(f"vertex {v} not in host")
        seq = self.sequence
        links = zip(seq[-1:] + seq[:-1], seq[1:] + seq[:1])
        return (link for x, link in zip(seq, links) if x == v)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DoubleTrace({' '.join(map(str, self.sequence))})"


class TraceClass(_Frozen):
    """Where a trace sits in the kind/direction matrix.

    ``minimal_repetitions`` maps each vertex, in ascending order, to the
    components of its transition graph, each a sorted tuple, ordered by least
    element; it takes no part in equality, hashing or the repr.
    """

    def __init__(self, direction: str, stability_order: int, strong: bool, minimal_repetitions: dict):
        self.__dict__.update(
            direction=direction, stability_order=stability_order, strong=strong,
            minimal_repetitions=minimal_repetitions,
        )

    def _key(self):
        return self.direction, self.stability_order, self.strong

    def __repr__(self) -> str:
        return "TraceClass(direction=%r, stability_order=%r, strong=%r)" % self._key()


def require_trace_host(g: Graph) -> None:
    """Reject a host that has no double trace: it must be connected, then
    have at least one edge."""
    require_connected(g)
    if g.num_edges == 0:
        raise EmptyGraphError("a double trace needs at least one edge")


def validate_double_trace(g: Graph, sequence: Sequence[int]) -> DoubleTrace:
    """Check a cyclic vertex sequence and return the canonical trace.

    The walk that finds the transition cycles of the least rotation at
    every vertex proves a sequence a double trace by itself (see
    :func:`_transition_components`), and its cycles are kept on the
    returned trace as its minimal repetitions.

    Any other sequence is checked in order: the host is connected and has
    edges, the vertices are in the host, the length is 2|E|, and every
    cyclic step is an edge not yet traversed twice; the first check that
    fails raises.  An id that is no integer is reported after the host.
    """
    return DoubleTrace(g, sequence)


def _raise_first_fault(g: Graph, seq: tuple[int, ...]) -> None:
    """Raise what is wrong with ``seq`` as a double trace of ``g``, checked
    in order, with the step index of a bad step.  Past the step scan every
    edge appears exactly twice: 2|E| traversals over |E| edges, none more
    than two, leave none with fewer."""
    require_trace_host(g)
    adjacency = g.adjacency
    if not adjacency.keys() >= set(seq):
        x = next(x for x in seq if x not in adjacency)
        raise UnknownVertexError(f"vertex {x} not in host")
    if len(seq) != 2 * g.num_edges:
        raise WrongLengthError(
            f"sequence length {len(seq)} != 2|E| = {2 * g.num_edges}"
        )
    edges = g.edge_set
    counts: dict[tuple[int, int], int] = {}
    for i, (u, v) in enumerate(zip(seq, seq[1:] + seq[:1])):
        key = (u, v) if u < v else (v, u)
        seen = counts.get(key, 0)
        if not seen and key not in edges:
            raise NonAdjacentStepError(i, u, v)
        if seen == 2:
            # reported at the step where the third traversal happens
            raise WrongMultiplicityError(key, 3)
        counts[key] = seen + 1


def direction_profile(w: DoubleTrace) -> dict[tuple[int, int], str]:
    """Per-edge parallel/antiparallel label.

    An edge is parallel when both traversals run in the same direction,
    antiparallel otherwise.
    """
    first_dir: dict[tuple[int, int], tuple[int, int]] = {}
    profile: dict[tuple[int, int], str] = {}
    seq = w.sequence
    for u, v in zip(seq, seq[1:] + seq[:1]):
        key = edge_key(u, v)
        if key not in first_dir:
            first_dir[key] = (u, v)
        else:
            profile[key] = PARALLEL if first_dir[key] == (u, v) else ANTIPARALLEL
    return profile


def trace_direction(w: DoubleTrace) -> str:
    """The trace's direction class, from one count of its directed steps.

    Every edge is traversed twice: a parallel edge takes one directed step
    twice, an antiparallel edge two opposite steps once each.  So the
    distinct directed steps number 2|E| minus the parallel edges.
    """
    seq = w.sequence
    distinct = len(set(zip(seq, seq[1:] + seq[:1])))
    if distinct == w.host.num_edges:
        return PARALLEL
    if distinct == len(seq):
        return ANTIPARALLEL
    return MIXED


def transition_graph_at(w: DoubleTrace, v: int) -> tuple[tuple[int, ...], ...]:
    """The minimal repetitions at v: the components of v's transition graph,
    each a sorted tuple, ordered by least element.

    The transition graph's nodes are v's neighbors, and each visit links its
    predecessor to its successor (a self-link when they agree), so every
    neighbor ends exactly two links.  v's pairing is connected exactly when
    one component comes back.  They are read from the components the trace
    keeps.
    """
    if v not in w.host.adjacency:
        raise UnknownVertexError(f"vertex {v} not in host")
    return w._repetitions[v]


def classify_trace(w: DoubleTrace) -> TraceClass:
    """Direction, stability order, strong flag and minimal repetitions.

    The minimal repetitions at v are the components of its transition graph.
    The stability order is the largest d such that no vertex has a repetition
    of size in [1, d]; it is always finite, bounded above by the host's
    minimum degree minus one.  Every component is a repetition, a connected
    pairing's one component included (it holds all d(v) neighbors), so the
    order is the least component size minus one.  The trace is strong when
    every transition graph is connected: no vertex has a second component.
    Each vertex's components are those :func:`transition_graph_at` returns;
    the map is a copy of the one the trace keeps.
    """
    per_vertex = dict(w._repetitions)
    return TraceClass(
        direction=trace_direction(w),
        stability_order=min(map(len, chain.from_iterable(per_vertex.values()))) - 1,
        strong=max(map(len, per_vertex.values())) == 1,
        minimal_repetitions=per_vertex,
    )


class TraceSpec(_Frozen):
    """A cell of the kind x direction matrix."""

    def __init__(self, kind: str, direction: str = "any", d: int | None = None):
        self.__dict__.update(kind=kind, direction=direction, d=d)
        if kind not in KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        if direction not in DIRECTIONS:
            raise ValueError(f"unknown direction {direction!r}")
        if kind == "stable":
            # an exact type test: bool is an int subclass, and True is no order
            if d is not None and type(d) is not int:
                raise ValueError(f"stable kind needs an integer d, got {d!r}")
            if d is None or d < 1:
                raise ValueError("stable kind needs d >= 1")
        elif d is not None:
            raise ValueError(f"kind {kind!r} takes no d")

    def _key(self):
        return self.kind, self.direction, self.d

    def __repr__(self) -> str:
        return "TraceSpec(kind=%r, direction=%r, d=%r)" % self._key()


def spec_satisfied(spec: TraceSpec, cls: TraceClass) -> bool:
    """Whether a trace classified as ``cls`` lies in the cell ``spec``."""
    if spec.kind == "stable" and cls.stability_order < spec.d:
        return False
    if spec.kind == "strong" and not cls.strong:
        return False
    if spec.direction != "any" and cls.direction != spec.direction:
        return False
    return True
