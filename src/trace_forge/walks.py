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

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

from .errors import (
    EmptyGraphError,
    NonAdjacentStepError,
    UnknownVertexError,
    WrongLengthError,
    WrongMultiplicityError,
)
from .graph import Graph, _find_root, edge_key, require_connected

PARALLEL = "parallel"
ANTIPARALLEL = "antiparallel"
MIXED = "mixed"

KINDS = ("double", "stable", "strong")
DIRECTIONS = ("any", PARALLEL, ANTIPARALLEL)


def min_rotation(seq: Sequence[int]) -> tuple[int, ...]:
    """Lexicographically minimal rotation; reflections are left alone.

    A two-index scan: starts i and j are the two candidates still standing
    and k is the length of their common prefix.  At the first mismatch the
    start with the larger entry loses, and so does every start up to k past
    it, each beaten by its counterpart from the other start; so the scan
    ends after O(len(seq)) comparisons and needs no auxiliary array.
    """
    seq = tuple(seq)
    n = len(seq)
    doubled = seq + seq
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
    start = min(i, j)
    return seq[start:] + seq[:start]


@dataclass(frozen=True)
class DoubleTrace:
    """A validated double trace, stored as its minimal rotation.

    The sequence is cyclic: the first vertex implicitly follows the last, and
    no terminal vertex is repeated in storage.
    """

    host: Graph
    sequence: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.sequence)

    def steps(self) -> Iterator[tuple[int, int]]:
        """All directed steps (v_i, v_{i+1}), indices mod length."""
        n = len(self.sequence)
        for i in range(n):
            yield self.sequence[i], self.sequence[(i + 1) % n]

    @cached_property
    def _visit_index(self) -> dict[int, list[tuple[int, int]]]:
        """vertex -> (predecessor, successor) of each visit, in sequence order;
        built in one pass over the sequence."""
        seq = self.sequence
        index: dict[int, list[tuple[int, int]]] = {}
        for pred, x, succ in zip(seq[-1:] + seq[:-1], seq, seq[1:] + seq[:1]):
            index.setdefault(x, []).append((pred, succ))
        return index

    def visits(self, v: int) -> Iterator[tuple[int, int]]:
        """(predecessor, successor) for every cyclic visit of v."""
        return iter(self._visit_index.get(v, ()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DoubleTrace({' '.join(map(str, self.sequence))})"


@dataclass(frozen=True)
class TransitionGraph:
    """Pairing of predecessors and successors at one vertex.

    Nodes are the neighbors of the center; each visit contributes one
    unordered link {pred, succ} (a self-link when pred == succ).  The link
    count equals the center's degree and every neighbor appears as an
    endpoint exactly twice, counting multiplicity.
    """

    center: int
    nodes: tuple[int, ...]
    links: tuple[tuple[int, int], ...]

    @cached_property
    def components(self) -> tuple[frozenset[int], ...]:
        parent = {x: x for x in self.nodes}
        for a, b in self.links:
            ra, rb = _find_root(parent, a), _find_root(parent, b)
            if ra != rb:
                parent[ra] = rb
        groups: dict[int, set[int]] = {}
        for x in self.nodes:
            groups.setdefault(_find_root(parent, x), set()).add(x)
        return tuple(
            sorted((frozenset(grp) for grp in groups.values()), key=min)
        )

    @property
    def is_connected(self) -> bool:
        return len(self.components) == 1


@dataclass(frozen=True)
class TraceClass:
    """Where a trace sits in the kind/direction matrix.

    ``minimal_repetitions`` maps each vertex to the components of its
    transition graph; it takes no part in equality, hashing or the repr.
    """

    direction: str
    stability_order: int
    strong: bool
    minimal_repetitions: dict[int, tuple[frozenset[int], ...]] = field(
        repr=False, compare=False
    )


def validate_double_trace(g: Graph, sequence: Sequence[int]) -> DoubleTrace:
    """Check a cyclic vertex sequence and return the canonical trace.

    Checks, in order: the host has edges, the vertices are in the host, the
    length is 2|E|, and every cyclic step is an edge not yet traversed twice.
    Then every edge appears exactly twice: 2|E| traversals over |E| edges,
    none more than two, leave none with fewer.
    """
    require_connected(g)
    if g.num_edges == 0:
        raise EmptyGraphError("a double trace needs at least one edge")
    seq = tuple(int(x) for x in sequence)
    for x in seq:
        if x not in g.adjacency:
            raise UnknownVertexError(f"vertex {x} not in host")
    if len(seq) != 2 * g.num_edges:
        raise WrongLengthError(
            f"sequence length {len(seq)} != 2|E| = {2 * g.num_edges}"
        )
    counts: Counter[tuple[int, int]] = Counter()
    n = len(seq)
    for i in range(n):
        u, v = seq[i], seq[(i + 1) % n]
        if not g.has_edge(u, v):
            raise NonAdjacentStepError(i, u, v)
        key = edge_key(u, v)
        counts[key] += 1
        if counts[key] > 2:
            # reported at the step where the third traversal happens
            raise WrongMultiplicityError(key, counts[key])
    return DoubleTrace(g, min_rotation(seq))


def direction_profile(w: DoubleTrace) -> dict[tuple[int, int], str]:
    """Per-edge parallel/antiparallel label.

    An edge is parallel when both traversals run in the same direction,
    antiparallel otherwise.
    """
    first_dir: dict[tuple[int, int], tuple[int, int]] = {}
    profile: dict[tuple[int, int], str] = {}
    for u, v in w.steps():
        key = edge_key(u, v)
        if key not in first_dir:
            first_dir[key] = (u, v)
        else:
            profile[key] = PARALLEL if first_dir[key] == (u, v) else ANTIPARALLEL
    return profile


def trace_direction(w: DoubleTrace) -> str:
    labels = set(direction_profile(w).values())
    if labels == {PARALLEL}:
        return PARALLEL
    if labels == {ANTIPARALLEL}:
        return ANTIPARALLEL
    return MIXED


def transition_graph_at(w: DoubleTrace, v: int) -> TransitionGraph:
    """Build the pred/succ pairing at v from all cyclic visits."""
    if v not in w.host.adjacency:
        raise UnknownVertexError(f"vertex {v} not in host")
    links = sorted(edge_key(p, s) for p, s in w.visits(v))
    return TransitionGraph(v, w.host.neighbors(v), tuple(links))


def classify_trace(w: DoubleTrace) -> TraceClass:
    """Direction, stability order, strong flag and minimal repetitions.

    The minimal repetitions at v are the components of its transition graph.
    The stability order is the largest d such that no vertex has a repetition
    of size in [1, d]; it is always finite, bounded above by the host's
    minimum degree minus one.  The trace is strong when every transition
    graph is connected.
    """
    per_vertex = {v: transition_graph_at(w, v).components for v in w.host.vertices}
    # At v: with a connected pairing only the trivial repetitions exist, so the
    # bound is d(v) - 1; otherwise the smallest component is itself a
    # repetition, giving (min component size) - 1.
    order = min(
        (w.host.degree(v) if len(comps) == 1 else min(map(len, comps))) - 1
        for v, comps in per_vertex.items()
    )
    return TraceClass(
        direction=trace_direction(w),
        stability_order=order,
        strong=all(len(comps) == 1 for comps in per_vertex.values()),
        minimal_repetitions=per_vertex,
    )


@dataclass(frozen=True)
class TraceSpec:
    """A cell of the kind x direction matrix."""

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
    """Whether a trace classified as ``cls`` lies in the cell ``spec``."""
    if spec.kind == "stable" and cls.stability_order < spec.d:
        return False
    if spec.kind == "strong" and not cls.strong:
        return False
    if spec.direction != "any" and cls.direction != spec.direction:
        return False
    return True
