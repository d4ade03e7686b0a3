"""Top-level decisions with certificates.

Each cell of the kind x direction matrix is decided by its exact structural
predicate, without a search: an antiparallel stable or strong yes carries a
qualifying spanning tree, and a no names the violated condition.  One
evaluator answers a single cell, the whole table, :func:`find_witness` and
the extraction alike.  It reads each graph fact (the minimum degree, the
degree parity, the Betti number) at most once, and only for a cell that
needs it, and one tree walk answers every antiparallel cell that reaches
the tree test.  Every entry point checks the host before the cell.
:func:`_witness` is the one place that turns a decided yes into a trace, by
construction or by search.  The constructive pipeline starts from the
certificate's tree and builds an antiparallel d-stable trace by repeatedly
splitting a high-degree vertex inside an odd co-tree component until the
co-tree is all even, finding an antiparallel strong trace there, and
lifting it back through the identifications; the reverse extraction
projects a trace along its repetition sets and pulls an all-even tree back
up.
"""

from __future__ import annotations

from .errors import InternalInvariantError, NotAntiparallelError, NotStableError
from .graph import Graph, _Value, betti_number, edge_connectivity, fresh_vertex_ids, require_connected
from .search import find_trace
from .spanning import (
    SpanningTree,
    _first_tree,
    cotree_decomposition,
    qualified_deficiency_of_tree,
)
from .transform import (
    lift_trace_through_identification,
    project_trace_through_split,
    split_reduce_qualified,
    transfer_tree_on_identification,
)
from .walks import (
    ANTIPARALLEL,
    DIRECTIONS,
    PARALLEL,
    DoubleTrace,
    TraceSpec,
    classify_trace,
    require_trace_host,
    spec_satisfied,
    transition_graph_at,
    validate_double_trace,
)

MIN_DEGREE = "MinDegree"
NOT_EULERIAN = "NotEulerian"
NO_QUALIFIED_TREE = "NoQualifiedTree"
PARITY_OBSTRUCTION = "ParityObstruction"


class DecisionCertificate(_Value):
    """Outcome of one matrix cell, with re-checkable evidence (a mutable value)."""

    def __init__(
        self, verdict: bool, spec: TraceSpec, witness_tree: SpanningTree | None = None,
        violated_condition: str | None = None, condition_detail: dict | None = None,
    ):
        self.verdict = verdict
        self.spec = spec
        self.witness_tree = witness_tree
        self.violated_condition = violated_condition
        self.condition_detail = {} if condition_detail is None else condition_detail

    def _key(self):
        return (
            self.verdict, self.spec, self.witness_tree, self.violated_condition,
            self.condition_detail,
        )

    def __repr__(self) -> str:
        return (
            "DecisionCertificate(verdict=%r, spec=%r, witness_tree=%r, "
            "violated_condition=%r, condition_detail=%r)" % self._key()
        )

    def condition_label(self) -> str:
        if self.verdict:
            return "yes"
        if self.violated_condition == NO_QUALIFIED_TREE:
            threshold = self.condition_detail.get("threshold")
            if threshold is not None:
                return f"{NO_QUALIFIED_TREE}(D={threshold})"
        return self.violated_condition or "no"


def _no(spec, condition, **detail) -> DecisionCertificate:
    return DecisionCertificate(
        verdict=False, spec=spec, violated_condition=condition, condition_detail=detail
    )


def _doubled_euler_tour(g: Graph) -> DoubleTrace:
    """An Euler tour of a connected Eulerian graph, walked twice.

    Hierholzer from the least vertex, always leaving by the least unused
    edge.  The doubled tour is a parallel trace and exactly 1-stable: each
    visit of a simple graph's vertex pairs two distinct neighbours, and the
    second pass repeats the pair, so each transition component is the pair
    of one visit.  A pair is the whole neighbourhood only at a vertex of
    degree 2, so the trace is strong only on a cycle.
    """
    unused = {v: list(reversed(g.neighbors(v))) for v in g.vertices}  # least last
    stale: set[tuple[int, int]] = set()  # (w, u): w's entry for a walked edge
    stack = [g.vertices[0]]
    tour: list[int] = []
    while stack:
        u = stack[-1]
        out = unused[u]
        while out and (u, out[-1]) in stale:
            out.pop()
        if out:
            w = out.pop()
            stale.add((w, u))
            stack.append(w)
        else:
            tour.append(stack.pop())
    cycle = tour[:0:-1]  # walking order, without the closing start vertex
    return validate_double_trace(g, cycle + cycle)


def decide_existence(
    g: Graph, kind: str, direction: str = "any", d: int | None = None
) -> DecisionCertificate:
    """Decide one cell of the matrix by its structural predicate.

    Predicates: plain and antiparallel double traces and strong traces exist
    for every connected graph; parallel cells require an Eulerian graph;
    stability requires minimum degree above d; antiparallel stability
    additionally requires a spanning tree whose odd co-tree components each
    contain a vertex of degree at least 2d + 2; antiparallel strong traces
    require an all-even co-tree tree.

    Antiparallel stable and strong yes-cells carry that tree; the decision
    never searches, and :func:`find_witness` turns a yes into a trace.
    """
    require_trace_host(g)
    return _decide_cells(g, [TraceSpec(kind, direction, d)])[0]


def _decide_cells(g: Graph, specs: list[TraceSpec]) -> list[DecisionCertificate]:
    """The certificate of each of ``specs``, in order, on a host that has
    passed ``require_trace_host``.

    The minimum degree, the degree parity and the Betti number are each read
    at most once, on the first cell that needs them.  The antiparallel cells
    that reach the tree test, a stable one at 2d + 2 once its degree rule
    passes and the strong one at None on an even Betti number, share one
    walk; every tree qualified at None has value 0, so the first is the
    least.
    """
    min_degree = eulerian = betti = None
    certs = []
    walk: dict[int, int | None] = {}  # cell position -> tree threshold
    for i, spec in enumerate(specs):
        if spec.kind == "stable":
            if min_degree is None:
                min_degree = g.min_degree()
            if min_degree <= spec.d:
                certs.append(_no(spec, MIN_DEGREE, min_degree=min_degree))
                continue
        if spec.direction == PARALLEL:
            if eulerian is None:
                eulerian = not any(n % 2 for n in map(len, g.adjacency.values()))
            if not eulerian:
                certs.append(_no(spec, NOT_EULERIAN))
                continue
        elif spec.direction == ANTIPARALLEL and spec.kind == "stable":
            walk[i] = 2 * spec.d + 2
        elif spec.direction == ANTIPARALLEL and spec.kind == "strong":
            if betti is None:
                betti = betti_number(g)
            if betti % 2 == 1:
                certs.append(_no(spec, PARITY_OBSTRUCTION, betti=betti))
                continue
            walk[i] = None
        certs.append(DecisionCertificate(verdict=True, spec=spec))
    trees = _first_tree(g, list(walk.values()), False) if walk else ()
    for (i, threshold), found in zip(walk.items(), trees):
        if found is None:
            certs[i] = _no(specs[i], NO_QUALIFIED_TREE, threshold=threshold)
        else:
            certs[i].witness_tree = found[1]
    return certs


def find_witness(
    g: Graph,
    kind: str,
    direction: str = "any",
    d: int | None = None,
    *,
    budget: int | None = None,
) -> DoubleTrace | None:
    """A trace in one cell of the matrix, or None when the cell is a no.

    The cell is decided first, host before cell as in
    :func:`decide_existence`, and a no is answered without searching; a yes
    takes its trace from :func:`_witness`.  Any search runs under
    ``budget``; no budget means ``search.DEFAULT_BUDGET``.
    """
    require_trace_host(g)
    spec = TraceSpec(kind, direction, d)  # validates the cell coordinates
    return _witness(g, _decide_cells(g, [spec])[0], budget)


def _witness(g: Graph, cert: DecisionCertificate, budget: int | None) -> DoubleTrace | None:
    """The trace of a cell already decided on ``g``: None for a no.

    An antiparallel stable or strong yes is built from its certificate's
    tree by :func:`_build_from_tree`.  A parallel yes takes the doubled
    Euler tour when it satisfies the cell (double, d = 1, strong on a
    cycle).  The cells with no construction, every cell of direction any,
    double antiparallel, parallel d >= 2 and parallel strong off a cycle,
    search under ``budget``.
    """
    spec = cert.spec
    if not cert.verdict:
        return None
    if cert.witness_tree is not None:
        return _build_from_tree(cert.witness_tree, spec, budget)
    if spec.direction == PARALLEL:
        # the graph is connected and Eulerian here, so the doubled tour exists
        trace = _doubled_euler_tour(g)
        if spec_satisfied(spec, classify_trace(trace)):
            return trace
    trace = find_trace(g, spec, budget)
    if trace is None:
        raise InternalInvariantError(
            f"predicate says yes but the complete search found no trace for {spec}"
        )
    return trace


def _build_from_tree(tree: SpanningTree, spec: TraceSpec, budget: int | None) -> DoubleTrace:
    """An antiparallel trace in ``spec``'s cell from a tree qualified for it.

    While the co-tree has an odd component, split the least vertex of
    degree >= 2d + 2 inside one (strictly reducing the qualified deficiency)
    and go on with the split graph and its tree.  The fully reduced graph
    has an all-even co-tree, where an antiparallel strong trace exists and
    is d-stable because all degrees stay above d; that trace is lifted back
    through the identifications, the last split first, and checked in the
    cell.  A tree with no odd component, as every strong cell's is, needs
    no split: its trace is the search on the host itself.
    """
    threshold = 2 * spec.d + 2 if spec.kind == "stable" else None
    splits: list[tuple[tuple[int, ...], int]] = []
    while odd := [c for c in cotree_decomposition(tree) if c.is_odd]:
        v = min(
            (x for comp in odd for x in comp.vertices if tree.host.degree(x) >= threshold),
            default=None,
        )
        if v is None:
            raise InternalInvariantError(
                "odd component lost its high-degree vertex during the induction"
            )
        splits.append((fresh_vertex_ids(tree.host, 2), v))
        tree = split_reduce_qualified(tree, v, threshold)
    trace = find_trace(tree.host, TraceSpec("strong", ANTIPARALLEL), budget)
    if trace is None:
        raise InternalInvariantError(
            "all-even co-tree but no antiparallel strong trace found"
        )
    for new_vertices, v in reversed(splits):
        trace = lift_trace_through_identification(trace, new_vertices, v)
    if splits:
        cls = classify_trace(trace)
        if not spec_satisfied(spec, cls):
            raise InternalInvariantError(f"pipeline produced a non-conforming trace: {cls}")
    return trace


def extract_qualified_tree_from_trace(w: DoubleTrace, d: int) -> SpanningTree:
    """Turn an antiparallel d-stable trace into a qualifying spanning tree.

    Projects the trace through a split of each vertex whose transition graph
    is disconnected (the least one first) along its minimal repetition sets,
    which leaves it strong, takes the evaluator's all-even co-tree tree of
    the strong cell there, and transfers the tree back through the
    identifications, the last projection first.  Every odd component of the
    result contains a vertex of degree at least 2d + 2 (and there may be
    none at all).
    """
    TraceSpec("stable", ANTIPARALLEL, d)  # validates d
    cls = classify_trace(w)
    if cls.direction != ANTIPARALLEL:
        raise NotAntiparallelError("trace is not antiparallel")
    if cls.stability_order < d:
        raise NotStableError(d)
    threshold = 2 * d + 2
    # A projection at v leaves v's copies connected and only renames v at its
    # neighbors, so the first classification names every vertex to project;
    # the parts are read from the current trace, which carries those renames.
    projections: list[tuple[Graph, int, tuple[int, ...]]] = []
    for v in sorted(
        x for x, comps in cls.minimal_repetitions.items() if len(comps) > 1
    ):
        g = w.host
        parts = transition_graph_at(w, v)
        projections.append((g, v, fresh_vertex_ids(g, len(parts))))
        w = project_trace_through_split(w, v, parts)
    strong = TraceSpec("strong", ANTIPARALLEL)
    if not spec_satisfied(strong, classify_trace(w)):
        raise InternalInvariantError("projected trace is not strong")
    tree = _decide_cells(w.host, [strong])[0].witness_tree
    if tree is None:
        raise InternalInvariantError(
            "strong antiparallel trace exists but no all-even co-tree tree found"
        )
    for g, v, new_ids in reversed(projections):
        g2 = tree.host
        protected = frozenset(
            x for x in g2.vertices if g2.degree(x) >= threshold and x not in new_ids
        )
        tree = transfer_tree_on_identification(tree, new_ids, v, protected)
        if tree.host != g or qualified_deficiency_of_tree(tree, threshold) is None:
            raise InternalInvariantError(
                "transferred tree is not a qualified tree of the identified graph"
            )
    return tree


def sufficient_four_edge_connected(g: Graph, d: int) -> bool:
    """Cheap sufficient test: 4-edge-connected, min degree above d, and a
    vertex of degree at least 2d + 2 or an even Betti number.

    Never contradicts :func:`decide_existence`: True implies the antiparallel
    d-stable cell is a yes.
    """
    require_connected(g)
    TraceSpec("stable", ANTIPARALLEL, d)  # validates d
    if g.num_vertices < 2:
        return False
    if g.min_degree() <= d:
        return False
    if edge_connectivity(g) < 4:
        return False
    return g.max_degree() >= 2 * d + 2 or betti_number(g) % 2 == 0


def condition_table(
    g: Graph, d_values: list[int]
) -> dict[tuple[str, str, int | None], DecisionCertificate]:
    """All nine cells of the matrix; stable cells once per requested d.

    Each cell is :func:`decide_existence`'s certificate for it alone; the
    host is checked once, and one evaluator call answers every cell.
    """
    require_trace_host(g)
    specs = [
        TraceSpec(kind, direction, d)
        for direction in DIRECTIONS
        for kind, d in (("double", None), *(("stable", d) for d in d_values), ("strong", None))
    ]
    return {(c.spec.kind, c.spec.direction, c.spec.d): c for c in _decide_cells(g, specs)}
