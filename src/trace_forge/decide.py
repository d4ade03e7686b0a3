"""Top-level decisions with certificates.

Each cell of the kind x direction matrix is decided by its exact structural
predicate, without a search: an antiparallel stable or strong yes carries a
qualifying spanning tree, and a no names the violated condition.  One
evaluator answers a single cell, the whole table, :func:`find_witness` and
the extraction alike.  It reads each graph fact (the minimum degree, the
degree parity, the Betti number) at most once, and only for a cell that
needs it, and one tree walk answers every antiparallel cell that reaches
the tree test.  Every entry point checks the host before the cell.
:func:`_witness` is the one place that turns a decided yes into a trace, with
one construction per cell class.  A parallel yes copy-swaps an Euler
circuit; a double yes inserts a detour per co-tree edge into a spanning
tree walk; a stable or strong yes of direction any twists each co-tree edge
into the same walk.  The antiparallel pipeline starts from the
certificate's tree and builds an antiparallel d-stable trace by repeatedly
splitting a high-degree vertex inside an odd co-tree component until the
co-tree is all even, finding an antiparallel strong trace there by search,
and lifting it back through the identifications.  The reverse extraction
checks a trace's class and returns the evaluator's certificate tree for its
cell, which the characterization guarantees.
"""

from __future__ import annotations

from .errors import InternalInvariantError, NotAntiparallelError, NotStableError
from .graph import Graph, _Value, betti_number, edge_connectivity, fresh_vertex_ids, require_connected
from .search import find_trace
from .spanning import (
    SpanningTree,
    _first_tree,
    cotree_decomposition,
)
from .transform import lift_trace_through_identification, split_reduce_qualified
from .walks import (
    ANTIPARALLEL,
    DIRECTIONS,
    PARALLEL,
    DoubleTrace,
    TraceSpec,
    classify_trace,
    require_trace_host,
    spec_satisfied,
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
    """The certificate of each of ``specs``, in order, on a connected host:
    one that passed ``require_trace_host``, or a trace's host.

    The minimum degree, the degree parity and the Betti number |E| - |V| + 1
    are each read at most once, on the first cell that needs them.  The
    antiparallel cells that reach the tree test, a stable one at 2d + 2 once
    its degree rule passes and the strong one at None on an even Betti
    number, share one walk; every tree qualified at None has value 0, so
    the first is the least.
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
                betti = g.num_edges - g.num_vertices + 1
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
    takes its trace from :func:`_witness`.  Only an antiparallel stable or
    strong yes searches, for the strong trace of its reduced graph, under
    ``budget``; no budget means ``search.DEFAULT_BUDGET``.  Every other yes
    is built without a search.
    """
    require_trace_host(g)
    spec = TraceSpec(kind, direction, d)  # validates the cell coordinates
    return _witness(g, _decide_cells(g, [spec])[0], budget)


def _witness(g: Graph, cert: DecisionCertificate, budget: int | None) -> DoubleTrace | None:
    """The trace of a cell already decided on ``g``: None for a no.

    Each yes has one construction.  An antiparallel stable or strong yes is
    built from its certificate's tree by :func:`_build_from_tree`, whose
    strong search runs under ``budget``.  A parallel yes takes
    :func:`_copy_swap`, a double yes :func:`_detour`, and a stable or strong
    yes of direction any :func:`_twisted`.  Every trace is classified, and
    one outside its cell raises :class:`InternalInvariantError`.
    """
    if not cert.verdict:
        return None
    spec = cert.spec
    if cert.witness_tree is not None:
        trace = _build_from_tree(cert.witness_tree, spec, budget)
    elif spec.direction == PARALLEL:
        trace = _copy_swap(g)
    elif spec.kind == "double":
        trace = _detour(g)
    else:
        trace = _twisted(g)
    cls = classify_trace(trace)
    if not spec_satisfied(spec, cls):
        raise InternalInvariantError(f"{spec} built a trace outside its cell: {cls}")
    return trace


def _tree_walk(g: Graph) -> tuple[list[int], list[tuple[int, int]]]:
    """The closed walk around a depth-first spanning tree of a connected
    graph, from the least vertex by ascending neighbours, without its
    closing vertex, and the co-tree edges.

    The walk takes each tree edge once down and once up.  At each vertex it
    links the tree neighbours in one cycle, so it is a strong antiparallel
    double trace of the tree.
    """
    adjacency = g.adjacency
    root = g.vertices[0]
    seen = {root}
    tree = set()
    walk = [root]
    stack = [(root, iter(adjacency[root]))]
    while stack:
        v, pending = stack[-1]
        for w in pending:
            if w not in seen:
                seen.add(w)
                tree.add((v, w) if v < w else (w, v))
                walk.append(w)
                stack.append((w, iter(adjacency[w])))
                break
        else:
            stack.pop()
            if stack:
                walk.append(stack[-1][0])
    walk.pop()
    return walk, [e for e in g.edges if e not in tree]


def _detour(g: Graph) -> DoubleTrace:
    """An antiparallel double trace of a connected graph: the tree walk with
    ``u v u`` inserted at the first visit of u for each co-tree edge uv,
    u < v."""
    walk, cotree = _tree_walk(g)
    detours: dict[int, list[int]] = {}
    for u, v in cotree:
        detours.setdefault(u, []).append(v)
    seq = []
    for x in walk:
        seq.append(x)
        for v in detours.pop(x, ()):
            seq += (v, x)
    return validate_double_trace(g, seq)


def _twisted(g: Graph) -> DoubleTrace:
    """A strong double trace of a connected graph, by twisted insertion.

    For each co-tree edge uv the walk reads ``A u B v C`` at the first
    visits of u and v and becomes ``A u v rev(B) u v C``.  B keeps its
    transition pairs; at u the pair a-b of the visit becomes the path a-v-b,
    and at v likewise, so every transition graph stays connected and takes
    in the new neighbour.  Starting from the strong tree walk, the result is
    strong: the face walk of a one-face embedding, nonorientable once an
    edge is twisted (Ringel 1977; Stahl 1978).  A strong trace is d-stable
    for every d below the minimum degree, so it answers every stable cell
    of direction any too.
    """
    seq, cotree = _tree_walk(g)
    for u, v in cotree:
        i, j = seq.index(u), seq.index(v)
        if i > j:
            i, j, u, v = j, i, v, u
        seq[i + 1:j] = [v, *seq[j - 1:i:-1], u]
    return validate_double_trace(g, seq)


def _copy_swap(g: Graph) -> DoubleTrace:
    """A strong parallel double trace of a connected Eulerian graph.

    Hierholzer from the least vertex, always leaving by the least unused
    edge, gives an Euler circuit; arc i leaves the tour's vertex i.  Each
    arc is walked twice, by copy 0 and copy 1.  At each visit of v, copy 0
    of the in-arc goes on by the tour's out-arc and copy 1 by the out-arc of
    v's next visit, so v's transition graph is one cycle through all its
    neighbours.  Copy 0 alone is the tour, one closed walk through every
    arc; copy 1 falls into closed walks of its own.  Exchanging the two
    copies' successors at one arc changes no transition and joins that
    arc's copy-1 walk to the walk through every arc, so one exchange per
    copy-1 walk leaves a single closed walk.
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
    tour = tour[:0:-1]  # walking order, without the closing start vertex
    m = len(tour)
    visits: dict[int, list[int]] = {}
    for i, v in enumerate(tour):
        visits.setdefault(v, []).append(i)
    onward = [0] * m  # the arc copy 1 of each arc goes on by
    for arcs in visits.values():
        for i, j in zip(arcs, arcs[1:] + arcs[:1]):
            onward[i - 1] = j
    exchanged = [False] * m
    seen = [False] * m
    for start in range(m):
        if not seen[start]:
            exchanged[start] = True
            a = start
            while not seen[a]:
                seen[a] = True
                a = onward[a]
    seq = []
    a, copy = 0, False
    for _ in range(2 * m):
        seq.append(tour[a])
        if copy == exchanged[a]:
            a, copy = (a + 1) % m, False
        else:
            a, copy = onward[a], True
    return validate_double_trace(g, seq)


def _build_from_tree(tree: SpanningTree, spec: TraceSpec, budget: int | None) -> DoubleTrace:
    """An antiparallel trace in ``spec``'s cell from a tree qualified for it.

    While the co-tree has an odd component, split the least vertex of
    degree >= 2d + 2 inside one (strictly reducing the qualified deficiency)
    and go on with the split graph and its tree.  The fully reduced graph
    has an all-even co-tree, where an antiparallel strong trace exists and
    is d-stable because all degrees stay above d; that trace is lifted back
    through the identifications, the last split first.  A tree with no odd
    component, as every strong cell's is, needs no split: its trace is the
    search on the host itself.
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
    return trace


def extract_qualified_tree_from_trace(w: DoubleTrace, d: int) -> SpanningTree:
    """Turn an antiparallel d-stable trace into a qualifying spanning tree.

    By the characterization, a host with such a trace has a spanning tree
    whose odd co-tree components each contain a vertex of degree at least
    2d + 2, so once the trace's class is checked the tree is the evaluator's
    certificate for the antiparallel d-stable cell of the host: the tree
    :func:`find_witness` builds its trace from.  The paper's converse, which
    projects the trace until it is strong and transfers an all-even tree
    back, is replayed in the tests as the reference.
    """
    spec = TraceSpec("stable", ANTIPARALLEL, d)  # validates d
    cls = classify_trace(w)
    if cls.direction != ANTIPARALLEL:
        raise NotAntiparallelError("trace is not antiparallel")
    if cls.stability_order < d:
        raise NotStableError(d)
    tree = _decide_cells(w.host, [spec])[0].witness_tree
    if tree is None:
        raise InternalInvariantError(
            "antiparallel d-stable trace exists but no qualified tree found"
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
