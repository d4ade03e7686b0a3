"""Matrix decisions, the constructive pipeline, and the sufficiency shortcut."""

import inspect
import json
import random
import sys
from pathlib import Path

import networkx as nx
import pytest

import trace_forge.search as search_module
from trace_forge.cli import main
from trace_forge.decide import (
    condition_table,
    decide_existence,
    extract_qualified_tree_from_trace,
    find_witness,
    sufficient_four_edge_connected,
)
from trace_forge.errors import (
    BudgetExhaustedError,
    InternalInvariantError,
    NotAntiparallelError,
    NotStableError,
)
from trace_forge.graph import Graph, betti_number, build_graph, complete_graph
from trace_forge.search import find_trace
from trace_forge.spanning import (
    cotree_decomposition,
    min_tree,
    qualified_deficiency_of_tree,
    spanning_tree,
)
from trace_forge.walks import (
    TraceSpec,
    classify_trace,
    spec_satisfied,
    transition_graph_at,
    validate_double_trace,
)

import conftest
from conftest import (
    atlas_graphs,
    converse_tree,
    enumerate_traces,
    fixture_family,
    hypercube,
    k4_chain,
    qualified_trees,
    random_connected_graph,
    repetitions_brute,
)

FIXTURES = Path(__file__).parent / "fixtures"


def test_k4_antiparallel_stable_is_no(k4):
    cert = decide_existence(k4, "stable", "antiparallel", 1)
    assert not cert.verdict
    assert cert.condition_label() == "NoQualifiedTree(D=4)"


def test_k5_antiparallel_stable_is_yes(k5):
    cert = decide_existence(k5, "stable", "antiparallel", 1)
    assert cert.verdict
    assert cert.witness_tree is not None
    assert qualified_deficiency_of_tree(cert.witness_tree, 4) is not None


def test_k5_stable4_fails_min_degree(k5):
    cert = decide_existence(k5, "stable", "any", 4)
    assert not cert.verdict
    assert cert.violated_condition == "MinDegree"


def test_q3_antiparallel_stable_is_no(q3):
    cert = decide_existence(q3, "stable", "antiparallel", 1)
    assert not cert.verdict
    assert cert.violated_condition == "NoQualifiedTree"


def test_strong_antiparallel_no_qualified_tree_at_even_betti(tmp_path, capsys):
    # two triangles joined by a bridge: Betti number 2, but every co-tree
    # has one edge in each triangle, two odd components, so deficiency 2
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)]
    g = build_graph(edges)
    cert = decide_existence(g, "strong", "antiparallel")
    assert not cert.verdict
    assert cert.violated_condition == "NoQualifiedTree"
    assert cert.condition_detail == {"threshold": None}
    assert cert.condition_label() == "NoQualifiedTree"
    assert (betti_number(g), min_tree(g)[0]) == (2, 2)
    assert find_trace(g, TraceSpec("strong", "antiparallel")) is None
    path = tmp_path / "bridged.edges"
    path.write_text("".join(f"{u} {v}\n" for u, v in edges))
    argv = ["decide", "-i", str(path), "--kind", "strong", "--direction", "antiparallel"]
    assert main(argv + ["--json"]) == 1
    assert json.loads(capsys.readouterr().out)["evidence"] == {
        "type": "condition",
        "name": "NoQualifiedTree",
        "label": "NoQualifiedTree",
        "detail": {"threshold": None},
    }


def test_k4_parallel_double_is_no(k4):
    cert = decide_existence(k4, "double", "parallel")
    assert not cert.verdict
    assert cert.violated_condition == "NotEulerian"


def test_parallel_witnesses(k3, k4, k5):
    assert find_witness(k3, "double", "parallel").sequence == (0, 1, 2, 0, 1, 2)
    assert decide_existence(k4, "stable", "parallel", 1).violated_condition == "NotEulerian"
    assert find_witness(k4, "stable", "parallel", 1) is None
    # K5's copy-swapped Euler circuit walks all 10 edges twice and is strong
    tour = find_witness(k5, "double", "parallel")
    cls = classify_trace(tour)
    assert tour.length == 20 and cls.direction == "parallel" and cls.strong
    assert cls.stability_order == 3
    cls = classify_trace(find_witness(k5, "stable", "parallel", 3))
    assert cls.direction == "parallel" and cls.stability_order >= 3
    cert = decide_existence(k5, "stable", "parallel", 4)
    assert not cert.verdict and cert.violated_condition == "MinDegree"


def test_yes_witnesses_revalidate(k3, k5):
    for g, kind, direction, d in [
        (k3, "double", "any", None),
        (k3, "double", "parallel", None),
        (k3, "strong", "any", None),
        (k5, "stable", "parallel", 3),
        (k5, "strong", "antiparallel", None),
    ]:
        cert = decide_existence(g, kind, direction, d)
        assert cert.verdict
        if direction == "antiparallel":
            threshold = None if kind == "strong" else 2 * d + 2
            assert qualified_deficiency_of_tree(cert.witness_tree, threshold) is not None
        else:
            assert cert.witness_tree is None
        revalidated = validate_double_trace(g, find_witness(g, kind, direction, d).sequence)
        assert spec_satisfied(TraceSpec(kind, direction, d), classify_trace(revalidated))


DISPATCH_CELLS = [
    (kind, direction, d)
    for direction in ("any", "parallel", "antiparallel")
    for kind, d in (("double", None), ("stable", 1), ("stable", 2), ("stable", 3), ("strong", None))
]


def test_find_witness_follows_the_decision():
    # every cell of every connected graph on up to 6 vertices: a witness
    # comes back exactly on the yes-cells, and it satisfies its cell
    exhausted = 0
    for g in atlas_graphs(6):
        for kind, direction, d in DISPATCH_CELLS:
            verdict = decide_existence(g, kind, direction, d).verdict
            try:
                trace = find_witness(g, kind, direction, d, budget=20_000)
            except BudgetExhaustedError:
                exhausted += 1
                continue
            if verdict:
                cls = classify_trace(trace)
                assert spec_satisfied(TraceSpec(kind, direction, d), cls), (g.edges, kind, direction, d)
            else:
                assert trace is None, (g.edges, kind, direction, d)
    assert exhausted == 12


# The yes-cell classes that still call decide.find_trace: the antiparallel
# tree pipeline's strong search.  A construction removes its class here; the
# list only shrinks, and the engine's fallback goes once it is empty.
SEARCHING = {
    ("stable", "antiparallel"),
    ("strong", "antiparallel"),
}


def _counted_searches(monkeypatch) -> list:
    """The specs of every decide.find_trace call from here on."""
    import trace_forge.decide as decide_module

    calls = []

    def counted(g, spec, budget):
        calls.append(spec)
        return find_trace(g, spec, budget)

    monkeypatch.setattr(decide_module, "find_trace", counted)
    return calls


def test_only_listed_cells_search(monkeypatch):
    # each yes-cell of a listed class searches at least once, and no other
    # yes-cell searches at all; budget 1 stops a search at its first node
    calls = _counted_searches(monkeypatch)
    searched = set()
    for g in atlas_graphs(6):
        table = condition_table(g, [1, 2, 3])
        for kind, direction, d in DISPATCH_CELLS:
            if not table[kind, direction, d].verdict:
                continue
            calls.clear()
            try:
                find_witness(g, kind, direction, d, budget=1)
            except BudgetExhaustedError:
                pass
            if (kind, direction) in SEARCHING:
                assert calls, (g.edges, kind, direction, d)
                searched.add((kind, direction))
            else:
                assert not calls, (g.edges, kind, direction, d)
    assert searched == SEARCHING


#: the cells a walk construction answers: double in every direction, and
#: stable and strong of direction any and parallel
BUILT_CELLS = [
    cell for cell in DISPATCH_CELLS if cell[0] == "double" or cell[1] != "antiparallel"
]


def _built(g: Graph, kind: str, direction: str, d: int | None):
    """find_witness at budget 1, which any search would exhaust: a trace in
    its cell."""
    trace = find_witness(g, kind, direction, d, budget=1)
    cls = classify_trace(trace)
    assert spec_satisfied(TraceSpec(kind, direction, d), cls), (g.edges, kind, direction, d)
    return trace, cls


def test_cells_without_trees_are_built(monkeypatch):
    # every yes-cell with no tree, on every connected graph with up to 7
    # vertices, is answered by its construction with no search.  On up to 6
    # vertices each trace also meets the brute-force repetition oracle, and
    # it is a member of the engine's enumeration of its cell wherever that
    # enumeration ends within 2,000 nodes: a complete one would not finish
    # (K5's double cell alone passes 5,000,000 nodes)
    calls = _counted_searches(monkeypatch)
    monkeypatch.setattr(search_module, "DEFAULT_BUDGET", 2_000)
    enumerated = 0
    for g in atlas_graphs(7):
        table = condition_table(g, [1, 2, 3])
        for kind, direction, d in BUILT_CELLS:
            if not table[kind, direction, d].verdict:
                continue
            trace, cls = _built(g, kind, direction, d)
            if g.num_vertices > 6:
                continue
            _, order, strong = repetitions_brute(trace)
            assert (order, strong) == (cls.stability_order, cls.strong), (g.edges, kind, direction, d)
            try:
                members = enumerate_traces(g, TraceSpec(kind, direction, d))
            except BudgetExhaustedError:
                continue
            assert trace in members, (g.edges, kind, direction, d)
            enumerated += 1
    assert calls == []
    assert enumerated == 209
    # the probes whose search exhausted the default budget before the
    # constructions: a random 4-regular graph on 200 vertices, K12 and Q8
    quartic = nx.random_regular_graph(4, 200, seed=1)
    quartic = build_graph(list(quartic.edges()))
    for g, kind, direction, d in [
        (quartic, "strong", "any", None),
        (quartic, "stable", "any", 2),
        (complete_graph(12), "stable", "any", 2),
        (hypercube(8), "strong", "parallel", None),
    ]:
        _built(g, kind, direction, d)
    assert calls == []


def test_condition_table_k3(k3):
    table = condition_table(k3, [1])
    verdicts = {
        (kind, direction): cert.verdict
        for (kind, direction, _), cert in table.items()
    }
    assert verdicts == {
        ("double", "any"): True,
        ("double", "parallel"): True,
        ("double", "antiparallel"): True,
        ("stable", "any"): True,
        ("stable", "parallel"): True,
        ("stable", "antiparallel"): False,
        ("strong", "any"): True,
        ("strong", "parallel"): True,
        ("strong", "antiparallel"): False,
    }


def test_condition_table_k4_parallel_column(k4):
    table = condition_table(k4, [1])
    for (kind, direction, _), cert in table.items():
        if direction == "parallel":
            assert not cert.verdict
            assert cert.violated_condition == "NotEulerian"
    assert not table[("stable", "antiparallel", 1)].verdict
    assert not table[("strong", "antiparallel", None)].verdict


def test_condition_table_k5_d_sweep(k5):
    table = condition_table(k5, [1, 2, 3, 4])
    for d in (1, 2, 3):
        for direction in ("any", "parallel", "antiparallel"):
            assert table[("stable", direction, d)].verdict, (direction, d)
    for direction in ("any", "parallel", "antiparallel"):
        cert = table[("stable", direction, 4)]
        assert not cert.verdict
        assert cert.violated_condition == "MinDegree"


def test_condition_table_checks_the_host_once(monkeypatch):
    """Every cell of the table is the certificate decide_existence gives
    for it alone, and the host is checked once per table; the minimum
    degree, the Betti number and the tree walk are each read at most once
    per table."""
    import trace_forge.decide as decide_module

    owners = {
        "require_trace_host": decide_module,
        "betti_number": decide_module,
        "_first_tree": decide_module,
        "min_degree": Graph,
    }
    hosts = {name: [] for name in owners}  # the graph of each call

    def counted(name, f):
        def call(g, *args):
            hosts[name].append(g)
            return f(g, *args)

        return call

    for name, owner in owners.items():
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    for g in atlas_graphs(7):
        for seen in hosts.values():
            seen.clear()
        table = condition_table(g, [1, 2, 3])
        assert hosts["require_trace_host"] == [g]
        for name in ("min_degree", "betti_number", "_first_tree"):
            assert hosts[name] in ([], [g]), (g, name, hosts[name])
        assert len(table) == 15
        for (kind, direction, d), cert in table.items():
            # dataclass equality: verdict, cell, witness tree, condition, detail
            assert cert == decide_existence(g, kind, direction, d), (g, kind, direction, d)


def test_condition_table_walk_answers_each_cell_as_alone():
    # one walk answers the antiparallel cells of a table whose orders repeat
    # and come out of order; each cell is still the certificate
    # decide_existence gives for it alone, from its own scan
    for g in atlas_graphs(7):
        table = condition_table(g, [2, 1, 2])
        assert len(table) == 12
        for (kind, direction, d), cert in table.items():
            assert cert == decide_existence(g, kind, direction, d), (g, kind, direction, d)


#: the named graphs of the construct workload that networkx generates
NAMED_FAMILIES = {
    "K5": lambda: nx.complete_graph(5),
    "octahedron": nx.octahedral_graph,
    "W6": lambda: nx.wheel_graph(6),
    "W7": lambda: nx.wheel_graph(7),
    "W8": lambda: nx.wheel_graph(8),
    "petersen": nx.petersen_graph,
    "K3,3": lambda: nx.complete_bipartite_graph(3, 3),
    "K3,4": lambda: nx.complete_bipartite_graph(3, 4),
    "K4,4": lambda: nx.complete_bipartite_graph(4, 4),
    "prism4": lambda: nx.circular_ladder_graph(4),
    "prism5": lambda: nx.circular_ladder_graph(5),
    "prism6": lambda: nx.circular_ladder_graph(6),
    "Q3": lambda: nx.convert_node_labels_to_integers(nx.hypercube_graph(3)),
    "icosahedron": nx.icosahedral_graph,
}


def _verdicts(g: Graph) -> dict:
    table = condition_table(g, [1, 2])
    return {cell: (c.verdict, c.condition_label()) for cell, c in table.items()}


def _relabellings(name: str):
    """The named graph and its eight seeded relabellings, each with its map."""
    g = build_graph(list(NAMED_FAMILIES[name]().edges()))
    rng = random.Random(name)
    for _ in range(8):
        image = list(g.vertices)
        rng.shuffle(image)
        to = dict(zip(g.vertices, image))
        yield g, build_graph([(to[u], to[v]) for u, v in g.edges]), to


@pytest.mark.parametrize("name", list(NAMED_FAMILIES))
def test_verdicts_do_not_depend_on_labels(name):
    # the conditions read degrees, parities and co-tree components, never
    # labels: every cell's verdict and named condition is the same under
    # eight seeded relabellings
    for g, moved, to in _relabellings(name):
        assert _verdicts(moved) == _verdicts(g), (name, to)


@pytest.mark.parametrize("name", list(NAMED_FAMILIES))
def test_built_witnesses_do_not_depend_on_labels(name):
    # the constructions never search, under any labelling: each built
    # yes-cell gets a trace in its cell at budget 1
    for _, moved, to in _relabellings(name):
        table = condition_table(moved, [1, 2, 3])
        for kind, direction, d in BUILT_CELLS:
            if table[kind, direction, d].verdict:
                _built(moved, kind, direction, d)


def test_build_k5(k5):
    w = find_witness(k5, "stable", "antiparallel", 1)
    assert w is not None
    assert w.length == 20
    cls = classify_trace(w)
    assert cls.direction == "antiparallel"
    assert cls.stability_order >= 1


def test_build_k4_returns_none(k4):
    assert find_witness(k4, "stable", "antiparallel", 1) is None


def test_build_k5_d3_is_strong(k5):
    # max degree 4 < 2*3+2, so a 3-stable trace cannot afford any repetition
    w = find_witness(k5, "stable", "antiparallel", 3)
    cls = classify_trace(w)
    assert cls.strong
    assert cls.stability_order == 3


def test_build_with_actual_splits():
    # odd betti forces at least one reduction step before the base case
    g = build_graph(
        [(i, j) for i in range(5) for j in range(i + 1, 5)] + [(0, 5), (1, 5)]
    )
    w = find_witness(g, "stable", "antiparallel", 1)
    assert w is not None
    cls = classify_trace(w)
    assert cls.direction == "antiparallel"
    assert cls.stability_order >= 1
    assert not cls.strong  # the rebuilt vertex keeps its two repetitions


K5_PLUS_DEGREE_TWO = build_graph(
    [(i, j) for i in range(5) for j in range(i + 1, 5)] + [(0, 5), (1, 5)]
)


@pytest.mark.parametrize(
    "g,kind,d",
    [
        (complete_graph(5), "stable", 1),
        (K5_PLUS_DEGREE_TWO, "stable", 1),
        (complete_graph(5), "strong", None),
    ],
    ids=["k5-stable", "split-stable", "k5-strong"],
)
def test_find_decides_once(monkeypatch, g, kind, d):
    # an antiparallel yes is built from the evaluator's own tree: one
    # decision and one tree walk, with no second scan for a least tree
    import trace_forge.decide as decide_module
    import trace_forge.spanning as spanning_module

    calls = {"decide": 0, "walk": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        decide_module, "_decide_cells", counted("decide", decide_module._decide_cells)
    )
    walk = counted("walk", spanning_module._first_tree)
    monkeypatch.setattr(decide_module, "_first_tree", walk)
    monkeypatch.setattr(spanning_module, "_first_tree", walk)
    w = find_witness(g, kind, "antiparallel", d)
    assert spec_satisfied(TraceSpec(kind, "antiparallel", d), classify_trace(w))
    assert calls == {"decide": 1, "walk": 1}


def test_strong_antiparallel_witness_is_the_search():
    # a strong cell's tree is all even, so the pipeline splits nothing and
    # its trace is the strong search on the graph itself
    spec = TraceSpec("strong", "antiparallel")
    checked = 0
    for g in atlas_graphs(5):
        if betti_number(g) % 2 == 0:
            assert find_witness(g, "strong", "antiparallel") == find_trace(g, spec), g.edges
            checked += 1
    assert checked > 0


def test_extract_from_strong_trace(k5):
    # a strong trace is 1-stable on K5, so extraction owes a tree qualified
    # at 2d + 2, not an all-even one; the converse finds nothing to project
    # and returns the strong cell's all-even tree
    w = find_trace(k5, TraceSpec("strong", "antiparallel"))
    tree = extract_qualified_tree_from_trace(w, 1)
    assert tree.host == k5
    assert qualified_deficiency_of_tree(tree, 4) is not None
    assert not any(comp.is_odd for comp in cotree_decomposition(converse_tree(w, 1)))


def test_extract_rejects_wrong_inputs(k3, k5):
    w = find_trace(k5, TraceSpec("strong", "antiparallel"))
    for d in (0, -1, -3):
        with pytest.raises(ValueError, match="stable kind needs d >= 1"):
            extract_qualified_tree_from_trace(w, d)
    parallel = validate_double_trace(k3, [0, 1, 2, 0, 1, 2])
    with pytest.raises(NotAntiparallelError):
        extract_qualified_tree_from_trace(parallel, 1)
    anti = validate_double_trace(k3, [0, 1, 2, 0, 2, 1])
    with pytest.raises(NotStableError):
        extract_qualified_tree_from_trace(anti, 1)


def test_extract_raises_when_the_evaluator_has_no_tree(monkeypatch, k5):
    # the characterization rules a no out once the trace's class is checked,
    # so a certificate without a tree is the library's fault
    import trace_forge.decide as decide_module

    w = find_witness(k5, "stable", "antiparallel", 1)
    monkeypatch.setattr(
        decide_module,
        "_decide_cells",
        lambda g, specs: [decide_module.DecisionCertificate(False, specs[0])],
    )
    with pytest.raises(InternalInvariantError, match="no qualified tree"):
        extract_qualified_tree_from_trace(w, 1)


def test_build_extract_round_trip():
    g = build_graph(
        [(i, j) for i in range(5) for j in range(i + 1, 5)] + [(0, 5), (1, 5)]
    )
    w = find_witness(g, "stable", "antiparallel", 1)
    tree = extract_qualified_tree_from_trace(w, 1)
    assert tree.host == g
    assert qualified_deficiency_of_tree(tree, 4) is not None


def test_extraction_returns_the_decisions_tree():
    # by the characterization the evaluator's certificate answers the
    # extraction, so the tree extracted from find_witness's trace is the very
    # tree the trace was built from; a cell whose strong search runs out of
    # budget has no trace to extract from
    built = exhausted = 0
    for g in atlas_graphs(6):
        for d in (1, 2):
            cert = decide_existence(g, "stable", "antiparallel", d)
            if not cert.verdict:
                continue
            try:
                w = find_witness(g, "stable", "antiparallel", d, budget=200_000)
            except BudgetExhaustedError:
                exhausted += 1
                continue
            assert extract_qualified_tree_from_trace(w, d) == cert.witness_tree, (g.edges, d)
            built += 1
    assert built + exhausted == 77
    assert built >= 71


def test_extract_rejects_a_transfer_onto_another_graph(monkeypatch):
    # the converse checks that each transferred tree spans the graph the
    # projection came from; a qualified tree of another graph is a broken
    # transfer, not a caller's error
    g = build_graph(
        [(i, j) for i in range(5) for j in range(i + 1, 5)] + [(0, 5), (1, 5)]
    )
    w = find_witness(g, "stable", "antiparallel", 1)
    k5_star = spanning_tree(complete_graph(5), [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert qualified_deficiency_of_tree(k5_star, None) is not None
    monkeypatch.setattr(
        conftest, "transfer_tree_on_identification", lambda *args: k5_star
    )
    with pytest.raises(InternalInvariantError, match="transferred tree"):
        converse_tree(w, 1)


def test_build_with_three_chained_reductions(monkeypatch):
    # K4 blocks joined by bridges: bridges sit in every spanning tree, so
    # each block keeps its own odd co-tree component around its degree-4
    # vertex and the pipeline must split three times before the base case;
    # the build and the converse are loops, so every lift and every transfer
    # is called at the same stack depth
    import trace_forge.decide as decide_module

    depths = {"lift": [], "transfer": []}

    def at_depth(key, fn):
        def wrapper(*args, **kwargs):
            depths[key].append(len(inspect.stack(0)))
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        decide_module,
        "lift_trace_through_identification",
        at_depth("lift", decide_module.lift_trace_through_identification),
    )
    monkeypatch.setattr(
        conftest,
        "transfer_tree_on_identification",
        at_depth("transfer", conftest.transfer_tree_on_identification),
    )

    g = k4_chain(3)
    assert min_tree(g, 4)[0] == 3
    w = find_witness(g, "stable", "antiparallel", 1, budget=20_000_000)
    cls = classify_trace(w)
    assert cls.direction == "antiparallel"
    assert cls.stability_order >= 1
    repetition_vertices = [
        v for v in g.vertices if len(transition_graph_at(w, v)) > 1
    ]
    assert len(repetition_vertices) == 3
    tree = extract_qualified_tree_from_trace(w, 1)
    assert qualified_deficiency_of_tree(tree, 4) is not None
    tree = converse_tree(w, 1)
    assert tree.host == g
    assert qualified_deficiency_of_tree(tree, 4) is not None
    for key in ("lift", "transfer"):
        assert len(depths[key]) == 3
        assert len(set(depths[key])) == 1, (key, depths[key])


def test_extract_scans_transition_graphs_once(monkeypatch):
    # extraction takes the evaluator's tree and reads no transition graph;
    # in the converse the repetition report names every vertex to project,
    # so it builds one transition graph per projection, not one per vertex
    # on every pass, and the projection checks closure on the visits it
    # rewrites, so transform builds none
    import trace_forge.decide as decide_module
    import trace_forge.transform as transform_module
    import trace_forge.walks as walks_module

    g = k4_chain(3)
    w = find_witness(g, "stable", "antiparallel", 1, budget=20_000_000)
    calls = {"conftest": [], "trace_forge.decide": [], "trace_forge.transform": []}

    def counted(trace, v):
        caller = sys._getframe(1).f_globals["__name__"]
        calls.setdefault(caller, []).append(v)
        return transition_graph_at(trace, v)

    for module in (conftest, walks_module):
        monkeypatch.setattr(module, "transition_graph_at", counted)
    for module in (decide_module, transform_module):
        monkeypatch.setattr(module, "transition_graph_at", counted, raising=False)
    assert extract_qualified_tree_from_trace(w, 1) == decide_existence(
        g, "stable", "antiparallel", 1
    ).witness_tree
    assert calls == {"conftest": [], "trace_forge.decide": [], "trace_forge.transform": []}
    tree = converse_tree(w, 1)
    assert qualified_deficiency_of_tree(tree, 4) is not None
    assert sorted(calls["conftest"]) == [
        v for v in g.vertices if len(transition_graph_at(w, v)) > 1
    ]
    assert calls["trace_forge.decide"] == calls["trace_forge.transform"] == []


def test_sufficient_shortcut(k4, k5):
    for d in (1, 2, 3):
        assert sufficient_four_edge_connected(k5, d)
    assert not sufficient_four_edge_connected(k4, 1)  # edge connectivity 3
    assert not sufficient_four_edge_connected(k5, 4)  # min degree not above 4


def test_sufficient_never_contradicts_decide():
    rng = random.Random(31)
    for _ in range(25):
        g = random_connected_graph(rng, n_min=3, n_max=6)
        for d in (1, 2):
            if sufficient_four_edge_connected(g, d):
                assert decide_existence(g, "stable", "antiparallel", d).verdict


def test_monotonicity_in_d():
    rng = random.Random(37)
    for _ in range(20):
        g = random_connected_graph(rng, n_min=3, n_max=6)
        verdicts = [decide_existence(g, "stable", "antiparallel", d).verdict for d in (1, 2, 3)]
        for lower, higher in zip(verdicts, verdicts[1:]):
            assert lower or not higher  # yes at d implies yes at d' < d


def test_deficiency_report(capsys):
    def report(name, threshold):
        argv = ["deficiency", "-i", str(FIXTURES / name), "-d", str(threshold), "--json"]
        assert main(argv) == 0
        return json.loads(capsys.readouterr().out)

    k4 = report("k4.edges", 4)
    assert k4["betti_number"] == 3
    assert k4["deficiency"] == 1
    assert k4["qualified_deficiency"] == "NoQualifiedTree"
    k5 = report("k5.edges", 8)
    assert k5["deficiency"] == 0
    assert k5["qualified_deficiency"] == 0


def test_no_certificates_reevaluate():
    # every named condition can be re-checked directly against the graph
    rng = random.Random(41)
    for _ in range(25):
        g = random_connected_graph(rng, n_min=3, n_max=6)
        for kind, direction, d in [
            ("stable", "any", 3),
            ("stable", "parallel", 1),
            ("stable", "antiparallel", 1),
            ("double", "parallel", None),
            ("strong", "antiparallel", None),
        ]:
            cert = decide_existence(g, kind, direction, d)
            if cert.verdict:
                continue
            name = cert.violated_condition
            if name == "MinDegree":
                assert g.min_degree() <= d
            elif name == "NotEulerian":
                assert any(g.degree(v) % 2 for v in g.vertices)
            elif name == "NoQualifiedTree":
                threshold = cert.condition_detail.get("threshold")
                if threshold is None:
                    assert min_tree(g, None) is None
                else:
                    assert next(qualified_trees(g, threshold), None) is None
            elif name == "ParityObstruction":
                from trace_forge.graph import betti_number

                assert betti_number(g) % 2 == 1
            else:
                raise AssertionError(f"unknown condition {name}")


def test_fixture_matrix_against_oracle():
    # pinned fixture verdicts, cross-checked by exhaustive search
    pinned = {
        ("K4", "stable", "antiparallel", 1): False,
        ("K5", "stable", "antiparallel", 1): True,
        ("Q3", "stable", "antiparallel", 1): False,
        ("K3", "strong", "antiparallel", None): False,
        ("K5", "strong", "antiparallel", None): True,
    }
    family = fixture_family()
    for (name, kind, direction, d), expected in pinned.items():
        g = family[name]
        cert = decide_existence(g, kind, direction, d)
        assert cert.verdict == expected, (name, kind, direction, d)
        oracle = find_trace(g, TraceSpec(kind, direction, d))
        assert (oracle is not None) == expected, (name, kind, direction, d)


def test_icosahedron_parity_rules_out_d2_and_d3():
    # max degree 5 is below 2d + 2 and the Betti number 19 is odd, so no
    # spanning tree qualifies; the answer needs no tree enumeration
    g = build_graph(list(nx.icosahedral_graph().edges()))
    assert find_witness(g, "stable", "antiparallel", 2) is None
    assert find_witness(g, "stable", "antiparallel", 3) is None


HEAVY_FIND_HOSTS = {
    "K6": lambda: complete_graph(6),
    "K7": lambda: complete_graph(7),
    "K4,4": lambda: build_graph(list(nx.complete_bipartite_graph(4, 4).edges())),
    "icosahedron": lambda: build_graph(list(nx.icosahedral_graph().edges())),
}


@pytest.mark.parametrize(
    "name, budget, steps",
    [
        ("K6", 100_000, None),
        ("K7", 100_000, None),
        ("K4,4", 54_153, None),
        ("K4,4", 54_154, 32),
        ("icosahedron", 4_288, None),
        ("icosahedron", 4_289, 60),
    ],
)
def test_heavy_antiparallel_finds_are_pinned(name, budget, steps):
    # the 1-stable antiparallel finds that make up most of a construct round
    # trip: K6 and K7 run past a 100,000-node budget, and K4,4 and the
    # icosahedron need their budget's last node, so a construction or a
    # change of the engine's search tree shows here first
    g = HEAVY_FIND_HOSTS[name]()
    if steps is None:
        with pytest.raises(BudgetExhaustedError) as exc:
            find_witness(g, "stable", "antiparallel", 1, budget=budget)
        assert exc.value.nodes == budget + 1
    else:
        w = find_witness(g, "stable", "antiparallel", 1, budget=budget)
        assert len(w.sequence) == steps
