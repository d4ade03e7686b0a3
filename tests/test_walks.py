"""Double-trace validation and the repetition calculus."""

import random
from collections import Counter
from itertools import product

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trace_forge.errors import (
    DisconnectedGraphError,
    NonAdjacentStepError,
    UnknownVertexError,
    WrongLengthError,
    WrongMultiplicityError,
)
from trace_forge.graph import Graph, build_graph, cycle_graph, edge_key, path_graph
from trace_forge.walks import (
    DoubleTrace,
    _transition_components,
    classify_trace,
    direction_profile,
    min_rotation,
    trace_direction,
    transition_graph_at,
    validate_double_trace,
)

from conftest import (
    LONG_TRACE_NAMES,
    atlas_graphs,
    hypercube,
    is_repetition,
    long_traces,
    random_connected_graph,
    random_double_trace,
    repetitions_brute,
    torus,
)

K3_ANTI = [0, 1, 2, 0, 2, 1]
K3_PAR = [0, 1, 2, 0, 1, 2]


def test_validate_accepts_antiparallel_triangle(k3):
    w = validate_double_trace(k3, K3_ANTI)
    assert w.length == 6


def test_validate_rejects_single_cover(k3):
    with pytest.raises(WrongLengthError):
        validate_double_trace(k3, [0, 1, 2])


def test_validate_rejects_unknown_vertex(k3):
    with pytest.raises(UnknownVertexError, match="vertex 7 not in host"):
        validate_double_trace(k3, [0, 1, 2, 0, 1, 7])


def test_validate_rejects_triple_edge(k3):
    with pytest.raises(WrongMultiplicityError) as err:
        validate_double_trace(k3, [0, 1, 0, 1, 2, 0])
    assert err.value.edge == (0, 1)
    assert err.value.count == 3


def test_valid_traces_are_accepted_without_a_traversal(monkeypatch):
    # the walk over the transition cycles proves a valid trace's host
    # connected, so validation runs no traversal and the trace keeps its
    # cycles; any fault runs the ordered checks, the host's connectivity
    # first
    traversals = []
    traverse = Graph.connected.func

    def counting(g):
        traversals.append(g)
        return traverse(g)

    monkeypatch.setattr(Graph.connected, "func", counting)
    rng = random.Random(29)
    traces = [(w.host, w.sequence) for w in long_traces().values()]
    for _ in range(100):
        g = random_connected_graph(rng, n_min=2, n_max=8)
        traces.append((g, random_double_trace(g, rng).sequence))
    traversals.clear()
    for host, seq in traces:
        g = build_graph(host.edges)  # a fresh value: nothing cached on it
        shift = rng.randrange(len(seq))
        w = validate_double_trace(g, seq[shift:] + seq[:shift])
        assert w.sequence == seq
        # the cycles do not depend on where the walk starts
        assert w._repetitions == _transition_components(seq[shift:] + seq[:shift], g.adjacency)
    assert traversals == []
    two_triangles = build_graph([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    with pytest.raises(DisconnectedGraphError):
        validate_double_trace(two_triangles, K3_ANTI + [3, 4, 5, 3, 5, 4])
    assert traversals == [two_triangles]


def test_validate_counts_every_edge_twice():
    # each vertex of the 4-cycle sees both its neighbors among the ends of
    # as many links as its degree, yet 0-1 and 2-3 are walked three times
    # and 1-2 and 3-0 once: the ordered scan reports the third traversal
    c4 = cycle_graph(4)
    seq = [0, 1, 0, 1, 2, 3, 2, 3]
    with pytest.raises(WrongMultiplicityError) as err:
        validate_double_trace(c4, seq)
    assert (err.value.edge, err.value.count) == ((0, 1), 3)
    assert _raised(c4, seq) == _first_fault(c4, seq)


def test_validate_rejects_non_adjacent_step():
    g = build_graph([(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(NonAdjacentStepError):
        validate_double_trace(g, [0, 1, 2, 3, 0, 2, 1, 3])


def test_direction_profile(k3):
    par = validate_double_trace(k3, K3_PAR)
    anti = validate_double_trace(k3, K3_ANTI)
    assert set(direction_profile(par).values()) == {"parallel"}
    assert set(direction_profile(anti).values()) == {"antiparallel"}
    assert trace_direction(par) == "parallel"
    assert trace_direction(anti) == "antiparallel"


def test_single_edge_trace_is_antiparallel():
    g = path_graph(2)
    w = validate_double_trace(g, [0, 1])
    assert trace_direction(w) == "antiparallel"
    assert list(w.visits(0)) == [(1, 1)]
    assert transition_graph_at(w, 0) == ((1,),)


def test_transition_graph_antiparallel_triangle(k3):
    w = validate_double_trace(k3, K3_ANTI)
    assert sorted(w.visits(0)) == [(1, 1), (2, 2)]
    assert transition_graph_at(w, 0) == ((1,), (2,))


def test_transition_graph_parallel_triangle(k3):
    w = validate_double_trace(k3, K3_PAR)
    assert list(w.visits(1)) == [(0, 2), (0, 2)]
    assert transition_graph_at(w, 1) == ((0, 2),)


def test_repetition_analysis_modes_agree_on_triangle(k3):
    for seq in (K3_ANTI, K3_PAR):
        w = validate_double_trace(k3, seq)
        cls = classify_trace(w)
        assert (
            cls.minimal_repetitions,
            cls.stability_order,
            cls.strong,
        ) == repetitions_brute(w)


def test_trivial_subsets_are_always_repetitions(k3):
    w = validate_double_trace(k3, K3_ANTI)
    for v in k3.vertices:
        assert is_repetition(w, v, frozenset())
        assert is_repetition(w, v, frozenset(k3.neighbors(v)))


def test_stability_orders(k3):
    assert classify_trace(validate_double_trace(k3, K3_PAR)).stability_order == 1
    assert classify_trace(validate_double_trace(k3, K3_ANTI)).stability_order == 0


def test_classify(k3):
    par = classify_trace(validate_double_trace(k3, K3_PAR))
    assert (par.direction, par.stability_order, par.strong) == ("parallel", 1, True)
    anti = classify_trace(validate_double_trace(k3, K3_ANTI))
    assert (anti.direction, anti.stability_order, anti.strong) == (
        "antiparallel",
        0,
        False,
    )


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), shift=st.integers(0, 50))
def test_classification_is_rotation_invariant(seed, shift):
    rng = random.Random(seed)
    g = random_connected_graph(rng, n_min=2, n_max=5)
    w = random_double_trace(g, rng)
    rotated = w.sequence[shift % w.length:] + w.sequence[: shift % w.length]
    w2 = validate_double_trace(g, rotated)
    assert w2 == w
    assert classify_trace(w2) == classify_trace(w)


def test_link_counts_match_degrees():
    rng = random.Random(7)
    for _ in range(25):
        g = random_connected_graph(rng, n_min=3, n_max=6)
        w = random_double_trace(g, rng)
        # a d-stable trace needs min degree above d, so the order is capped
        assert classify_trace(w).stability_order <= g.min_degree() - 1
        for v in g.vertices:
            links = list(w.visits(v))
            assert len(links) == g.degree(v)
            endpoint_count = {x: 0 for x in g.neighbors(v)}
            for a, b in links:
                endpoint_count[a] += 1
                endpoint_count[b] += 1
            assert all(c == 2 for c in endpoint_count.values())


def test_complement_symmetry_random_traces():
    rng = random.Random(11)
    for _ in range(25):
        g = random_connected_graph(rng, n_min=3, n_max=5)
        w = random_double_trace(g, rng)
        for v in g.vertices:
            nbhd = frozenset(g.neighbors(v))
            from itertools import chain, combinations

            subsets = chain.from_iterable(
                combinations(sorted(nbhd), r) for r in range(len(nbhd) + 1)
            )
            for sub in subsets:
                s = frozenset(sub)
                assert is_repetition(w, v, s) == is_repetition(w, v, nbhd - s)


def test_strong_trace_stability_is_min_degree_minus_one():
    from trace_forge.search import find_trace
    from trace_forge.walks import TraceSpec

    rng = random.Random(3)
    for _ in range(10):
        g = random_connected_graph(rng, n_min=3, n_max=5)
        w = find_trace(g, TraceSpec("strong"))
        assert w is not None
        assert classify_trace(w).stability_order == g.min_degree() - 1


def test_one_directional_reading_matches_iff_on_antiparallel_traces():
    """On antiparallel traces the inbound-closure reading of a repetition
    coincides with the biconditional one (each edge contributes one entry
    and one exit); any disagreement would be reported here."""
    from itertools import chain, combinations

    from trace_forge.search import find_trace
    from trace_forge.walks import TraceSpec

    rng = random.Random(23)
    checked = 0
    for _ in range(12):
        g = random_connected_graph(rng, n_min=3, n_max=5)
        w = find_trace(g, TraceSpec("double", "antiparallel"))
        assert w is not None
        seq = w.sequence
        n = len(seq)
        for v in g.vertices:
            visits = [
                (seq[(i - 1) % n], seq[(i + 1) % n])
                for i, x in enumerate(seq)
                if x == v
            ]
            nbhd = frozenset(g.neighbors(v))
            subsets = chain.from_iterable(
                combinations(sorted(nbhd), r) for r in range(1, len(nbhd))
            )
            for sub in subsets:
                s = frozenset(sub)
                one_directional = all(
                    (succ in s) for pred, succ in visits if pred in s
                )
                iff = all((pred in s) == (succ in s) for pred, succ in visits)
                assert one_directional == iff, (
                    f"repetition readings disagree at {v} for {sorted(s)}"
                )
                checked += 1
    assert checked > 0


def test_one_directional_reading_differs_on_parallel_traces(k3):
    # the parallel triangle trace never enters 0 from 1, so {1} is closed
    # under the inbound reading but is not a repetition in the iff sense
    w = validate_double_trace(k3, K3_PAR)
    visits = list(w.visits(0))
    assert all((succ in {1}) for pred, succ in visits if pred in {1})
    assert not is_repetition(w, 0, frozenset({1}))


def _least_rotation_brute(seq):
    seq = tuple(seq)
    return min((seq[i:] + seq[:i] for i in range(len(seq))), default=())


def test_min_rotation_matches_brute_force():
    """The block scan against the minimum over all rotations, on random
    sequences and on periodic ones, whose least rotation starts at several
    places; on every rotation of sequences whose blocks (each starting at an
    occurrence of the least element) are edge cases; and on seeded traces
    of Q6, the 12 x 12 torus and a random 4-regular graph."""
    rng = random.Random(5)
    for _ in range(20_000):
        alphabet = rng.randint(1, 4)
        if rng.random() < 0.5:
            seq = [rng.randrange(alphabet) for _ in range(rng.randint(1, 24))]
        else:
            period = [rng.randrange(alphabet) for _ in range(rng.randint(1, 5))]
            seq = period * rng.randint(2, 6)
        assert min_rotation(seq) == _least_rotation_brute(seq), seq
    edge_cases = [
        (),
        (7,),
        (0, 3, 2, 5),  # the least element once: at the start,
        (3, 2, 0, 5),  # in the middle
        (3, 2, 5, 0),  # and at the end
        (0, 0, 1, 0, 0, 1),  # runs of the least element
        (0, 0, 0, 1, 0),
        (2, 0, 0, 0),
        (0, 1, 2, 0, 1),  # a block that is a prefix of the other,
        (0, 1, 0, 1, 2),  # in either order
        (0, 1, 0, 1, 0, 1, 2),
        (0, 1, 2, 0, 1, 2, 0, 1),
        (0, 2, 0, 1, 3, 0, 1),
        (5, 5, 5),  # one value only
    ]
    for case in edge_cases:
        for seq in [case[i:] + case[:i] for i in range(len(case))] or [case]:
            assert min_rotation(seq) == _least_rotation_brute(seq), seq
            assert min_rotation(list(seq)) == _least_rotation_brute(seq), seq
    regular = nx.random_regular_graph(4, 60, seed=5)
    for g in (
        hypercube(6),
        torus(12),
        build_graph([(int(u), int(v)) for u, v in regular.edges()]),
    ):
        seq = random_double_trace(g, rng).sequence
        shift = rng.randrange(len(seq))
        seq = seq[shift:] + seq[:shift]
        assert min_rotation(seq) == _least_rotation_brute(seq)


def test_visit_index_matches_rescan():
    """visits(v) against a rescan of the whole sequence for v, visit order
    included: its links join v's neighbors, and their components are the
    minimal repetitions at v."""
    rng = random.Random(13)
    for _ in range(200):
        g = random_connected_graph(rng, n_min=2, n_max=8)
        w = random_double_trace(g, rng)
        seq, n = w.sequence, w.length
        for v in g.vertices:
            rescan = [
                (seq[(i - 1) % n], seq[(i + 1) % n])
                for i, x in enumerate(seq)
                if x == v
            ]
            assert list(w.visits(v)) == rescan
            assert {x for link in w.visits(v) for x in link} == set(g.neighbors(v))
            assert transition_graph_at(w, v) == _components_nx(w, v)
        with pytest.raises(UnknownVertexError, match="not in host"):
            w.visits(max(g.vertices) + 1)


# -- long traces against references built here --------------------------------


def _components_nx(w, v):
    """Components of v's transition graph, by networkx, each a sorted
    tuple, ordered by least element."""
    h = nx.MultiGraph()
    h.add_nodes_from(w.host.neighbors(v))
    h.add_edges_from(w.visits(v))
    return tuple(sorted(tuple(sorted(c)) for c in nx.connected_components(h)))


def _profile_by_steps(w):
    """edge -> direction label, from the list of each edge's directed steps."""
    seq, n = w.sequence, w.length
    steps = {}
    for i in range(n):
        u, v = seq[i], seq[(i + 1) % n]
        steps.setdefault(edge_key(u, v), []).append((u, v))
    return {e: "parallel" if a == b else "antiparallel" for e, (a, b) in steps.items()}


@pytest.mark.parametrize("name", LONG_TRACE_NAMES)
def test_classification_matches_networkx_on_long_traces(name):
    w = long_traces()[name]
    cls = classify_trace(w)
    comps = {v: _components_nx(w, v) for v in w.host.vertices}
    assert cls.minimal_repetitions == comps
    assert list(cls.minimal_repetitions) == list(w.host.vertices)
    # one answer to "the repetitions at v", per vertex or for the whole trace
    for v in w.host.vertices:
        assert transition_graph_at(w, v) == cls.minimal_repetitions[v]
    profile = _profile_by_steps(w)
    assert direction_profile(w) == profile
    labels = set(profile.values())
    assert cls.direction == (labels.pop() if len(labels) == 1 else "mixed")
    assert cls.direction == name.split("-")[1]
    assert cls.stability_order == min(
        (w.host.degree(v) if len(c) == 1 else min(map(len, c))) - 1
        for v, c in comps.items()
    )
    assert cls.strong == all(len(c) == 1 for c in comps.values())


def test_direction_matches_step_profile_on_random_traces():
    # the sample holds traces one edge short of parallel, where a direction
    # read from a count of steps would slip first; one edge short of
    # antiparallel cannot occur, since the parallel edges of a closed walk
    # form directed cycles
    rng = random.Random(17)
    single_antiparallel = 0
    for _ in range(400):
        g = random_connected_graph(rng, n_min=2, n_max=6)
        w = random_double_trace(g, rng)
        labels = Counter(_profile_by_steps(w).values())
        expected = next(iter(labels)) if len(labels) == 1 else "mixed"
        assert classify_trace(w).direction == expected
        assert labels["parallel"] not in (1, 2)
        single_antiparallel += labels == Counter(parallel=g.num_edges - 1, antiparallel=1)
    assert single_antiparallel > 0


def _first_fault(g, seq):
    """What the step-by-step check with a Counter raises first, as
    (type, message, step index or None)."""
    counts = Counter()
    n = len(seq)
    for i in range(n):
        u, v = seq[i], seq[(i + 1) % n]
        if not g.has_edge(u, v):
            err = NonAdjacentStepError(i, u, v)
            return type(err), str(err), i
        counts[edge_key(u, v)] += 1
        if counts[edge_key(u, v)] > 2:
            err = WrongMultiplicityError(edge_key(u, v), counts[edge_key(u, v)])
            return type(err), str(err), None
    return None


def _raised(g, seq):
    try:
        validate_double_trace(g, seq)
    except (NonAdjacentStepError, WrongMultiplicityError) as err:
        return type(err), str(err), getattr(err, "index", None)
    return None


def test_validation_reports_the_first_of_two_faults():
    # both sequences hold a third traversal of 0-1 and a step 3 -> 1 or
    # 0 -> 2 that is no edge of the 4-cycle; the earlier fault is reported
    c4 = cycle_graph(4)
    triple_first = [0, 1, 0, 1, 0, 3, 1, 3]
    with pytest.raises(WrongMultiplicityError) as err:
        validate_double_trace(c4, triple_first)
    assert (err.value.edge, err.value.count) == ((0, 1), 3)
    assert _raised(c4, triple_first) == _first_fault(c4, triple_first)
    non_adjacent_first = [0, 2, 1, 0, 1, 0, 1, 3]
    with pytest.raises(NonAdjacentStepError) as err:
        validate_double_trace(c4, non_adjacent_first)
    assert err.value.index == 0
    assert _raised(c4, non_adjacent_first) == _first_fault(c4, non_adjacent_first)


@pytest.mark.parametrize("name", LONG_TRACE_NAMES)
def test_validation_faults_match_stepwise_check_on_long_traces(name):
    # two vertices of a long trace overwritten, each by a neighbour of the
    # vertex before it: whichever fault comes first is reported, with the
    # same type, message and step index
    w = long_traces()[name]
    rng = random.Random(name)
    kinds = set()
    for _ in range(60):
        seq = list(w.sequence)
        for i in rng.sample(range(w.length), 2):
            seq[i] = rng.choice(w.host.neighbors(seq[i - 1]))
        expected = _first_fault(w.host, seq)
        assert _raised(w.host, seq) == expected
        kinds.add(None if expected is None else expected[0])
    assert {NonAdjacentStepError, WrongMultiplicityError} <= kinds


def test_acceptance_is_exact_on_every_sequence_over_small_hosts():
    # every sequence of length 2|E| over the vertices of each connected
    # atlas graph with at most 4 vertices and 4 edges: validation accepts
    # exactly those the step-by-step check passes and raises its first
    # fault on the others, and an accepted trace's repetitions are the
    # networkx components at every vertex
    hosts = [g for g in atlas_graphs(4) if g.num_edges <= 4]
    assert len(hosts) == 7
    total = accepted = 0
    for g in hosts:
        for seq in product(g.vertices, repeat=2 * g.num_edges):
            total += 1
            expected = _first_fault(g, seq)
            try:
                w = validate_double_trace(g, seq)
            except (NonAdjacentStepError, WrongMultiplicityError) as err:
                assert (type(err), str(err), getattr(err, "index", None)) == expected, seq
                continue
            assert expected is None, seq
            accepted += 1
            reps = classify_trace(w).minimal_repetitions
            assert reps == {v: _components_nx(w, v) for v in g.vertices}, seq
    assert total == 140_078
    assert accepted > 0


@pytest.mark.parametrize(
    "seq, error",
    [
        ((0, 1, 2), WrongLengthError),
        ((0, 1, 0, 1, 0, 1), WrongMultiplicityError),
        ((0, 1, 2, 0, 1, 7), UnknownVertexError),
        ((0, 1, 1, 2, 0, 2), NonAdjacentStepError),
    ],
)
def test_an_unvalidated_non_trace_is_not_classified(k3, seq, error):
    # no trace goes unvalidated: making a DoubleTrace proves it, so a
    # sequence that is no double trace raises there what validation raises
    with pytest.raises(error) as expected:
        validate_double_trace(k3, seq)
    with pytest.raises(error) as err:
        DoubleTrace(k3, seq)
    assert str(err.value) == str(expected.value)


def test_a_trace_made_directly_is_the_validated_one(k3):
    # both store the least rotation and keep the same repetitions
    traces = [(k3, tuple(K3_ANTI))] + [(w.host, w.sequence) for w in long_traces().values()]
    for g, seq in traces:
        rotated = seq[1:] + seq[:1]
        made, validated = DoubleTrace(g, rotated), validate_double_trace(g, rotated)
        assert made == validated
        assert made.sequence == seq
        assert classify_trace(made).minimal_repetitions == (
            classify_trace(validated).minimal_repetitions
        )


def test_classifications_do_not_share_the_repetition_map(k3):
    w = validate_double_trace(k3, K3_ANTI)
    first = classify_trace(w)
    first.minimal_repetitions[0] = ((1, 2),)
    del first.minimal_repetitions[1]
    again = classify_trace(w)
    assert again.minimal_repetitions == {0: ((1,), (2,)), 1: ((0, 2),), 2: ((0, 1),)}
    assert transition_graph_at(w, 0) == ((1,), (2,))
