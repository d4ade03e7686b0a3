"""Double-trace validation and the repetition calculus."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trace_forge.errors import (
    NonAdjacentStepError,
    UnknownVertexError,
    WrongLengthError,
    WrongMultiplicityError,
)
from trace_forge.graph import build_graph, edge_key, path_graph
from trace_forge.walks import (
    classify_trace,
    direction_profile,
    min_rotation,
    trace_direction,
    transition_graph_at,
    validate_double_trace,
)

from conftest import (
    is_repetition,
    random_connected_graph,
    random_double_trace,
    repetitions_brute,
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
    tg = transition_graph_at(w, 0)
    assert tg.links == ((1, 1),)
    assert tg.components == (frozenset({1}),)


def test_transition_graph_antiparallel_triangle(k3):
    w = validate_double_trace(k3, K3_ANTI)
    tg = transition_graph_at(w, 0)
    assert sorted(tg.links) == [(1, 1), (2, 2)]
    assert tg.components == (frozenset({1}), frozenset({2}))


def test_transition_graph_parallel_triangle(k3):
    w = validate_double_trace(k3, K3_PAR)
    tg = transition_graph_at(w, 1)
    assert sorted(tg.links) == [(0, 2), (0, 2)]
    assert tg.components == (frozenset({0, 2}),)


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
            tg = transition_graph_at(w, v)
            assert len(tg.links) == g.degree(v)
            endpoint_count = {x: 0 for x in g.neighbors(v)}
            for a, b in tg.links:
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
    return min(seq[i:] + seq[:i] for i in range(len(seq)))


def test_min_rotation_matches_brute_force():
    """Booth's algorithm against the minimum over all rotations, on random
    sequences and on periodic ones, whose least rotation starts at several
    places."""
    rng = random.Random(5)
    for _ in range(20_000):
        alphabet = rng.randint(1, 4)
        if rng.random() < 0.5:
            seq = [rng.randrange(alphabet) for _ in range(rng.randint(1, 24))]
        else:
            period = [rng.randrange(alphabet) for _ in range(rng.randint(1, 5))]
            seq = period * rng.randint(2, 6)
        assert min_rotation(seq) == _least_rotation_brute(seq), seq


def test_visit_index_matches_rescan():
    """visits(v) and the transition graph against a rescan of the whole
    sequence for v, visit order included."""
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
            tg = transition_graph_at(w, v)
            assert tg.nodes == g.neighbors(v)
            assert tg.links == tuple(sorted(edge_key(p, s) for p, s in rescan))
        assert list(w.visits(max(g.vertices) + 1)) == []
