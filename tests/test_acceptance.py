"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

The heavy sweep (criterion 1) is shared by criteria 6 and 7 through a
module-scoped fixture.  Every criterion has zero tolerance; a FAIL line is
followed by the pytest assertion failure.
"""

import json
import random
from pathlib import Path

import pytest

from trace_forge.cli import main as cli_main
from trace_forge.decide import (
    condition_table,
    extract_qualified_tree_from_trace,
    find_witness,
    sufficient_four_edge_connected,
)
from trace_forge.graph import betti_number, build_graph
from trace_forge.search import find_trace
from trace_forge.spanning import min_tree, qualified_deficiency_of_tree
from trace_forge.transform import split_reduce_deficiency, split_reduce_qualified
from trace_forge.walks import TraceSpec, classify_trace

from conftest import (
    atlas_graphs,
    canonical_form,
    converse_tree,
    fixture_family,
    is_repetition,
    odd_components,
    qualified_trees,
    random_connected_graph,
    random_double_trace,
    random_spanning_tree,
    repetitions_brute,
    split_parts,
)

FIXTURES = Path(__file__).parent / "fixtures"


def report(number: int, name: str, violations: list) -> None:
    status = "PASS" if not violations else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status}")
    assert not violations, violations[:10]


@pytest.fixture(scope="module")
def characterization_sweep():
    """Criterion-1 instance set and verdicts.

    All connected graphs on 3..5 vertices up to isomorphism, from the
    networkx graph atlas, plus a seeded random sample of 6-vertex graphs
    (capped at 12 edges so the exhaustive oracle stays tractable), at least
    200 graphs in total.  The oracle is memoized by canonical form since
    trace existence is isomorphism invariant.
    """
    rng = random.Random(2026)
    sample = [g for g in atlas_graphs(5) if g.num_vertices >= 3]
    while len(sample) < 200:
        sample.append(
            random_connected_graph(
                rng,
                n_min=6,
                n_max=6,
                extra_edge_prob=rng.choice([0.2, 0.35, 0.5, 0.65]),
                max_edges=12,
            )
        )
    oracle_memo: dict = {}
    results = []
    for g in sample:
        for d in (1, 2):
            predicate = (
                g.min_degree() > d
                and next(qualified_trees(g, 2 * d + 2), None) is not None
            )
            key = (canonical_form(g.num_vertices, frozenset(g.edges)), d)
            if key not in oracle_memo:
                representative = build_graph(sorted(key[0]))
                oracle_memo[key] = (
                    find_trace(representative, TraceSpec("stable", "antiparallel", d))
                    is not None
                )
            results.append((g, d, predicate, oracle_memo[key]))
    return results


def test_criterion_1_characterization_equivalence(characterization_sweep):
    violations = [
        (sorted(g.edges), d, predicate, oracle)
        for g, d, predicate, oracle in characterization_sweep
        if predicate != oracle
    ]
    assert len(characterization_sweep) >= 400  # >= 200 graphs x 2 stability orders
    report(1, "characterization predicate equals exhaustive search", violations)


def test_criterion_2_condition_matrix():
    violations = []
    pinned = {
        ("K4", "stable", "antiparallel", 1): False,
        ("K5", "stable", "antiparallel", 1): True,
        ("Q3", "stable", "antiparallel", 1): False,
        ("K3", "strong", "antiparallel", None): False,
        ("K5", "strong", "antiparallel", None): True,
    }
    for name, g in fixture_family().items():
        table = condition_table(g, [1, 2, 3])
        for (kind, direction, d), cert in table.items():
            oracle = find_trace(g, TraceSpec(kind, direction, d)) is not None
            if cert.verdict != oracle:
                violations.append((name, kind, direction, d, cert.verdict, oracle))
            expected = pinned.get((name, kind, direction, d))
            if expected is not None and cert.verdict != expected:
                violations.append((name, kind, direction, d, "pinned", expected))
    report(2, "all nine matrix cells match the exhaustive oracle", violations)


def test_criterion_3_repetition_calculus():
    rng = random.Random(3003)
    violations = []
    checked = 0
    while checked < 1000:
        g = random_connected_graph(rng, n_min=2, n_max=7, max_edges=14)
        if g.max_degree() > 6:
            continue
        w = random_double_trace(g, rng)
        analysis = classify_trace(w)
        brute_reps, brute_order, brute_strong = repetitions_brute(w)
        if analysis.minimal_repetitions != brute_reps:
            violations.append(("brute force disagrees", sorted(g.edges), w.sequence))
        if (analysis.stability_order, analysis.strong) != (brute_order, brute_strong):
            violations.append(("summary disagrees", sorted(g.edges), w.sequence))
        for v in g.vertices:
            nbhd = frozenset(g.neighbors(v))
            from itertools import chain, combinations

            for sub in chain.from_iterable(
                combinations(sorted(nbhd), r) for r in range(len(nbhd) + 1)
            ):
                s = frozenset(sub)
                if is_repetition(w, v, s) != is_repetition(w, v, nbhd - s):
                    violations.append(("symmetry broken", v, sorted(s)))
        checked += 1
    report(3, "repetitions match brute force and complements mirror", violations)


def test_criterion_4_deficiency_laws():
    rng = random.Random(4004)
    violations = []
    for _ in range(1000):
        g = random_connected_graph(rng, n_min=3, n_max=6)
        t = random_spanning_tree(g, rng)
        beta = betti_number(g)
        value = qualified_deficiency_of_tree(t, 0)
        minimum = min_tree(g)[0]
        if value % 2 != beta % 2:
            violations.append(("parity", sorted(g.edges), sorted(t.tree_edges)))
        if minimum > value:
            violations.append(("minimality", sorted(g.edges)))
        if (min_tree(g, None) is not None) != (minimum == 0):
            violations.append(("even-cotree equivalence", sorted(g.edges)))
    report(4, "deficiency parity, minimality, and zero-test", violations)


def test_criterion_5_split_reduction_machinery():
    rng = random.Random(5005)
    violations = []
    checked = 0
    while checked < 500:
        g = random_connected_graph(rng, n_min=4, n_max=6)
        t = random_spanning_tree(g, rng)
        odd = odd_components(t)
        odd_vertices = sorted(v for comp in odd for v in comp.vertices)
        if not odd_vertices:
            continue
        v = rng.choice(odd_vertices)
        before = qualified_deficiency_of_tree(t, 0)
        split = split_reduce_deficiency(t, v)
        from trace_forge.graph import is_connected

        if not is_connected(split.host):
            violations.append(("disconnected", sorted(g.edges), v))
        if qualified_deficiency_of_tree(split, 0) >= before:
            violations.append(("no decrease", sorted(g.edges), v))
        degree = g.degree(v)
        if sorted(len(p) for p in split_parts(t, split)) != sorted(
            ((degree + 1) // 2, degree // 2)
        ):
            violations.append(("bad halves", sorted(g.edges), v))
        # qualified variant at the largest threshold the instance supports
        threshold = min(
            [g.degree(v)] + [max(g.degree(x) for x in comp.vertices) for comp in odd]
        )
        after = qualified_deficiency_of_tree(split_reduce_qualified(t, v, threshold), threshold)
        if after is None:
            violations.append(("qualification lost", sorted(g.edges), v, threshold))
        elif after >= before:
            violations.append(("qualified no decrease", sorted(g.edges), v))
        checked += 1
    report(5, "deficiency-reducing splits validate universally", violations)


@pytest.fixture(scope="module")
def build_results(characterization_sweep):
    results = []
    for g, d, predicate, oracle in characterization_sweep:
        if not predicate:
            continue
        results.append((g, d, find_witness(g, "stable", "antiparallel", d)))
    return results


def test_criterion_6_constructive_round_trip(build_results):
    violations = []
    for g, d, trace in build_results:
        if trace is None:
            violations.append(("no trace built", sorted(g.edges), d))
            continue
        cls = classify_trace(trace)
        if cls.direction != "antiparallel" or cls.stability_order < d:
            violations.append(("bad trace", sorted(g.edges), d, cls))
            continue
        tree = extract_qualified_tree_from_trace(trace, d)
        if tree.host != g or qualified_deficiency_of_tree(tree, 2 * d + 2) is None:
            violations.append(("bad extracted tree", sorted(g.edges), d))
        # the paper's converse, replayed: project to a strong trace, take an
        # all-even tree there and transfer it back
        tree = converse_tree(trace, d)
        if tree.host != g or qualified_deficiency_of_tree(tree, 2 * d + 2) is None:
            violations.append(("bad converse tree", sorted(g.edges), d))
    assert build_results  # the sweep contains yes-instances
    report(6, "built traces validate, and extraction and the converse qualify", violations)


def test_criterion_7_sufficient_shortcut(characterization_sweep, k5):
    violations = []
    for d in (1, 2, 3):
        if not sufficient_four_edge_connected(k5, d):
            violations.append(("K5 should be sufficient", d))
    for g, d, predicate, oracle in characterization_sweep:
        if not predicate and sufficient_four_edge_connected(g, d):
            violations.append(("sufficient on a no-instance", sorted(g.edges), d))
    report(7, "four-edge-connected shortcut is sound", violations)


def test_criterion_8_cli_contract(tmp_path, capsys):
    violations = []
    # matrix reproduction with byte-stable JSON
    for name in ("k3", "p3", "c4", "k4", "k5", "q3"):
        argv = [
            "table", "-i", str(FIXTURES / f"{name}.edges"), "-d", "1,2,3", "--json",
        ]
        code1 = cli_main(argv)
        out1 = capsys.readouterr().out
        code2 = cli_main(argv)
        out2 = capsys.readouterr().out
        if code1 != 0 or code2 != 0:
            violations.append(("table exit", name))
            continue
        if out1 != out2:
            violations.append(("json not byte-stable", name))
        doc = json.loads(out1)
        g = fixture_family()[name.upper()]
        expected = condition_table(g, [1, 2, 3])
        for cell in doc["cells"]:
            key = (cell["kind"], cell["direction"], cell["d"])
            if (cell["verdict"] == "yes") != expected[key].verdict:
                violations.append(("cell mismatch", name, key))
        # find -> verify round trip on yes cells
        for cell in doc["cells"]:
            if cell["verdict"] != "yes":
                continue
            argv = [
                "find", "-i", str(FIXTURES / f"{name}.edges"),
                "--kind", cell["kind"], "--direction", cell["direction"],
            ]
            if cell["d"] is not None:
                argv += ["-d", str(cell["d"])]
            code = cli_main(argv)
            out = capsys.readouterr().out
            if code != 0:
                violations.append(("find failed on yes cell", name, cell))
                continue
            trace_file = tmp_path / "trace.txt"
            trace_file.write_text(out.splitlines()[0] + "\n")
            argv = [
                "verify", "-i", str(FIXTURES / f"{name}.edges"),
                "-t", str(trace_file),
                "--kind", cell["kind"], "--direction", cell["direction"],
            ]
            if cell["d"] is not None:
                argv += ["-d", str(cell["d"])]
            code = cli_main(argv)
            capsys.readouterr()
            if code != 0:
                violations.append(("verify failed on found trace", name, cell))
    report(8, "CLI matrix, byte-stable JSON, find/verify round trip", violations)
