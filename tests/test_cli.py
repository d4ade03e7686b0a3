"""End-to-end CLI contract: exit codes, JSON documents, format parity."""

import argparse
import gc
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

from trace_forge import cli, decide, search, walks
from trace_forge.cli import main
from trace_forge.formats import (
    load_graph,
    load_trace_sequence,
    parse_edgelist,
    parse_graph6,
    parse_trace_text,
)
from trace_forge.errors import ParseError
from trace_forge.graph import Graph, build_graph, complete_graph

from conftest import atlas_graphs

FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_formats_agree_on_fixture_corpus():
    for name in ("k3", "p3", "c4", "k4", "k5", "q3"):
        from_edges = load_graph(FIXTURES / f"{name}.edges", "edgelist")
        from_g6 = load_graph(FIXTURES / f"{name}.g6", "graph6")
        assert from_edges == from_g6, name


def test_parse_error_reports_line_number():
    with pytest.raises(ParseError) as err:
        load_graph(FIXTURES / "bad.edges", "edgelist")
    assert err.value.line == 5


def test_parse_rejects_garbage_graph6():
    with pytest.raises(ParseError):
        parse_graph6("")
    with pytest.raises(ParseError):
        parse_edgelist("")


@pytest.mark.parametrize(
    "text,line,message",
    [
        ("0 1\n1 x\n", 2, "non-integer vertex id in '1 x'"),
        ("0 1\n# comment\n1 -2\n", 3, "negative vertex id in '1 -2'"),
        ("0 1\n1 1\n", None, "self-loop at vertex 1"),
        ("0 1\n1 0\n", None, "edge (0, 1) given more than once"),
        ("0 1\n1 0\n1 2\n2 y\n", 4, "non-integer vertex id in '2 y'"),
        ("\ufeff0 1\n1 2\n", 1, "non-integer vertex id in '\\ufeff0 1'"),
        ("0 1_0\n", 1, "non-decimal vertex id in '0 1_0'"),
        ("0 1\n0 +2\n", 2, "non-decimal vertex id in '0 +2'"),
        ("0 1\n1 -0\n", 2, "non-decimal vertex id in '1 -0'"),
        ("0 \u0661\n", 1, "non-decimal vertex id in '0 \u0661'"),
        ("0 1\n1 0\n\uff11 2\n", 3, "non-decimal vertex id in '\uff11 2'"),
    ],
    ids=[
        "non-integer", "negative", "self-loop", "repeat", "repeat-then-non-integer", "bom",
        "underscore", "plus", "minus-zero", "arabic-indic", "fullwidth-after-repeat",
    ],
)
def test_edgelist_rejects_bad_ids(tmp_path, capsys, text, line, message):
    # a self-loop or a repeated edge is reported once every line has parsed,
    # without a line number, so a malformed line after it wins
    if line is not None:
        message = f"line {line}: {message}"
    with pytest.raises(ParseError) as err:
        parse_edgelist(text)
    assert (err.value.line, str(err.value)) == (line, message)
    path = tmp_path / "bad.edges"
    path.write_text(text, encoding="utf-8")
    assert main(["decide", "-i", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_edgelist_line_endings_and_comments():
    k3 = complete_graph(3)
    for text in (
        "0 1\r\n1 2\r\n0 2\r\n",
        "0\t1\n1 \t 2\n\t0 2\t\n",
        "0 1\n1 2\n0 2",
        "# K3\n0 1\n   # a comment only\n\n1 2 # trailing\n#\n0 2\n",
        "# K3 \u00b1 1_0 +2 -0\n0\u00a01\n1 2 # \u0662\n0 2\n",
    ):
        assert parse_edgelist(text) == k3, text
    with pytest.raises(ParseError, match="no edges in input"):
        parse_edgelist("# nothing\n  # here\n")


def test_edgelist_parses_every_atlas_graph_as_build_graph():
    for g in atlas_graphs(7):
        # endpoints swapped and the lines reversed, so the canonical keys and
        # the sort are what make the two equal
        text = "".join(f"{v} {u}\n" for u, v in reversed(g.edges))
        assert parse_edgelist(text) == build_graph(g.edges), g.edges


def test_edgelist_graph_ignores_line_and_pair_order():
    # the accepted edges are sorted from file order, so every order of the
    # lines and of the ids on a line gives the same graph; a malformed line
    # still wins over an earlier repeated edge or self-loop, and without it
    # the first of those two is reported
    rng = random.Random(38)
    regular = nx.random_regular_graph(4, 500, seed=38)
    graphs = atlas_graphs(7) + [build_graph([(int(u), int(v)) for u, v in regular.edges()])]
    for g in graphs:
        expected = build_graph(g.edges)
        for _ in range(2):
            lines = [f"{u} {v}\n" if rng.random() < 0.5 else f"{v} {u}\n" for u, v in g.edges]
            rng.shuffle(lines)
            assert parse_edgelist("".join(lines)) == expected, lines
        repeat = rng.randint(1, len(lines))
        loop = rng.choice([at for at in range(len(lines) + 1) if at != repeat])
        # the repeat goes after its edge's line, the self-loop anywhere else
        u, v = sorted(map(int, lines[rng.randrange(repeat)].split()))
        faults = {repeat: (f"{v} {u}\n", f"edge {(u, v)} given more than once"),
                  loop: (f"{u} {u}\n", f"self-loop at vertex {u}")}
        bad = list(lines)
        for at in sorted(faults, reverse=True):
            bad.insert(at, faults[at][0])
        with pytest.raises(ParseError) as err:
            parse_edgelist("".join(bad))
        assert (err.value.line, str(err.value)) == (None, faults[min(faults)][1])
        bad.insert(rng.randint(max(faults) + 2, len(bad)), "1 x\n")  # after both
        with pytest.raises(ParseError) as err:
            parse_edgelist("".join(bad))
        assert err.value.line == bad.index("1 x\n") + 1
        assert str(err.value).endswith("non-integer vertex id in '1 x'")


def test_graph6_accepts_header_and_rejects_invalid_data():
    assert parse_graph6(">>graph6<<Bw\n") == load_graph(FIXTURES / "k3.g6", "graph6")
    assert parse_graph6("\n\n>>graph6<<Bw\n\n") == parse_graph6("Bw")
    with pytest.raises(ParseError, match="invalid graph6 data"):
        parse_graph6("B~~")


@pytest.mark.parametrize(
    "text, line",
    [("C~\nD~{\n", 2), ("\nC~\n\n>>graph6<<D~{\n\n", 4)],
    ids=["k4-then-k5", "blank-lines-and-header"],
)
def test_graph6_rejects_a_second_graph(tmp_path, capsys, text, line):
    # every line after the graph is read: a second graph is an error, not
    # silently dropped
    path = tmp_path / "two.g6"
    path.write_text(text)
    assert main(["table", "-i", str(path), "--format", "graph6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: line {line}: graph6 input has a second non-blank line\n"


def test_trace_file_rejects_non_integer_vertex(tmp_path):
    path = tmp_path / "bad.trace"
    path.write_text("0 1 x 0 2 1\n")
    with pytest.raises(ParseError, match="non-integer vertex id"):
        load_trace_sequence(path)


@pytest.mark.parametrize(
    "field", ["1_0", "+1", "-0", "\u0661", "\uff11"],
    ids=["underscore", "plus", "minus-zero", "arabic-indic", "fullwidth"],
)
def test_trace_file_rejects_non_decimal_vertex(tmp_path, capsys, field):
    # int() reads each of these as a vertex id; a trace of K3 with one in
    # place of vertex 1 is rejected by the parser, not classified
    text = f"0 {field} 2 0 1 2\n"
    message = f"non-decimal vertex id in trace: {field!r}"
    with pytest.raises(ParseError) as err:
        parse_trace_text(text)
    assert str(err.value) == message
    path = tmp_path / "bad.trace"
    path.write_text(text, encoding="utf-8")
    argv = ["verify", "-i", str(FIXTURES / "k3.edges"), "-t", str(path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_trace_ids_the_decimal_check_lets_through(tmp_path, capsys):
    # a negative id keeps the host check's message, and non-ASCII spacing,
    # which turns the check on, still separates decimal ids
    path = tmp_path / "negative.trace"
    path.write_text("0 -1 2 0 1 2\n")
    assert main(["verify", "-i", str(FIXTURES / "k3.edges"), "-t", str(path)]) == 2
    assert capsys.readouterr().err == "error: vertex -1 not in host\n"
    assert parse_trace_text("\u00a00 1 2 0 1 2") == (0, 1, 2, 0, 1, 2)


def test_decide_yes_exit0_with_witness_tree(capsys):
    code, out = run(
        capsys,
        "decide", "-i", str(FIXTURES / "k5.edges"),
        "--kind", "stable", "-d", "1", "--direction", "antiparallel", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "trace-forge/1"
    assert doc["verdict"] == "yes"
    assert doc["evidence"]["type"] == "tree"
    assert len(doc["evidence"]["edges"]) == 4


def test_decide_no_exit1_with_condition(capsys):
    code, out = run(
        capsys,
        "decide", "-i", str(FIXTURES / "k4.edges"),
        "--kind", "stable", "-d", "1", "--direction", "antiparallel", "--json",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["evidence"]["name"] == "NoQualifiedTree"
    assert doc["evidence"]["label"] == "NoQualifiedTree(D=4)"


def test_decide_parse_error_exit2(capsys):
    code, _ = run(capsys, "decide", "-i", str(FIXTURES / "bad.edges"))
    assert code == 2


def test_decide_disconnected_exit2(tmp_path, capsys):
    path = tmp_path / "disc.edges"
    path.write_text("0 1\n2 3\n")
    code, _ = run(capsys, "decide", "-i", str(path))
    assert code == 2


def test_decide_oracle_flag_agrees(capsys):
    code, _ = run(
        capsys,
        "decide", "-i", str(FIXTURES / "k4.edges"),
        "--kind", "stable", "-d", "1", "--direction", "antiparallel", "--oracle",
    )
    assert code == 1


def test_find_strong_exit0_everywhere(capsys):
    for name in ("k3", "p3", "c4", "k4"):
        code, out = run(
            capsys, "find", "-i", str(FIXTURES / f"{name}.edges"), "--kind", "strong"
        )
        assert code == 0, name
        assert out.strip()


def test_find_not_found_exit1(capsys):
    code, _ = run(
        capsys,
        "find", "-i", str(FIXTURES / "c4.edges"),
        "--kind", "stable", "-d", "1", "--direction", "antiparallel",
    )
    assert code == 1
    code, _ = run(
        capsys,
        "find", "-i", str(FIXTURES / "k4.edges"),
        "--kind", "double", "--direction", "parallel",
    )
    assert code == 1


@pytest.mark.parametrize(
    "edges",
    [
        complete_graph(7).edges,  # odd Betti number
        ((0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)),  # no even co-tree
    ],
    ids=["K7", "bridged-triangles"],
)
def test_find_answers_no_cells_without_search(tmp_path, capsys, monkeypatch, edges):
    def no_search(g, spec, budget):
        raise AssertionError("find searched a cell that decide answers no")

    monkeypatch.setattr(decide, "find_trace", no_search)
    path = tmp_path / "g.edges"
    path.write_text("".join(f"{u} {v}\n" for u, v in edges))
    code, out = run(
        capsys, "find", "-i", str(path), "--kind", "strong", "--direction", "antiparallel"
    )
    assert (code, out) == (1, "not found\n")


@pytest.mark.parametrize("direction", ["antiparallel", "any"])
def test_find_rejects_edgeless_input(tmp_path, capsys, direction):
    # every cell names the same cause, whether it is built or searched
    path = tmp_path / "k1.g6"
    path.write_text("@\n")
    code = main(
        ["find", "-i", str(path), "--format", "graph6", "--kind", "strong", "--direction", direction]
    )
    assert code == 2
    assert capsys.readouterr().err == "error: a double trace needs at least one edge\n"


def test_find_searches_yes_cells(capsys, monkeypatch):
    calls = []
    search_trace = decide.find_trace

    def counting(g, spec, budget):
        calls.append(spec)
        return search_trace(g, spec, budget)

    monkeypatch.setattr(decide, "find_trace", counting)
    code, _ = run(
        capsys,
        "find", "-i", str(FIXTURES / "k5.edges"),
        "--kind", "strong", "--direction", "antiparallel",
    )
    assert code == 0
    assert len(calls) == 1


def test_find_prints_the_trace_decide_prints(capsys):
    # one witness dispatch: wherever decide shows a trace, find prints it
    compared = 0
    for name in ("k3", "p3", "c4", "k4", "k5", "q3"):
        path = str(FIXTURES / f"{name}.edges")
        for direction in ("any", "parallel", "antiparallel"):
            for kind, d in (("double", None), ("stable", "1"), ("stable", "2"), ("stable", "3"), ("strong", None)):
                cell = ["--kind", kind, "--direction", direction] + (["-d", d] if d else [])
                _, out = run(capsys, "decide", "-i", path, *cell, "--json")
                evidence = json.loads(out).get("evidence", {})
                if evidence.get("type") != "trace":
                    continue
                code, out = run(capsys, "find", "-i", path, *cell, "--json")
                assert (code, json.loads(out)["trace"]) == (0, evidence["sequence"]), (name, cell)
                compared += 1
    assert compared == 38


def test_find_verify_round_trip(tmp_path, capsys):
    code, out = run(
        capsys,
        "find", "-i", str(FIXTURES / "k5.edges"),
        "--kind", "stable", "-d", "1", "--direction", "antiparallel",
    )
    assert code == 0
    trace_line = out.splitlines()[0]
    trace_file = tmp_path / "trace.txt"
    trace_file.write_text(trace_line + "\n")
    code, _ = run(
        capsys,
        "verify", "-i", str(FIXTURES / "k5.edges"), "-t", str(trace_file),
        "--kind", "stable", "-d", "1", "--direction", "antiparallel",
    )
    assert code == 0


def test_verify_reports_repetition(tmp_path, capsys):
    trace_file = tmp_path / "trace.txt"
    trace_file.write_text("0 1 2 0 2 1\n")
    code, out = run(
        capsys,
        "verify", "-i", str(FIXTURES / "k3.edges"), "-t", str(trace_file),
        "--kind", "stable", "-d", "1", "--json",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["classification"]["stability_order"] == 0
    assert [[1], [2]] == doc["minimal_repetitions"]["0"]


def test_verify_text_mode_bytes(tmp_path, capsys):
    # vertices 0 and 2 have disconnected transition graphs; each component
    # prints as a list, the singletons too
    trace_file = tmp_path / "trace.txt"
    trace_file.write_text("0 1 2 1 3 0 2 0 3 2 3 1\n")
    code, out = run(
        capsys,
        "verify", "-i", str(FIXTURES / "k4.edges"), "-t", str(trace_file),
        "--kind", "stable", "-d", "1",
    )
    assert code == 1
    assert out == (
        "direction: antiparallel\n"
        "stability_order: 0\n"
        "strong: False\n"
        "repetitions at 0: [1] [2, 3]\n"
        "repetitions at 1: [0, 2, 3]\n"
        "repetitions at 2: [0] [1] [3]\n"
        "repetitions at 3: [0, 1, 2]\n"
        "satisfies requested cell: no\n"
    )


def test_verify_strong_parallel_exit0(tmp_path, capsys):
    trace_file = tmp_path / "trace.txt"
    trace_file.write_text("0 1 2 0 1 2\n")
    code, _ = run(
        capsys,
        "verify", "-i", str(FIXTURES / "k3.edges"), "-t", str(trace_file),
        "--kind", "strong", "--direction", "parallel",
    )
    assert code == 0


def test_verify_wrong_length_exit2(tmp_path, capsys):
    trace_file = tmp_path / "trace.txt"
    trace_file.write_text("0 1 2\n")
    code, _ = run(
        capsys,
        "verify", "-i", str(FIXTURES / "k3.edges"), "-t", str(trace_file),
    )
    assert code == 2


@pytest.mark.parametrize(
    "text, line",
    [("0 1 2 0 2 1\nnot a trace at all\n", 2), ("0 1 2\n0 2 1\n", 2)],
    ids=["garbage-second-line", "split-trace"],
)
def test_verify_rejects_a_second_trace_line(tmp_path, capsys, text, line):
    # the lines after the trace are read, not ignored
    trace_file = tmp_path / "trace.txt"
    trace_file.write_text(text)
    assert main(["verify", "-i", str(FIXTURES / "k3.edges"), "-t", str(trace_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: line {line}: trace file has a second non-blank line\n"


def test_verify_traverses_no_host(tmp_path, capsys, monkeypatch):
    # a valid trace proves its host connected; an isolated vertex in a
    # graph6 host is still reported, by the traversal
    traversals = []
    traverse = Graph.connected.func

    def counting(g):
        traversals.append(g)
        return traverse(g)

    monkeypatch.setattr(Graph.connected, "func", counting)
    trace_file = tmp_path / "trace.txt"
    trace_file.write_text("0 1 2 0 2 1\n")
    for name, fmt in (("k3.edges", "edgelist"), ("k3.g6", "graph6")):
        argv = ["verify", "-i", str(FIXTURES / name), "--format", fmt, "-t", str(trace_file)]
        assert main([*argv, "--json"]) == 0
        assert main(argv) == 0
    assert traversals == []
    host = tmp_path / "k3-and-a-point.g6"
    host.write_text("Cw\n")
    capsys.readouterr()
    assert main(["verify", "-i", str(host), "--format", "graph6", "-t", str(trace_file)]) == 2
    assert len(traversals) == 1
    assert capsys.readouterr().err == "error: operation requires a connected graph\n"


def test_deficiency_command(capsys):
    code, out = run(
        capsys, "deficiency", "-i", str(FIXTURES / "k4.edges"), "-d", "4", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["betti_number"] == 3
    assert doc["deficiency"] == 1
    assert doc["qualified_deficiency"] == "NoQualifiedTree"


def test_deficiency_rejects_a_negative_threshold(capsys):
    code = main(["deficiency", "-i", str(FIXTURES / "k4.edges"), "-d", "-1", "--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: degree threshold must be non-negative, got -1\n"


def test_deficiency_threshold_zero_admits_every_tree(capsys):
    code, out = run(
        capsys, "deficiency", "-i", str(FIXTURES / "k4.edges"), "-d", "0", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["qualified_threshold"] == 0
    assert doc["qualified_deficiency"] == doc["deficiency"] == 1
    assert doc["qualified_witness_tree"] == doc["witness_tree"] == [[0, 1], [0, 2], [0, 3]]


def test_deficiency_tree_input(tmp_path, capsys):
    path = tmp_path / "tree.edges"
    path.write_text("0 1\n1 2\n2 3\n")
    code, out = run(capsys, "deficiency", "-i", str(path), "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["betti_number"] == 0
    assert doc["deficiency"] == 0


def test_table_command_json_stable(capsys):
    args = (
        "table", "-i", str(FIXTURES / "k3.edges"), "-d", "1", "--json",
    )
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-stable reruns
    doc = json.loads(out1)
    cells = {(c["kind"], c["direction"], c["d"]): c["verdict"] for c in doc["cells"]}
    assert cells[("stable", "antiparallel", 1)] == "no"
    assert cells[("double", "parallel", None)] == "yes"
    assert len(doc["cells"]) == 9


def test_table_disconnected_exit2(tmp_path, capsys):
    path = tmp_path / "disc.edges"
    path.write_text("0 1\n2 3\n")
    code, _ = run(capsys, "table", "-i", str(path))
    assert code == 2


def test_console_entry_point_runs():
    src = str(Path(__file__).resolve().parent.parent / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "trace_forge", "decide",
         "-i", str(FIXTURES / "k3.g6"), "--format", "graph6",
         "--kind", "double"],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0


def test_budget_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TRACE_FORGE_BUDGET", "1")
    code, _ = run(
        capsys, "find", "-i", str(FIXTURES / "k5.edges"), "--kind", "strong"
    )
    assert code == 2  # budget exhausted maps to the error exit code


def test_parallel_stable_search_runs_under_budget(tmp_path, capsys, monkeypatch):
    # the doubled Euler tour of K7 is not 2-stable, so the search runs and
    # must see the budget instead of demanding one
    path = tmp_path / "k7.edges"
    path.write_text("".join(f"{u} {v}\n" for u, v in complete_graph(7).edges))
    monkeypatch.setenv("TRACE_FORGE_BUDGET", "1000")
    code = main(
        ["decide", "-i", str(path), "--kind", "stable", "-d", "2", "--direction", "parallel"]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "search budget exhausted" in err
    assert "explicit search budget" not in err


def test_default_budget_caps_cli_search(capsys, monkeypatch):
    # K5 has 10 edges; with no TRACE_FORGE_BUDGET the search runs under
    # search.DEFAULT_BUDGET like every library search
    monkeypatch.setattr(search, "DEFAULT_BUDGET", 1)
    monkeypatch.delenv("TRACE_FORGE_BUDGET", raising=False)
    code = main(["find", "-i", str(FIXTURES / "k5.edges"), "--kind", "strong"])
    assert code == 2
    assert "search budget exhausted after 2 nodes" in capsys.readouterr().err


def test_table_oracle_searches_large_hosts_under_budget(tmp_path, capsys, monkeypatch):
    path = tmp_path / "k6.edges"
    path.write_text("".join(f"{u} {v}\n" for u, v in complete_graph(6).edges))
    monkeypatch.setenv("TRACE_FORGE_BUDGET", "1000")
    assert main(["table", "-i", str(path), "--oracle"]) == 2
    assert "search budget exhausted" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,cell",
    [
        (["decide", "--kind", "strong"], "(strong, any, d=None)"),
        (["table"], "(double, any, d=None)"),
    ],
)
def test_oracle_disagreement_names_the_cell(capsys, monkeypatch, argv, cell):
    monkeypatch.setattr(cli, "find_trace", lambda g, spec, budget: None)
    # with no witness in hand, decide's yes-cell goes to the oracle
    monkeypatch.setattr(cli, "_witness", lambda *args, **kwargs: None)
    code = main(argv + ["-i", str(FIXTURES / "k3.edges"), "--oracle"])
    assert code == 2
    assert capsys.readouterr().err == (
        f"oracle disagreement at cell {cell}: predicate=True found=False\n"
    )


def test_decide_oracle_trusts_a_witness_in_hand(capsys, monkeypatch):
    # find_witness searches for Q3's strong trace; the oracle does not
    # repeat that search, because the trace classifies into the cell
    searches = []

    def counting(find):
        def wrapper(g, spec, budget=None):
            searches.append(spec)
            return find(g, spec, budget)

        return wrapper

    monkeypatch.setattr(cli, "find_trace", counting(cli.find_trace))
    monkeypatch.setattr(decide, "find_trace", counting(decide.find_trace))
    argv = ["decide", "-i", str(FIXTURES / "q3.edges"), "--kind", "strong"]
    code, out = run(capsys, *argv, "--oracle")
    assert code == 0 and out.startswith("verdict: yes\nwitness trace: ")
    assert searches == [walks.TraceSpec("strong", "any")]
    # a no-cell and a tree-cell have no trace in hand: the oracle searches
    searches.clear()
    code, _ = run(capsys, *argv[:3], "--kind", "stable", "-d", "3", "--oracle")
    assert code == 1 and len(searches) == 1
    searches.clear()
    k5 = str(FIXTURES / "k5.edges")
    code, _ = run(capsys, "decide", "-i", k5, "--kind", "strong",
                  "--direction", "antiparallel", "--oracle")  # fmt: skip
    assert code == 0 and len(searches) == 1


@pytest.mark.parametrize(
    "cell",
    [["--kind", "double"], ["--kind", "stable", "-d", "1", "--direction", "parallel"]],
    ids=["double-any", "stable-parallel"],
)
def test_decide_decides_a_treeless_yes_once(capsys, monkeypatch, cell):
    # the witness step takes decide's certificate instead of deciding again
    calls = []
    decide_cells = decide._decide_cells

    def counting(g, specs):
        calls.append(specs)
        return decide_cells(g, specs)

    monkeypatch.setattr(decide, "_decide_cells", counting)
    code, out = run(capsys, "decide", "-i", str(FIXTURES / "k5.edges"), *cell)
    assert code == 0 and out.startswith("verdict: yes\nwitness trace: ")
    assert len(calls) == 1


def test_malformed_budget_fails_plain_table(capsys, monkeypatch):
    monkeypatch.setenv("TRACE_FORGE_BUDGET", "x")
    assert main(["table", "-i", str(FIXTURES / "k3.edges")]) == 2
    assert capsys.readouterr().err == (
        "error: TRACE_FORGE_BUDGET must be a positive integer, got 'x'\n"
    )


@pytest.mark.parametrize("value", ["-5", "0", "x", "1e3", ""])
def test_budget_must_be_a_positive_integer(capsys, monkeypatch, value):
    monkeypatch.setenv("TRACE_FORGE_BUDGET", value)
    assert main(["find", "-i", str(FIXTURES / "k5.edges"), "--kind", "strong"]) == 2
    assert capsys.readouterr().err == (
        f"error: TRACE_FORGE_BUDGET must be a positive integer, got {value!r}\n"
    )


def test_main_reuses_parser_without_carry_over(tmp_path, capsys):
    """main() calls made a second time in one process print what they
    printed the first time: no call leaves state behind for the next."""
    k4, k5 = str(FIXTURES / "k4.edges"), str(FIXTURES / "k5.edges")
    trace = tmp_path / "k3.trace"
    trace.write_text("0 1 2 0 2 1\n")
    calls = [
        ["decide", "-i", k4, "--kind", "stable", "-d", "1", "--direction", "antiparallel", "--json"],
        ["decide", "-i", k5, "--kind", "stable", "-d", "3", "--direction", "antiparallel", "--json"],
        ["decide", "-i", k5, "--kind", "strong"],
        ["deficiency", "-i", k5, "-d", "8", "--json"],
        ["deficiency", "-i", k5],
        ["table", "-i", k4, "-d", "1,2"],
        ["table", "-i", k4, "--json"],
        ["verify", "-i", str(FIXTURES / "k3.edges"), "-t", str(trace), "--kind", "stable", "-d", "1"],
        ["verify", "-i", str(FIXTURES / "k3.edges"), "-t", str(trace)],
        ["find", "-i", k4, "--kind", "stable", "-d", "1", "--direction", "antiparallel"],
        ["decide", "-i", k4],
        ["decide", "--kind", "strong"],  # rejected: no input
    ]

    def outputs():
        seen = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            seen.append((code, captured.out, captured.err))
        return seen

    shared = outputs()
    assert outputs() == shared
    assert [code for code, _, _ in shared] == [1, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 2]


@pytest.mark.parametrize("value", ["1,x", ""])
def test_table_names_a_malformed_d_list(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["table", "-i", str(FIXTURES / "k4.edges"), "-d", value])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"trace-forge table: error: argument -d: "
        f"expected comma-separated integers, got {value!r}"
    )


def _golden_argvs() -> list[list[str]]:
    """The argv of every golden CLI run, with fixture paths put back (a
    ``verify`` trace path is only parsed here, never opened)."""
    golden = json.loads((FIXTURES / "cli_golden.json").read_text())
    paths = {path.stem: str(path) for path in FIXTURES.glob("*.edges")}
    paths["@find"] = str(FIXTURES / "k3.trace")
    return [[paths.get(arg, arg) for arg in key.split(" ")] for key in golden]


def test_dispatch_parses_golden_argvs_as_the_full_parser():
    k4 = str(FIXTURES / "k4.edges")
    # --opt=value, an abbreviation, an attached or a negative value
    unscanned = [
        ["decide", "-i", k4, "--kind=stable", "-d", "1"],
        ["decide", "-i", k4, "--dir", "antiparallel"],
        ["find", "-i", k4, "--kind", "stable", "-d1"],
        ["decide", "-i", k4, "--kind", "stable", "-d", "-1"],
    ]
    # a flag or an option given twice, an empty value
    scanned = _golden_argvs() + [
        ["table", "-i", k4, "--json", "--json"],
        ["decide", "-i", k4, "--kind", "strong", "--kind", "stable", "-d", "2"],
        ["decide", "-i", ""],
    ]
    for argv in unscanned + scanned:
        assert vars(cli._parse(argv)) == vars(cli.build_parser().parse_args(argv)), argv
        assert (cli._scan(argv[0], argv[1:]) is not None) == (argv in scanned), argv


def _outcome(capsys, call) -> tuple:
    try:
        code = call()
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["decide", "-h"],
        ["bogus", "-i", "x"],
        ["decide", "-i", "x", "--bogus"],
        ["decide", "--kind", "strong"],
        ["find", "-i", "x", "--kind", "nope"],
        ["decide", "-i", "x", "-d", "x"],
        ["table", "-i", "x", "-d", "1,x"],
        ["verify", "-i", "x"],
        ["decide", "-i"],
        ["verify", "-i", "x", "-t", "y", "--kind=nope"],
        ["decide", "-i", "--json"],
    ],
)
def test_dispatch_rejects_and_helps_as_the_full_parser(capsys, argv):
    dispatched = _outcome(capsys, lambda: main(argv))
    full = _outcome(capsys, lambda: cli.build_parser().parse_args(argv))
    assert dispatched == full
    assert dispatched[0] in (0, 2)


# sha256 of each help text at COLUMNS=80, taken on Python 3.11: argparse
# lays help out differently on other versions (3.13 writes "-i, --input INPUT")
HELP_SHA256 = {
    "": "8761e2f1a34f6865dd4d33eca29344b0f918b42c1154097dc7a997a54f93fc5b",
    "decide": "0b606a2386949eaaccf898554ce6322753f4b56afaaf0d689343d66bead2957d",
    "find": "335a372ae59e82873b536b87453777de8b1767b29d3c2ea619e3029ffd59b95a",
    "verify": "85859977ec87bc16d3895b6ab332edbd2657e1ade82ed0f4232651793aef7fc2",
    "deficiency": "450dd83c0947f1e4967b3f5f6b318f1a8815c2c29c97a8130626ac4c6380f223",
    "table": "55ba429175ade62178cb03a801fe5b53ec5f43c963bbd205e3af6419251a5878",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="help digests taken on 3.11")
@pytest.mark.parametrize("command", HELP_SHA256)
def test_help_text_is_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = _outcome(capsys, lambda: main([command, "-h"] if command else ["-h"]))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_SHA256[command]


def test_main_scans_argv_once(tmp_path, capsys, monkeypatch):
    """Plain argv never reach argparse's own scan."""
    trace = tmp_path / "k3.trace"
    trace.write_text("0 1 2 0 2 1\n")
    k4 = str(FIXTURES / "k4.edges")
    calls = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    for argv in (
        ["decide", "-i", k4, "--kind", "stable", "-d", "1", "--json"],
        ["find", "-i", k4, "--kind", "strong"],
        ["verify", "-i", str(FIXTURES / "k3.edges"), "-t", str(trace)],
        ["deficiency", "-i", k4, "-d", "4"],
        ["table", "-i", k4, "-d", "1,2", "--json"],
    ):
        calls.clear()
        main(argv)
        assert calls == [], argv
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "-i", str(FIXTURES / "k4.edges"), "-d", "1,2"],
        ["decide", "-i", str(FIXTURES / "k5.edges"), "--kind", "strong", "--json"],
        ["decide", "-i", str(FIXTURES / "k4.edges"), "--bogus"],
        ["table", "-i", str(FIXTURES / "k4.edges"), "--json"],
    ],
)
def test_module_entry_prints_what_main_prints(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # one usage width on both sides
    src = str(Path(__file__).resolve().parent.parent / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "trace_forge", *argv],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
    )
    in_process = _outcome(capsys, lambda: main(argv))
    assert (result.returncode, result.stdout, result.stderr) == in_process


@pytest.mark.parametrize("which", ["missing input", "directory input", "missing trace"])
def test_unreadable_input_exits_2(tmp_path, capsys, which):
    k3 = str(FIXTURES / "k3.edges")
    missing = str(tmp_path / "missing")
    argv = {
        "missing input": ["decide", "-i", missing],
        "directory input": ["decide", "-i", str(tmp_path)],
        "missing trace": ["verify", "-i", k3, "-t", missing],
    }[which]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_2_without_traceback(unbuffered):
    # buffered, the first write to the pipe is the flush in main; unbuffered,
    # it is the print in the command
    src = str(Path(__file__).resolve().parent.parent / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath, "PYTHONUNBUFFERED": unbuffered}
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader has gone before the first write
    try:
        result = subprocess.run(
            [sys.executable, "-m", "trace_forge",
             "table", "-i", str(FIXTURES / "k4.edges"), "-d", "1,2", "--json"],
            env=env,
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (2, "")


ANTIPARALLEL_1_STABLE = ["--kind", "stable", "-d", "1", "--direction", "antiparallel"]


@pytest.mark.parametrize(
    "argv, budget, expected",
    [
        (["table", "-i", "{fix}/k5.edges"], None, 0),
        (["deficiency", "-i", "{fix}/k4.edges", "-d", "4"], None, 0),
        (["decide", "-i", "{fix}/k5.edges", *ANTIPARALLEL_1_STABLE], None, 0),
        (["decide", "-i", "{fix}/k4.edges", *ANTIPARALLEL_1_STABLE], None, 1),
        (["decide", "-i", "{fix}/k4.edges", *ANTIPARALLEL_1_STABLE, "--oracle"], None, 1),
        (["find", "-i", "{fix}/k5.edges", *ANTIPARALLEL_1_STABLE], None, 0),
        (["find", "-i", "{tmp}/k6.edges", *ANTIPARALLEL_1_STABLE], "1000", 2),
        (["verify", "-i", "{fix}/k3.edges", "-t", "{tmp}/k3.trace"], None, 0),
        (["verify", "-i", "{fix}/k3.edges", "-t", "{tmp}/short.trace"], None, 2),
        (["decide", "-i", "{tmp}/missing.edges"], None, 2),
    ],
    ids=[
        "table", "deficiency", "decide-yes", "decide-no", "decide-oracle", "find",
        "find-budget", "verify", "verify-wrong-length", "missing-input",
    ],
)
def test_commands_leave_no_cyclic_garbage(tmp_path, capsys, monkeypatch, argv, budget, expected):
    # what main frees, it frees by reference counting: this is why it may run
    # with the collector paused and lose no memory
    (tmp_path / "k6.edges").write_text("".join(f"{u} {v}\n" for u, v in complete_graph(6).edges))
    (tmp_path / "k3.trace").write_text("0 1 2 0 2 1\n")
    (tmp_path / "short.trace").write_text("0 1 2\n")
    if budget is None:
        monkeypatch.delenv("TRACE_FORGE_BUDGET", raising=False)
    else:
        monkeypatch.setenv("TRACE_FORGE_BUDGET", budget)
    argv = [a.format(fix=FIXTURES, tmp=tmp_path) for a in argv]
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        code = main(argv)
        assert (code, gc.collect(), gc.garbage) == (expected, 0, [])
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    capsys.readouterr()


def test_commands_run_with_the_collector_paused(tmp_path, capsys, monkeypatch):
    torus = tmp_path / "torus20.edges"
    torus.write_text("".join(
        f"{20 * i + j} {20 * i + (j + 1) % 20}\n{20 * i + j} {20 * ((i + 1) % 20) + j}\n"
        for i in range(20)
        for j in range(20)
    ))
    assert main(["find", "-i", str(torus), "--kind", "double", "--direction", "parallel"]) == 0
    trace = tmp_path / "torus20.trace"
    trace.write_text(capsys.readouterr().out.splitlines()[0] + "\n")
    # a 1,600-step verify allocates far past the first generation's threshold,
    # yet no collection runs inside main
    collections = []

    def record(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    assert gc.isenabled()
    gc.collect()
    gc.callbacks.append(record)
    try:
        code = main(["verify", "-i", str(torus), "-t", str(trace), "--json"])
    finally:
        gc.callbacks.remove(record)
    assert (code, collections, gc.isenabled()) == (0, [], True)
    assert json.loads(capsys.readouterr().out)["classification"]["direction"] == "parallel"
    # main hands the caller back its collector as it found it, on each exit
    monkeypatch.setenv("TRACE_FORGE_BUDGET", "1")
    exits = [
        (["verify", "-i", str(torus), "-t", str(trace)], 0),
        (["decide", "-i", str(FIXTURES / "k4.edges"), *ANTIPARALLEL_1_STABLE], 1),
        (["decide", "-i", str(FIXTURES / "bad.edges")], 2),  # a ParseError
        (["find", "-i", str(FIXTURES / "k5.edges"), "--kind", "strong"], 2),  # the budget
    ]
    for enabled in (True, False):
        for argv, expected in exits:
            if not enabled:
                gc.disable()
            try:
                assert (main(argv), gc.isenabled()) == (expected, enabled), argv
            finally:
                gc.enable()
    capsys.readouterr()
    # and when stdout's reader has gone
    src = str(Path(__file__).resolve().parent.parent / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = (
        "import gc, sys\n"
        "from trace_forge.cli import main\n"
        "if sys.argv[1] == 'off':\n"
        "    gc.disable()\n"
        "print(main(sys.argv[2:]), gc.isenabled(), file=sys.stderr)\n"
    )
    for state, after in (("on", "True"), ("off", "False")):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-c", script, state, "table", "-i", str(FIXTURES / "k4.edges")],
                env={**os.environ, "PYTHONPATH": pythonpath},
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
            )
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (0, f"2 {after}\n")
