"""End-to-end CLI contract: exit codes, JSON documents, format parity."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from trace_forge import cli, decide, search, walks
from trace_forge.cli import main
from trace_forge.formats import (
    load_graph,
    load_trace_sequence,
    parse_edgelist,
    parse_graph6,
)
from trace_forge.errors import ParseError
from trace_forge.graph import complete_graph

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
    "text,line",
    [("0 1\n1 x\n", 2), ("0 1\n# comment\n1 -2\n", 3), ("0 1\n1 1\n", None)],
    ids=["non-integer", "negative", "self-loop"],
)
def test_edgelist_rejects_bad_ids(tmp_path, capsys, text, line):
    # a self-loop passes the line checks and fails in build_graph, whose
    # error knows no line number
    with pytest.raises(ParseError) as err:
        parse_edgelist(text)
    assert err.value.line == line
    path = tmp_path / "bad.edges"
    path.write_text(text)
    assert main(["decide", "-i", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_graph6_accepts_header_and_rejects_invalid_data():
    assert parse_graph6(">>graph6<<Bw\n") == load_graph(FIXTURES / "k3.g6", "graph6")
    with pytest.raises(ParseError, match="invalid graph6 data"):
        parse_graph6("B~~")


def test_trace_file_rejects_non_integer_vertex(tmp_path):
    path = tmp_path / "bad.trace"
    path.write_text("0 1 x 0 2 1\n")
    with pytest.raises(ParseError, match="non-integer vertex id"):
        load_trace_sequence(path)


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


def test_deficiency_command(capsys):
    code, out = run(
        capsys, "deficiency", "-i", str(FIXTURES / "k4.edges"), "-d", "4", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["betti_number"] == 3
    assert doc["deficiency"] == 1
    assert doc["qualified_deficiency"] == "NoQualifiedTree"


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
    monkeypatch.setattr(cli, "find_witness", lambda *args, **kwargs: None)
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


def test_main_reuses_parser_without_carry_over(tmp_path, capsys, monkeypatch):
    """main() calls through the parser it keeps print what the same calls
    print with a parser built afresh for each."""
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
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert outputs() == shared
    assert [code for code, _, _ in shared] == [1, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 2]
