"""``cli._json_dump`` writes exactly what ``json.dumps(doc, sort_keys=True,
indent=2)`` writes: on every golden CLI document, on ``verify --json``
documents of long traces, and on generated documents."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_cli_golden
from conftest import LONG_TRACE_NAMES, long_traces
from trace_forge import cli


def _reference(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


def _recorded_documents(monkeypatch) -> list:
    """Documents passed to the writer while the caller runs the CLI."""
    docs = []
    write = cli._json_dump

    def record(doc):
        docs.append(doc)
        return write(doc)

    monkeypatch.setattr(cli, "_json_dump", record)
    return docs


def test_writer_matches_json_on_golden_documents(tmp_path, monkeypatch):
    monkeypatch.delenv("TRACE_FORGE_BUDGET", raising=False)
    write = cli._json_dump
    docs = _recorded_documents(monkeypatch)
    golden = test_cli_golden.digests(tmp_path)
    assert len(docs) == len(golden)  # every golden run writes one document
    assert {doc["command"] for doc in docs} == {"decide", "find", "verify", "table", "deficiency"}
    for doc in docs:
        assert write(doc) == _reference(doc)


def test_writer_matches_json_on_long_verify_documents(tmp_path, monkeypatch, capsys):
    write = cli._json_dump
    docs = _recorded_documents(monkeypatch)
    cells = (
        ["--kind", "double"],
        ["--kind", "stable", "-d", "1"],
        ["--kind", "strong", "--direction", "antiparallel"],
        ["--direction", "parallel"],
    )
    for i, name in enumerate(LONG_TRACE_NAMES):
        w = long_traces()[name]
        graph, trace = tmp_path / f"{name}.edges", tmp_path / f"{name}.trace"
        graph.write_text("".join(f"{u} {v}\n" for u, v in w.host.edges))
        trace.write_text(" ".join(map(str, w.sequence)) + "\n")
        cli.main(["verify", "-i", str(graph), "-t", str(trace), *cells[i % 4], "--json"])
    capsys.readouterr()
    assert len(docs) == len(LONG_TRACE_NAMES)
    for doc in docs:
        assert len(doc["minimal_repetitions"]) in (64, 144)
        assert write(doc) == _reference(doc)


#: strings heavy in what JSON escapes: quotes, backslashes, control
#: characters, non-ASCII letters, astral characters and lone surrogates;
#: and in the brackets, colon and comma that the writer's replaces match
#: next to a separator
_TEXT = st.text(
    st.sampled_from(
        '"\\/\b\f\n\r\t\x00\x1f\x7f aZ9\xe9\xdf\u0416\u20ac \u6f22\U0001f600\ud800\udfff[]{}:,'
    ),
    max_size=12,
)
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**30), max_value=10**30)
    | _TEXT
    | st.lists(st.integers(min_value=-(10**6), max_value=10**6), max_size=6)
)
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=5),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(doc=st.dictionaries(_TEXT, _VALUES, max_size=6))
def test_writer_matches_json_on_generated_documents(doc):
    assert cli._json_dump(doc) == _reference(doc)


@pytest.mark.parametrize(
    "value",
    [[[]], [[1], []], [[1, True]], [(1, 2), [3]], [[1], 2], [], ((0, 1), (2,))],
    ids=[
        "empty-row",
        "one-empty-row",
        "bool-in-row",
        "tuple-and-list-rows",
        "int-after-row",
        "no-rows",
        "tuple-of-int-rows",
    ],
)
def test_writer_on_int_rows(value):
    # a list of non-empty flat rows, and a map whose values are all
    # non-empty lists of such rows, is written in one piece; anything else
    # there takes the general path, and a float still raises
    rows_map = {"0": [[1, 2]], "12": value, "3": ((0,), [4, 5])}
    doc = {
        "rows": value,
        "nested": {"x": [value], "map": rows_map, "next": [[6], [7, 8]]},
        "map": rows_map,
        "mrows": [[6], [7, 8]],  # rows right after a map, at the map's depth
        "keyed": {'q"\\\u00e9\n': value, "1": [[1]], "a": [[2, 3]]},
    }
    assert cli._json_dump(doc) == _reference(doc)
    with pytest.raises(TypeError):
        cli._json_dump({"map": {**rows_map, "4": [[1.5]]}})


def test_writer_rejects_a_float_row():
    with pytest.raises(TypeError):
        cli._json_dump({"x": [[1.5]]})


@pytest.mark.parametrize(
    "doc",
    [{"ratio": 0.5}, {"values": [1, 2.0]}, {"nested": {"x": [[1], [1.5]]}}],
    ids=["float", "float-in-int-list", "nested-float"],
)
def test_writer_rejects_floats(doc):
    with pytest.raises(TypeError):
        cli._json_dump(doc)


@pytest.mark.parametrize(
    "doc", [{1: "a"}, {"a": 1, 2: "b"}, {"a": {(0, 1): 2}}], ids=["int", "mixed", "tuple"]
)
def test_writer_rejects_non_str_keys(doc):
    with pytest.raises(TypeError):
        cli._json_dump(doc)


#: flat records: non-empty str-keyed dicts of str, int, bool and None, with
#: strings that hold the text between two records, a line break, quotes,
#: backslashes and non-ASCII letters
_RECORDS = [
    {"kind": "stable", "d": 1, "verdict": "yes", "strong": True, "label": None},
    {"kind": "}, {", "d": -(10**20), "line": "a\nb", "ok": False},
    {"x": '}\n  },\n  {"', "é漢": "\U0001f600\\", "": 0},
    {"only": None},
]


def _placed(value) -> dict:
    """``value`` at depths 0 to 3 of documents, beside other values."""
    return {
        "depth-0": value,
        "depth-1": {"cells": value, "command": "table", "after": [[1, 2]]},
        "depth-2": {"a": {"cells": value, "n": 3}, "b": [1], "z": value},
        "depth-3": {"a": [{"cells": value}, value, 5], "b": {"c": {"d": value}}},
    }


def _record_calls(monkeypatch) -> list:
    """Containers that the writer writes in one encoder call."""
    written = []
    one_call = cli._one_call

    def record(value, depth):
        text = one_call(value, depth)
        if text is not None:
            written.append(value)
        return text

    monkeypatch.setattr(cli, "_one_call", record)
    return written


def _in_one_call(written: list, value) -> bool:
    return any(v is value for v in written)


@pytest.mark.parametrize(
    "value",
    [_RECORDS, _RECORDS[:1], [_RECORDS[1], _RECORDS[1]], tuple(_RECORDS)],
    ids=["four-records", "one-record", "repeated-record", "tuple-of-records"],
)
def test_writer_on_flat_records(monkeypatch, value):
    # a list of flat records is written by one encoder call at any depth
    written = _record_calls(monkeypatch)
    for name, doc in _placed(value).items():
        written.clear()
        assert cli._json_dump(doc) == _reference(doc), name
        assert _in_one_call(written, value), name


@pytest.mark.parametrize(
    "value",
    [
        [["a", True, None], [None], ["]", "], [", 1, False], ("}, {", "")],
        {'q"\\\u00e9\n': [[1]], "a]],": [[2, 3], [4]], '\u6f22": [[': [[5]], "": [[6]]},
        {"0": [["a]", 'b"'], ['"']], "1": [["]]"], ["x", "]"]], "2": [['"', "]]", 7]]},
    ],
    ids=["rows-of-str-bool-none", "row-map-escaped-keys", "row-map-bracket-and-quote-ends"],
)
def test_writer_writes_rows_and_row_maps_in_one_call(monkeypatch, value):
    # rows of any flat items, and a row map whose keys need escaping or
    # whose strings end where a separator starts, take one encoder call
    written = _record_calls(monkeypatch)
    for name, doc in _placed(value).items():
        written.clear()
        assert cli._json_dump(doc) == _reference(doc), name
        assert _in_one_call(written, value), name


@pytest.mark.parametrize(
    "value",
    [
        [{}],
        [{"a": 1}, {}],
        [{"a": {"b": 1}}],
        [{"a": [1, 2]}],
        [{"a": 1}, [1]],
        [{"a": 1}, "b"],
        [{"a": (1,)}],
    ],
    ids=[
        "empty-record",
        "record-then-empty",
        "record-holding-a-dict",
        "record-holding-a-list",
        "record-then-list",
        "record-then-str",
        "record-holding-a-tuple",
    ],
)
def test_writer_on_lists_that_are_not_flat_records(monkeypatch, value):
    # anything else takes the general path as a list, with the same bytes
    written = _record_calls(monkeypatch)
    for name, doc in _placed(value).items():
        assert cli._json_dump(doc) == _reference(doc), name
    assert not _in_one_call(written, value)


@pytest.mark.parametrize(
    "value",
    [[{"a": 1.5}], [{"a": 1}, {"b": 0.0}], [{1: "a"}], [{"a": 1}, {(0, 1): 2}], [{True: 1}]],
    ids=["float", "float-in-second", "int-key", "tuple-key", "bool-key"],
)
def test_writer_rejects_floats_and_non_str_keys_in_records(monkeypatch, value):
    written = _record_calls(monkeypatch)
    for name, doc in _placed(value).items():
        with pytest.raises(TypeError):
            cli._json_dump(doc)
    assert not _in_one_call(written, value)


def test_writer_needs_no_c_encoder(tmp_path, monkeypatch, capsys):
    # without CPython's C accelerator (no ``_json``) every container takes
    # the general path, and each document keeps its bytes
    k5 = str(Path(__file__).parent / "fixtures" / "k5.edges")
    trace = tmp_path / "k5.trace"
    runs = [
        ["table", "-d", "1,2,3"],
        ["deficiency", "-d", "4"],
        ["decide", "--kind", "stable", "-d", "1", "--direction", "antiparallel"],
        ["decide", "--kind", "strong"],
        ["find", "--kind", "stable", "-d", "1", "--direction", "antiparallel"],
        ["verify", "-t", str(trace)],
    ]

    def documents():
        texts = []
        for argv in runs:
            cli.main([*argv, "-i", k5, "--json"])
            texts.append(capsys.readouterr().out)
            if argv[0] == "find":
                trace.write_text(" ".join(map(str, json.loads(texts[-1])["trace"])) + "\n")
        return texts

    with_c = documents()
    monkeypatch.setattr(cli, "c_make_encoder", None)
    cli._encoder.cache_clear()
    try:
        without_c = documents()
        assert cli._encoder.cache_info().currsize == 0
    finally:
        cli._encoder.cache_clear()
    assert without_c == with_c
    for text in without_c:
        assert text == _reference(json.loads(text)) + "\n"


@pytest.mark.parametrize("c_encoder", [True, False], ids=["c-encoder", "no-c-encoder"])
def test_find_metadata_line_is_json_dumps(monkeypatch, capsys, c_encoder):
    # find's text output: the trace, then its metadata as
    # json.dumps(meta, sort_keys=True), the same with or without the C encoder
    fixtures = Path(__file__).parent / "fixtures"
    runs = [
        ("k5", ["--kind", "stable", "-d", "1", "--direction", "antiparallel"]),
        ("k5", ["--kind", "strong", "--direction", "antiparallel"]),
        ("k5", ["--kind", "double", "--direction", "parallel"]),
        ("p3", ["--kind", "double"]),
        ("q3", ["--kind", "strong"]),
    ]
    if not c_encoder:
        monkeypatch.setattr(cli, "c_make_encoder", None)
    cli._encoder.cache_clear()
    try:
        for name, argv in runs:
            argv = ["find", "-i", str(fixtures / f"{name}.edges"), *argv]
            assert cli.main(argv) == 0
            lines = capsys.readouterr().out.splitlines()
            assert cli.main([*argv, "--json"]) == 0
            meta = json.loads(capsys.readouterr().out)["metadata"]
            assert len(lines) == 2 and lines[1] == json.dumps(meta, sort_keys=True)
        assert (cli._encoder.cache_info().currsize == 0) is not c_encoder
    finally:
        cli._encoder.cache_clear()
