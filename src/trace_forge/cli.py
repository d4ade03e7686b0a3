"""Command-line front end.

Exit codes: 0 = yes/found/satisfied, 1 = no/not found/not satisfied,
2 = any error (parse failure, unreadable input, disconnected input,
exhausted budget, oracle disagreement, stdout closed by its reader).
``--json`` switches to a machine-readable certificate document with a
versioned schema key.

Every ``--json`` document is written by :func:`_json_dump`, a small writer
for the values documents hold: str-keyed dicts, lists, tuples, str, int,
bool and None.  Its text is byte for byte ``json.dumps(doc,
sort_keys=True, indent=2)``, which would run the standard library's
pure-Python encoder, since ``indent`` forces it.  The writer has one
layout mechanism besides its general frame stack: a flat container, a
list of flat rows or records, and a map of row lists (a ``verify``
document's) are each written by one call of the C encoder and
``str.replace`` calls anchored on its separators.
"""

from __future__ import annotations

import functools
import os
import sys
from itertools import chain
from types import SimpleNamespace

try:  # the C accelerator json.encoder re-exports, without the json package
    from _json import encode_basestring_ascii, make_encoder as c_make_encoder
except ImportError:  # pragma: no cover - an interpreter without _json
    c_make_encoder = None

    def encode_basestring_ascii(s: str) -> str:
        from json.encoder import encode_basestring_ascii as encode
        return encode(s)

from .decide import (
    NO_QUALIFIED_TREE,
    DecisionCertificate,
    _witness,
    condition_table,
    decide_existence,
    find_witness,
)
from .errors import TraceForgeError
from .formats import EDGELIST, GRAPH6, format_trace_text, load_graph, load_trace_sequence
from .graph import betti_number
from .search import find_trace
from .spanning import _first_tree
from .walks import (
    DIRECTIONS,
    KINDS,
    DoubleTrace,
    TraceSpec,
    classify_trace,
    spec_satisfied,
    validate_double_trace,
)

SCHEMA = "trace-forge/1"
EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2


_INDENT = "  "
_SEQUENCES = frozenset((list, tuple))
_STRS = frozenset((str,))
_FLAT = frozenset((str, int, bool, type(None)))


@functools.cache
def _encoder(depth: int, key_sep: str = ": "):
    """A writer of a value's text by one C encoder (no ``indent``, so it runs
    in C) whose item separator is the comma, line break and indent before an
    item at ``depth``.  The encoder is built once per depth and key
    separator; ``JSONEncoder.encode`` would build a new one on every call.
    Its arguments are ``JSONEncoder``'s: no circular check, no ``default``,
    ASCII output, sorted keys, no skipped keys, NaN allowed."""
    encode = c_make_encoder(
        None, None, encode_basestring_ascii, None, key_sep, ",\n" + _INDENT * depth,
        True, False, True,
    )
    return lambda value: "".join(encode(value, 0))


def _one_call(value, depth: int) -> str | None:
    """The text of a non-empty list, tuple or dict standing at ``depth``,
    from one C encoder call, or None when it has none of three shapes:
    (a) flat, items of type str, int, bool or None, under str keys in a
    dict; (b) a list of non-empty flat containers, all lists and tuples
    (rows) or all dicts (records); (c) a str-keyed map of non-empty lists
    of non-empty flat lists (a ``verify`` document's repetitions).

    The encoder writes the separators of the deepest items; the outer
    brackets are sliced off, and the text between two containers of a
    level is replaced where it meets a separator.  A replaced text occurs
    only where it is meant: each separator, the key separator ``":\\n"`` of
    (c) included, holds a raw line break, which no ASCII-escaped string
    holds, and no item of a flat container starts with a bracket.
    """
    end = "\n" + _INDENT * depth
    inner = end + _INDENT
    deep = inner + _INDENT
    if type(value) is dict:
        if {*map(type, value)} != _STRS:
            return None
        lists = value.values()
        types = {*map(type, lists)}
        if types <= _FLAT:
            return "{" + inner + _encoder(depth + 1)(value)[1:-1] + end + "}"
        if not (types <= _SEQUENCES and all(lists)):
            return None
        rows = [*chain.from_iterable(lists)]
        if not ({*map(type, rows)} <= _SEQUENCES and all(rows)):
            return None
        if not {*map(type, chain.from_iterable(rows))} <= _FLAT:
            return None
        deepest = deep + _INDENT
        text = (
            _encoder(depth + 3, ":\n")(value)[1:-3]
            .replace("]," + deepest + "[", deep + "]," + deep + "[" + deepest)
            .replace("]]," + deepest, deep + "]" + inner + "]," + inner)
            .replace(":\n[[", ": [" + deep + "[" + deepest)
        )
        return "{" + inner + text + deep + "]" + inner + "]" + end + "}"
    types = {*map(type, value)}
    if types <= _FLAT:
        return "[" + inner + _encoder(depth + 1)(value)[1:-1] + end + "]"
    if not all(value):
        return None
    if types <= _SEQUENCES:
        opening, closing, keys = "[", "]", ()
        items = chain.from_iterable(value)
    elif types == {dict}:
        opening, closing, keys = "{", "}", chain.from_iterable(value)
        items = chain.from_iterable(map(dict.values, value))
    else:
        return None
    if not ({*map(type, keys)} <= _STRS and {*map(type, items)} <= _FLAT):
        return None
    text = _encoder(depth + 2)(value)[2:-2].replace(
        closing + "," + deep + opening, inner + closing + "," + inner + opening + deep
    )
    return "[" + inner + opening + deep + text + inner + closing + end + "]"


def _json_dump(doc: dict) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)``, written directly.

    A stack of open containers replaces recursion: each frame holds an
    iterator over its items, each item paired with the text that goes
    before it (separator, newline, indent and key).  A scalar is written
    in place, and so is a container that :func:`_one_call` writes in one
    C encoder call.  Any other non-empty container pushes a frame, as
    every one does where the interpreter has no C encoder (no ``_json``),
    and an exhausted frame writes its closing bracket.  A value of any other
    type, a float included, raises ``TypeError``, and so does a non-str
    key, in ``encode_basestring_ascii`` (or in ``sorted``, among str keys).
    """
    out: list[str] = []
    frames = [(iter((("", doc),)), 0, "")]
    while frames:
        items, depth, close = frames[-1]
        end = "\n" + _INDENT * depth
        inner = end + _INDENT
        for prefix, value in items:
            out.append(prefix)
            kind = type(value)
            if kind is list or kind is tuple or kind is dict:
                if not value:
                    out.append("{}" if kind is dict else "[]")
                    continue
                text = None if c_make_encoder is None else _one_call(value, depth)
                if text is not None:
                    out.append(text)
                    continue
                if kind is dict:
                    keys = sorted(value)
                    seps = ["," + inner + encode_basestring_ascii(key) + ": " for key in keys]
                    seps[0] = "{" + seps[0][1:]
                    frames.append((zip(seps, map(value.__getitem__, keys)), depth + 1, end + "}"))
                else:
                    seps = ["," + inner] * len(value)
                    seps[0] = "[" + inner
                    frames.append((zip(seps, value), depth + 1, end + "]"))
                break
            if kind is str:
                out.append(encode_basestring_ascii(value))
            elif kind is int:
                out.append(int.__repr__(value))
            elif value is None:
                out.append("null")
            elif kind is bool:
                out.append("true" if value else "false")
            else:
                raise TypeError(f"{kind.__name__} values are not written")
        else:
            out.append(close)
            frames.pop()
    return "".join(out)


def _certificate_doc(cert: DecisionCertificate, trace: DoubleTrace | None) -> dict:
    spec = cert.spec
    doc: dict = {
        "verdict": "yes" if cert.verdict else "no",
        "kind": spec.kind,
        "direction": spec.direction,
    }
    if spec.d is not None:
        doc["d"] = spec.d
    if trace is not None:
        doc["evidence"] = {"type": "trace", "sequence": list(trace.sequence)}
    elif cert.witness_tree is not None:
        doc["evidence"] = {
            "type": "tree",
            "edges": [list(e) for e in cert.witness_tree.sorted_edges()],
        }
    elif cert.violated_condition is not None:
        doc["evidence"] = {
            "type": "condition",
            "name": cert.violated_condition,
            "label": cert.condition_label(),
            "detail": cert.condition_detail,
        }
    return doc


def _budget() -> int | None:
    env = os.environ.get("TRACE_FORGE_BUDGET")
    if env is None:
        return None
    try:
        budget = int(env)
    except ValueError:
        budget = 0
    if budget < 1:
        raise ValueError(f"TRACE_FORGE_BUDGET must be a positive integer, got {env!r}")
    return budget


def _oracle_agrees(g, certs, budget: int | None) -> bool:
    """Search each cell under ``budget``; report the first that contradicts its verdict."""
    for cert in certs:
        spec = cert.spec
        found = find_trace(g, spec, budget)
        if (found is not None) != cert.verdict:
            print(
                f"oracle disagreement at cell ({spec.kind}, {spec.direction}, d={spec.d}): "
                f"predicate={cert.verdict} found={found is not None}",
                file=sys.stderr,
            )
            return False
    return True


def _emit(args, doc: dict, text_lines: list[str]) -> None:
    if args.json:
        doc["schema"] = SCHEMA
        print(_json_dump(doc))
    else:
        for line in text_lines:
            print(line)


def cmd_decide(args) -> int:
    g = load_graph(args.input, args.format)
    budget = _budget()
    cert = decide_existence(g, args.kind, args.direction, args.d)
    # a yes without a tree takes its trace from the decided cell
    trace = _witness(g, cert, budget) if cert.witness_tree is None else None
    if args.oracle:
        # a witness that classifies into the cell confirms a yes unsearched
        witnessed = trace is not None and spec_satisfied(cert.spec, classify_trace(trace))
        if not witnessed and not _oracle_agrees(g, [cert], budget):
            return EXIT_ERROR
    doc = _certificate_doc(cert, trace)
    doc["command"] = "decide"
    if args.json:
        lines = []
    elif cert.verdict:
        lines = ["verdict: yes"]
        if trace is not None:
            lines.append("witness trace: " + format_trace_text(trace))
        elif cert.witness_tree is not None:
            lines.append(
                "witness tree: "
                + " ".join(f"{u}-{v}" for u, v in cert.witness_tree.sorted_edges())
            )
    else:
        lines = [f"verdict: no ({cert.condition_label()})"]
    _emit(args, doc, lines)
    return EXIT_YES if cert.verdict else EXIT_NO


def cmd_find(args) -> int:
    g = load_graph(args.input, args.format)
    trace = find_witness(g, args.kind, args.direction, args.d, budget=_budget())
    if trace is None:
        _emit(
            args,
            {"command": "find", "verdict": "no"},
            ["not found"],
        )
        return EXIT_NO
    cls = classify_trace(trace)
    meta = {
        "length": trace.length,
        "direction": cls.direction,
        "stability_order": cls.stability_order,
        "strong": cls.strong,
    }
    doc = {
        "command": "find",
        "verdict": "yes",
        "trace": list(trace.sequence),
        "metadata": meta,
    }
    # json.dumps(meta, sort_keys=True): a flat dict's text with its line breaks
    # and indents dropped (no ASCII-escaped string holds a raw line break)
    text = _json_dump(meta) if c_make_encoder is None else _encoder(1)(meta)
    line = text.replace("{\n" + _INDENT, "{").replace(",\n" + _INDENT, ", ").replace("\n}", "}")
    _emit(args, doc, [format_trace_text(trace), line])
    return EXIT_YES


def cmd_verify(args) -> int:
    g = load_graph(args.input, args.format)
    sequence = load_trace_sequence(args.trace)
    cls = classify_trace(validate_double_trace(g, sequence))
    ok = spec_satisfied(TraceSpec(args.kind, args.direction, args.d), cls)
    doc = {
        "command": "verify",
        "verdict": "yes" if ok else "no",
        "classification": {
            "direction": cls.direction,
            "stability_order": cls.stability_order,
            "strong": cls.strong,
        },
        "minimal_repetitions": {str(v): comps for v, comps in cls.minimal_repetitions.items()},
    }
    lines = []
    if not args.json:
        lines = [
            f"direction: {cls.direction}",
            f"stability_order: {cls.stability_order}",
            f"strong: {cls.strong}",
        ]
        # vertices ascending, each component a sorted tuple, printed as a list
        for v, comps in cls.minimal_repetitions.items():
            lines.append(f"repetitions at {v}: " + " ".join(str(list(c)) for c in comps))
        lines.append(f"satisfies requested cell: {'yes' if ok else 'no'}")
    _emit(args, doc, lines)
    return EXIT_YES if ok else EXIT_NO


def cmd_deficiency(args) -> int:
    g = load_graph(args.input, args.format)
    betti = betti_number(g)  # a disconnected graph fails before the threshold
    # one walk answers the plain minimum (threshold 0) and the qualified one
    thresholds = (0,) if args.d is None else (0, args.d)
    (value, tree), *qualified = _first_tree(g, thresholds, True)
    doc = {
        "command": "deficiency",
        "betti_number": betti,
        "deficiency": value,
        "witness_tree": [list(e) for e in tree.sorted_edges()],
    }
    if args.d is not None:
        doc["qualified_threshold"] = args.d
        doc["qualified_deficiency"] = NO_QUALIFIED_TREE
        if (found := qualified[0]) is not None:
            doc["qualified_deficiency"] = found[0]
            doc["qualified_witness_tree"] = [list(e) for e in found[1].sorted_edges()]
    lines = []
    if not args.json:
        lines = [
            f"betti_number: {doc['betti_number']}",
            f"deficiency: {value}",
            f"witness_tree: {doc['witness_tree']}",
        ]
        if args.d is not None:
            lines.append(f"qualified_deficiency(D={args.d}): {doc['qualified_deficiency']}")
    _emit(args, doc, lines)
    return EXIT_YES


def cmd_table(args) -> int:
    g = load_graph(args.input, args.format)
    budget = _budget()
    d_values = args.d_list or [1]
    table = condition_table(g, d_values)
    if args.oracle and not _oracle_agrees(g, table.values(), budget):
        return EXIT_ERROR
    cells = []
    lines = []
    for (kind, direction, d), cert in table.items():
        label = cert.condition_label()
        cells.append(
            {
                "kind": kind,
                "direction": direction,
                "d": d,
                "verdict": "yes" if cert.verdict else "no",
                "condition": label,
            }
        )
        if not args.json:
            cell_name = kind if d is None else f"{kind}(d={d})"
            lines.append(f"{cell_name:>14} | {direction:>12} | {label}")
    _emit(args, doc={"command": "table", "cells": cells}, text_lines=lines)
    return EXIT_YES


def _d_list(text: str) -> list[int]:
    """``table -d``: comma-separated stability orders."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        import argparse  # its ArgumentTypeError makes this argparse's message

        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


#: The default of an option that every argv must give.
REQUIRED = object()

_INPUT = (
    (("-i", "--input"), "input", str, REQUIRED, "graph file"),
    (("--format",), "format", (EDGELIST, GRAPH6), EDGELIST, "input format (default: edgelist)"),
    (("--json",), "json", None, False, "JSON output"),
)
_CELL = (
    (("--kind",), "kind", KINDS, "double", "trace kind (default: double)"),
    (("--direction",), "direction", DIRECTIONS, "any", "direction constraint (default: any)"),
    (("-d",), "d", int, None, "stability order"),
)

#: Each subcommand's handler, help and options, in help order.  An option
#: row holds its option strings, dest, a type or a tuple of choices (None
#: for a flag, which defaults to False), its default or REQUIRED, and help.
COMMANDS = {
    "decide": (cmd_decide, "decide existence for one matrix cell", _INPUT + _CELL + (
        (("--oracle",), "oracle", None, False, "re-verify the verdict by exhaustive search"),
    )),
    "find": (cmd_find, "construct a trace for one matrix cell", _INPUT + _CELL),
    "verify": (cmd_verify, "classify a trace file", _INPUT + _CELL + (
        (("-t", "--trace"), "trace", str, REQUIRED, "trace file"),
    )),
    "deficiency": (cmd_deficiency, "betti number and deficiencies", _INPUT + (
        (("-d",), "d", int, None, "degree threshold for the qualified deficiency: the threshold "
         "D = 2d + 2 itself, not the d that the other subcommands' -d takes"),
    )),
    "table": (cmd_table, "evaluate the full matrix", _INPUT + (
        (("-d",), "d_list", _d_list, None, "comma-separated stability orders (default: 1)"),
        (("--oracle",), "oracle", None, False, "re-verify every cell by exhaustive search"),
    )),
}


def build_parser():
    """The argparse parser of :data:`COMMANDS`, for the argv that
    :func:`_scan` leaves: it writes the usage, the help and the errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="trace-forge",
        description="Decide, construct, and verify double traces of graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary, options) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for flags, dest, kind, default, text in options:
            if kind is None:
                checked = {"action": "store_true"}
            else:
                checked = {"choices": kind} if type(kind) is tuple else {"type": kind}
            # a required option's default never reaches a namespace
            p.add_argument(
                *flags, dest=dest, default=default, required=default is REQUIRED,
                help=text, **checked,
            )
    return parser


def _scan(command: str, words: list[str]) -> SimpleNamespace | None:
    """What ``build_parser().parse_args([command, *words])`` gives, or None
    where argparse itself has to parse.

    Each word must be one of the command's option strings, exactly.  A
    flag sets True; any other option takes the next word, checked against
    its choices or converted by its type.  Options left unset take their
    default.  None comes back for anything else: an unknown command, an
    unknown or abbreviated option, ``--opt=value``, ``-d1``, a value that
    starts with ``-`` or is missing, a failed type or choice check, a
    missing required option, ``-h``.
    """
    if command not in COMMANDS:
        return None
    options = COMMANDS[command][2]
    rows = {flag: row for row in options for flag in row[0]}
    values = {}
    words = iter(words)
    for word in words:
        if word not in rows:
            return None
        _, dest, kind, _, _ = rows[word]
        if kind is None:
            values[dest] = True
            continue
        value = next(words, "-")
        if value.startswith("-"):
            return None
        if type(kind) is tuple:
            if value not in kind:
                return None
        else:
            # after a failure argparse calls the type again: it reports the
            # error, or lets it propagate as it would without the scan
            try:
                value = kind(value)
            except Exception:
                return None
        values[dest] = value
    for _, dest, _, default, _ in options:
        if dest not in values:
            if default is REQUIRED:
                return None
            values[dest] = default
    return SimpleNamespace(command=command, **values)


def _parse(argv: list[str]):
    """``build_parser().parse_args(argv)``, without argparse where
    :func:`_scan` can read ``argv``."""
    args = _scan(argv[0], argv[1:]) if argv else None
    return build_parser().parse_args(argv) if args is None else args


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    # no command leaves cyclic garbage (tests/test_cli.py checks each), so the
    # collector's passes over the caller's heap buy nothing while one runs
    import gc

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        code = COMMANDS[args.command][0](args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout has gone: send what is left to devnull, so
        # that the flush at exit writes nowhere (the Python docs' recipe)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_ERROR
    except (TraceForgeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        if was_enabled:
            gc.enable()
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
