"""Command-line front end.

Exit codes: 0 = yes/found/satisfied, 1 = no/not found/not satisfied,
2 = any error (parse failure, disconnected input, exhausted budget,
oracle disagreement).  ``--json`` switches to a machine-readable
certificate document with a versioned schema key.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .decide import (
    DecisionCertificate,
    condition_table,
    decide_existence,
    find_witness,
    graph_deficiency_report,
)
from .errors import TraceForgeError
from .formats import EDGELIST, GRAPH6, format_trace_text, load_graph, load_trace_sequence
from .search import find_trace
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


def _json_dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


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
    trace = None
    if cert.verdict and cert.witness_tree is None:
        trace = find_witness(g, args.kind, args.direction, args.d, budget=budget)
    if args.oracle:
        # a witness that classifies into the cell confirms a yes unsearched
        witnessed = trace is not None and spec_satisfied(cert.spec, classify_trace(trace))
        if not witnessed and not _oracle_agrees(g, [cert], budget):
            return EXIT_ERROR
    doc = _certificate_doc(cert, trace)
    doc["command"] = "decide"
    if cert.verdict:
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
    _emit(args, doc, [format_trace_text(trace), json.dumps(meta, sort_keys=True)])
    return EXIT_YES


def cmd_verify(args) -> int:
    g = load_graph(args.input, args.format)
    sequence = load_trace_sequence(args.trace)
    cls = classify_trace(validate_double_trace(g, sequence))
    ok = spec_satisfied(TraceSpec(args.kind, args.direction, args.d), cls)
    repetitions = [
        (v, [sorted(c) for c in comps])
        for v, comps in sorted(cls.minimal_repetitions.items())
    ]
    doc = {
        "command": "verify",
        "verdict": "yes" if ok else "no",
        "classification": {
            "direction": cls.direction,
            "stability_order": cls.stability_order,
            "strong": cls.strong,
        },
        "minimal_repetitions": {str(v): comps for v, comps in repetitions},
    }
    lines = []
    if not args.json:
        lines = [
            f"direction: {cls.direction}",
            f"stability_order: {cls.stability_order}",
            f"strong: {cls.strong}",
        ]
        for v, comps in repetitions:
            lines.append(f"repetitions at {v}: " + " ".join(map(str, comps)))
        lines.append(f"satisfies requested cell: {'yes' if ok else 'no'}")
    _emit(args, doc, lines)
    return EXIT_YES if ok else EXIT_NO


def cmd_deficiency(args) -> int:
    g = load_graph(args.input, args.format)
    report = graph_deficiency_report(g, args.d)
    doc = {"command": "deficiency", **report}
    lines = [
        f"betti_number: {report['betti_number']}",
        f"deficiency: {report['deficiency']}",
        f"witness_tree: {report['witness_tree']}",
    ]
    if args.d is not None:
        lines.append(
            f"qualified_deficiency(D={args.d}): "
            + str(report["qualified_deficiency"])
        )
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
        label = "yes" if cert.verdict else cert.condition_label()
        cell_name = kind if d is None else f"{kind}(d={d})"
        cells.append(
            {
                "kind": kind,
                "direction": direction,
                "d": d,
                "verdict": "yes" if cert.verdict else "no",
                "condition": label,
            }
        )
        lines.append(f"{cell_name:>14} | {direction:>12} | {label}")
    _emit(args, doc={"command": "table", "cells": cells}, text_lines=lines)
    return EXIT_YES


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-i", "--input", required=True, help="graph file")
    parser.add_argument(
        "--format",
        choices=[EDGELIST, GRAPH6],
        default=EDGELIST,
        help="input format (default: edgelist)",
    )
    parser.add_argument("--json", action="store_true", help="JSON output")


def _add_cell(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--kind",
        choices=KINDS,
        default="double",
        help="trace kind (default: double)",
    )
    parser.add_argument(
        "--direction",
        choices=DIRECTIONS,
        default="any",
        help="direction constraint (default: any)",
    )
    parser.add_argument("-d", type=int, default=None, help="stability order")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trace-forge",
        description="Decide, construct, and verify double traces of graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_decide = sub.add_parser("decide", help="decide existence for one matrix cell")
    _add_common(p_decide)
    _add_cell(p_decide)
    p_decide.add_argument(
        "--oracle",
        action="store_true",
        help="re-verify the verdict by exhaustive search",
    )
    p_decide.set_defaults(func=cmd_decide)

    p_find = sub.add_parser("find", help="construct a trace for one matrix cell")
    _add_common(p_find)
    _add_cell(p_find)
    p_find.set_defaults(func=cmd_find)

    p_verify = sub.add_parser("verify", help="classify a trace file")
    _add_common(p_verify)
    _add_cell(p_verify)
    p_verify.add_argument("-t", "--trace", required=True, help="trace file")
    p_verify.set_defaults(func=cmd_verify)

    p_def = sub.add_parser("deficiency", help="betti number and deficiencies")
    _add_common(p_def)
    p_def.add_argument(
        "-d",
        type=int,
        default=None,
        help="degree threshold for the qualified deficiency: the threshold "
        "D = 2d + 2 itself, not the d that the other subcommands' -d takes",
    )
    p_def.set_defaults(func=cmd_deficiency)

    p_table = sub.add_parser("table", help="evaluate the full matrix")
    _add_common(p_table)
    p_table.add_argument(
        "-d",
        dest="d_list",
        type=lambda s: [int(x) for x in s.split(",")],
        default=None,
        help="comma-separated stability orders (default: 1)",
    )
    p_table.add_argument(
        "--oracle",
        action="store_true",
        help="re-verify every cell by exhaustive search",
    )
    p_table.set_defaults(func=cmd_table)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on the first call of the process."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (TraceForgeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
