"""Text formats: edge lists and graph6 in, traces in and out."""

from __future__ import annotations

from itertools import chain
from pathlib import Path

from .errors import ParseError
from .graph import Graph, build_graph
from .walks import DoubleTrace

EDGELIST = "edgelist"
GRAPH6 = "graph6"


def _lax(text: str) -> bool:
    """Whether ``text`` may hold an id that ``int`` reads but that is not
    ASCII decimal digits: ``1_0``, ``+1``, ``-0``, a non-ASCII digit."""
    return not text.isascii() or "_" in text or "+" in text or "-" in text


def parse_edgelist(text: str) -> Graph:
    """One ``u v`` pair of ASCII decimal ids per line; ``#`` starts a comment.

    Each pair is checked as it is read.  A line that is not two such ids
    raises at once, with its line number; the first self-loop or repeated
    edge raises only once every line has parsed, and without a line number,
    so a malformed line after it is still the error reported.  The
    accepted edges are kept in file order and sorted once, so a sorted file
    sorts in one pass.
    """
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    conflict = None  # the message of the first self-loop or repeated edge
    strict = _lax(text)  # one scan of the text keeps the id check off most inputs
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = raw.split("#", 1)[0]
        fields = raw.split()
        if not fields:
            continue
        if len(fields) != 2:
            raise ParseError(
                f"expected 'u v', got {len(fields)} fields: {raw.strip()!r}", lineno
            )
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(f"non-integer vertex id in {raw.strip()!r}", lineno) from None
        if u < 0 or v < 0:
            raise ParseError(f"negative vertex id in {raw.strip()!r}", lineno)
        if strict and not all(f.isascii() and f.isdigit() for f in fields):
            raise ParseError(f"non-decimal vertex id in {raw.strip()!r}", lineno)
        key = (u, v) if u < v else (v, u)  # graph.edge_key, inlined
        if u == v or key in seen:
            if conflict is None:
                conflict = (
                    f"self-loop at vertex {u}" if u == v
                    else f"edge {key} given more than once"
                )
            continue
        seen.add(key)
        edges.append(key)
    if conflict is not None:
        raise ParseError(conflict)
    if not edges:
        raise ParseError("no edges in input")
    edges.sort()
    return Graph(tuple(sorted({*chain.from_iterable(edges)})), tuple(edges))


def _only_line(text: str, what: str) -> str:
    """The one non-blank line of ``text``, or "" when there is none; blank
    lines around it are skipped, and a second non-blank line raises with
    its line number."""
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if len(lines) > 1:
        raise ParseError(f"{what} has a second non-blank line", lines[1][0])
    return lines[0][1] if lines else ""


def parse_graph6(text: str) -> Graph:
    """Standard graph6, one graph per file; the optional header is accepted,
    and a second graph raises with its line number."""
    line = _only_line(text, "graph6 input").strip()
    if not line:
        raise ParseError("no graph6 data in input")
    if line.startswith(">>graph6<<"):
        line = line[len(">>graph6<<"):]
    import networkx as nx  # noqa: PLC0415 - imported on use, it is slow to load

    try:
        h = nx.from_graph6_bytes(line.encode("ascii"))
    except (nx.NetworkXError, ValueError, UnicodeEncodeError) as exc:
        raise ParseError(f"invalid graph6 data: {exc}") from exc
    return build_graph(
        [(int(u), int(v)) for u, v in h.edges()],
        isolated_vertices=[int(v) for v in h.nodes()],
    )


def _read(path: str | Path) -> str:
    """The file's text, read unbuffered and decoded whole as UTF-8.

    Text mode would also turn ``\\r\\n`` and ``\\r`` into ``\\n``; every
    reader here splits with ``splitlines``, which breaks at those too, so
    the lines are the same.
    """
    with open(path, "rb", buffering=0) as f:
        return f.read().decode("utf-8")


def load_graph(path: str | Path, fmt: str = EDGELIST) -> Graph:
    text = _read(path)
    if fmt == EDGELIST:
        return parse_edgelist(text)
    if fmt == GRAPH6:
        return parse_graph6(text)
    raise ParseError(f"unknown input format {fmt!r}")


def parse_trace_text(text: str) -> tuple[int, ...]:
    """One line of whitespace-separated vertex ids, interpreted cyclically.

    An id is ASCII decimal digits; a negative one is left to the host check.
    """
    fields = text.split()
    if not fields:
        raise ParseError("empty trace")
    try:
        ids = tuple(map(int, fields))
    except ValueError as exc:
        raise ParseError(f"non-integer vertex id in trace: {exc}") from exc
    for f, x in zip(fields, ids) if _lax(text) else ():
        if x >= 0 and not (f.isascii() and f.isdigit()):
            raise ParseError(f"non-decimal vertex id in trace: {f!r}")
    return ids


def format_trace_text(w: DoubleTrace) -> str:
    return " ".join(str(x) for x in w.sequence)


def load_trace_sequence(path: str | Path) -> tuple[int, ...]:
    """The trace on the file's one non-blank line; blank lines around it
    are skipped, and a second non-blank line raises."""
    return parse_trace_text(_only_line(_read(path), "trace file"))
