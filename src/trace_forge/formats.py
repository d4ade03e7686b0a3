"""Text formats: edge lists and graph6 in, traces in and out."""

from __future__ import annotations

from pathlib import Path

from .errors import ParseError, TraceForgeError
from .graph import Graph, build_graph
from .walks import DoubleTrace

EDGELIST = "edgelist"
GRAPH6 = "graph6"


def parse_edgelist(text: str) -> Graph:
    """One ``u v`` pair per line; ``#`` starts a comment; ids are decimal."""
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ParseError(
                f"expected 'u v', got {len(fields)} fields: {line!r}", lineno
            )
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(f"non-integer vertex id in {line!r}", lineno) from None
        if u < 0 or v < 0:
            raise ParseError(f"negative vertex id in {line!r}", lineno)
        edges.append((u, v))
    if not edges:
        raise ParseError("no edges in input")
    try:
        return build_graph(edges)
    except TraceForgeError as exc:
        raise ParseError(str(exc)) from exc


def parse_graph6(text: str) -> Graph:
    """Standard graph6, one graph per file; the optional header is accepted."""
    line = next((ln.strip() for ln in text.splitlines() if ln.strip()), "")
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


def load_graph(path: str | Path, fmt: str = EDGELIST) -> Graph:
    text = Path(path).read_text(encoding="utf-8")
    if fmt == EDGELIST:
        return parse_edgelist(text)
    if fmt == GRAPH6:
        return parse_graph6(text)
    raise ParseError(f"unknown input format {fmt!r}")


def parse_trace_text(text: str) -> tuple[int, ...]:
    """One line of whitespace-separated vertex ids, interpreted cyclically."""
    fields = text.split()
    if not fields:
        raise ParseError("empty trace")
    try:
        return tuple(int(f) for f in fields)
    except ValueError as exc:
        raise ParseError(f"non-integer vertex id in trace: {exc}") from exc


def format_trace_text(w: DoubleTrace) -> str:
    return " ".join(str(x) for x in w.sequence)


def load_trace_sequence(path: str | Path) -> tuple[int, ...]:
    text = Path(path).read_text(encoding="utf-8")
    return parse_trace_text(next((ln for ln in text.splitlines() if ln.strip()), ""))
