"""Golden search runs: the backtracking engine keeps its node counts and its
first result, node for node.

The cases are every connected atlas graph with an edge and at most 6
vertices, under each of the nine trace specs of ``test_search.ALL_SPECS``.
Each case runs ``_Engine(g, spec, BUDGET).run()`` up to its first result and
records the node count at that point together with the result: the first
trace the engine yields, ``null`` when the search space is exhausted
without one, or ``"budget"`` when the budget runs out first.  Entries are
keyed by the sorted edge list and the spec.  A change to the engine's
bookkeeping that keeps the node order keeps every entry.

After an intended change to the search order, rewrite the file with

    PYTHONPATH=src python tests/test_search_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

from trace_forge.errors import BudgetExhaustedError
from trace_forge.search import _Engine
from trace_forge.walks import TraceSpec

from conftest import atlas_graphs
from test_search import ALL_SPECS

GOLDEN = Path(__file__).parent / "fixtures" / "search_golden.json"
BUDGET = 20_000


def _spec_key(spec: TraceSpec) -> str:
    parts = [spec.kind, spec.direction]
    if spec.d is not None:
        parts.append(str(spec.d))
    return "/".join(parts)


def outcomes() -> dict[str, list]:
    """case key -> [nodes, first trace | None | "budget"] for every case."""
    table: dict[str, list] = {}
    for g in atlas_graphs(6):
        edges = " ".join(f"{u}-{v}" for u, v in g.edges)
        for spec in ALL_SPECS:
            engine = _Engine(g, spec, BUDGET)
            try:
                first = next(engine.run(), None)
            except BudgetExhaustedError:
                first = "budget"
            if isinstance(first, tuple):
                first = list(first)
            table[f"{edges} | {_spec_key(spec)}"] = [engine.nodes, first]
    return table


def test_engine_matches_golden_node_counts():
    golden = json.loads(GOLDEN.read_text())
    now = outcomes()
    changed = sorted(k for k in golden.keys() | now.keys() if golden.get(k) != now.get(k))
    assert not changed, f"{len(changed)} cases changed, first:\n" + "\n".join(changed[:20])


if __name__ == "__main__":
    entries = outcomes()
    lines = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(entries.items())]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    exhausted = sum(v[1] == "budget" for v in entries.values())
    print(f"wrote {len(entries)} cases ({exhausted} budget-exhausted) to {GOLDEN}")
