"""Golden parallel decisions: every parallel cell keeps its verdict, its
violated condition and its witness trace.

The cases are every connected Eulerian atlas graph with at most 7 vertices,
in the parallel cells double, stable d = 1, 2, 3 and strong.  Each case runs
``decide_existence(g, kind, "parallel", d)`` and
``find_witness(g, kind, "parallel", d, budget=BUDGET)`` and records
``[verdict, violated condition, witness sequence]``, or ``"budget"`` when
the witness search runs out of budget.  Entries are keyed by the sorted edge
list and the cell.  A change to how parallel witnesses are built that keeps
the witnesses keeps every entry.

After an intended change to the witnesses, rewrite the file with

    PYTHONPATH=src python tests/test_parallel_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

from trace_forge.decide import decide_existence, find_witness
from trace_forge.errors import BudgetExhaustedError

from conftest import atlas_graphs

GOLDEN = Path(__file__).parent / "fixtures" / "parallel_golden.json"
BUDGET = 20_000
CELLS = (("double", None), ("stable", 1), ("stable", 2), ("stable", 3), ("strong", None))


def eulerian_atlas_graphs():
    return [g for g in atlas_graphs(7) if all(g.degree(v) % 2 == 0 for v in g.vertices)]


def outcomes() -> dict[str, object]:
    """case key -> [verdict, condition, witness] or "budget" for every case."""
    table: dict[str, object] = {}
    for g in eulerian_atlas_graphs():
        edges = " ".join(f"{u}-{v}" for u, v in g.edges)
        for kind, d in CELLS:
            cell = f"{kind}/parallel" + (f"/{d}" if d is not None else "")
            cert = decide_existence(g, kind, "parallel", d)
            try:
                witness = find_witness(g, kind, "parallel", d, budget=BUDGET)
            except BudgetExhaustedError:
                table[f"{edges} | {cell}"] = "budget"
                continue
            table[f"{edges} | {cell}"] = [
                cert.verdict,
                cert.violated_condition,
                list(witness.sequence) if witness is not None else None,
            ]
    return table


def test_parallel_decisions_match_golden():
    golden = json.loads(GOLDEN.read_text())
    now = outcomes()
    changed = sorted(k for k in golden.keys() | now.keys() if golden.get(k) != now.get(k))
    assert not changed, f"{len(changed)} cases changed, first:\n" + "\n".join(changed[:20])


if __name__ == "__main__":
    entries = outcomes()
    lines = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(entries.items())]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    exhausted = sum(v == "budget" for v in entries.values())
    print(f"wrote {len(entries)} cases ({exhausted} budget-exhausted) to {GOLDEN}")
