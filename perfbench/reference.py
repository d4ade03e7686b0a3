"""Brute-force reference table for the benchmark's fixed graphs.

For every connected graph in networkx's atlas (<= 7 vertices) and every
named graph with at most ``TREE_CAP`` spanning trees, walk all spanning
trees with ``networkx.SpanningTreeIterator`` (not trace_forge.spanning) and
record the minimum deficiency and, per degree threshold, the minimum over
qualified trees.  The checks compare "no" verdicts and minima with it.

Rebuild (about 3 minutes on one core):

    python3 perfbench/reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import networkx as nx

HERE = Path(__file__).resolve().parent
TABLE = HERE / "reference.json"
THRESHOLDS = (4, 6, 8)
TREE_CAP = 200_000


def tree_profile(h, trees) -> dict:
    """Minimum deficiency ``xi``; ``q<D>`` = minimum over trees whose odd
    co-tree components each hold a vertex of degree >= D, or None; ``even``
    = 0 when some tree has no odd component, else None."""
    from checks import odd_components  # noqa: PLC0415 - sibling module

    best: dict[str, int | None] = {"xi": None, **{f"q{t}": None for t in THRESHOLDS}}
    for tree in trees:
        odd = odd_components(h, tree)
        value = len(odd)
        top = min((max(h.degree(v) for v in vs) for vs in odd), default=None)
        for key in best:
            qualifies = key == "xi" or top is None or top >= int(key[1:])
            if qualifies and (best[key] is None or value < best[key]):
                best[key] = value
    best["even"] = 0 if best["xi"] == 0 else None
    return best


def fixed_graphs() -> dict[str, nx.Graph]:
    import workloads  # noqa: PLC0415 - sibling module

    graphs = {f"atlas{i}": g for i, g in workloads.atlas_graphs()}
    named = {**workloads.DECIDE_HEAVY, **workloads.CONSTRUCT_NAMED}
    named.update({k: make for k, (make, _) in workloads.CONSTRUCT_EXTRA.items()})
    for name, make in named.items():
        g = make()
        if nx.number_of_spanning_trees(g) <= TREE_CAP:
            graphs[name] = g
    return graphs


def build() -> dict:
    from checks import Host, ekey  # noqa: PLC0415 - sibling module

    table = {}
    for key, g in fixed_graphs().items():
        h = Host(g.edges())
        trees = (
            frozenset(ekey(u, v) for u, v in t.edges()) for t in nx.SpanningTreeIterator(g)
        )
        table[key] = tree_profile(h, trees)
    return table


def load() -> dict:
    return json.loads(TABLE.read_text())["graphs"]


def main() -> int:
    table = build()
    rows = ",\n".join(f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(table.items()))
    TABLE.write_text(f'{{"thresholds": {list(THRESHOLDS)}, "graphs": {{\n{rows}\n}}}}\n')
    print(f"wrote {len(table)} graphs to {TABLE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
