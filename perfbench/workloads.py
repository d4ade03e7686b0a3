"""Seeded inputs and operation lists for the three benchmark workloads.

Everything here runs before timing starts: graphs and traces are written to
files in a work directory and the operation list refers to them by relative
path.  The program under test only ever sees those files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import networkx as nx

WORKLOADS = ("decide_sweep", "construct_roundtrip", "verify_long")

#: Search node budget handed to construct_roundtrip through TRACE_FORGE_BUDGET.
#: K4,4 at d = 1 needs 54,154 nodes, the most of any operation that succeeds.
CONSTRUCT_BUDGET = 100_000


@dataclass
class Op:
    """One timed operation: a CLI argv (``find`` is followed by tree extraction)."""

    argv: list[str]
    graph: str  # key into the manifest's graph table
    d: int | None = None  # construct_roundtrip: stability order
    trace: str | None = None  # verify_long: generated trace's key
    expect_fail: bool = False  # construct_roundtrip: known budget exhaustion

    def to_json(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if v not in (None, False)}


@dataclass
class Manifest:
    workload: str
    seed: int
    graphs: dict[str, dict] = field(default_factory=dict)  # key -> {path, ref}
    traces: dict[str, str] = field(default_factory=dict)  # key -> path
    ops: list[Op] = field(default_factory=list)
    env: dict[str, str] = field(default_factory=dict)


# -- graph families --------------------------------------------------------------


def k4_chain(k: int) -> nx.Graph:
    """k copies of K4 joined in a row by k - 1 bridges."""
    g = nx.Graph()
    for b in range(k):
        g.add_edges_from(
            (4 * b + i, 4 * b + j) for i in range(4) for j in range(i + 1, 4)
        )
        if b:
            g.add_edge(4 * b - 1, 4 * b)
    return g


def two_k4_sharing_vertex() -> nx.Graph:
    g = nx.complete_graph(4)
    g.add_edges_from(nx.complete_graph([3, 4, 5, 6]).edges())
    return g


def triangle_cactus(k: int) -> nx.Graph:
    """k triangles sharing the single vertex 0 (a friendship graph)."""
    g = nx.Graph()
    for i in range(k):
        a, b = 2 * i + 1, 2 * i + 2
        g.add_edges_from([(0, a), (a, b), (b, 0)])
    return g


def triangle_chain(k: int) -> nx.Graph:
    """k triangles glued in a path at cut vertices."""
    g = nx.Graph()
    for i in range(k):
        g.add_edges_from([(2 * i, 2 * i + 1), (2 * i + 1, 2 * i + 2), (2 * i, 2 * i + 2)])
    return g


def integer_labels(g: nx.Graph) -> nx.Graph:
    return nx.convert_node_labels_to_integers(g, ordering="sorted")


#: Larger graphs for decide_sweep, where spanning-tree enumeration runs long.
#: Labels are fixed: relabelling moves the early exits of the enumeration by
#: orders of magnitude, so these costs must not depend on the seed.
DECIDE_HEAVY = {
    "grid4x4": lambda: integer_labels(nx.grid_2d_graph(4, 4)),
    "icosahedron": nx.icosahedral_graph,
    "prism5": lambda: nx.circular_ladder_graph(5),
    "prism6": lambda: nx.circular_ladder_graph(6),
    "prism7": lambda: nx.circular_ladder_graph(7),
    "q4": lambda: integer_labels(nx.hypercube_graph(4)),
    "k4chain2": lambda: k4_chain(2),
    "k4chain3": lambda: k4_chain(3),
}

#: Q4 costs 1.3-2.6 s per command; only ``decide`` runs on it, which keeps a
#: pass near 8 s.
DECIDE_HEAVY_ONLY = {"q4": ("decide",)}

#: Named graphs for construct_roundtrip, each run at d = 1, 2, 3.
CONSTRUCT_NAMED = {
    "K5": lambda: nx.complete_graph(5),
    "octahedron": nx.octahedral_graph,
    "W6": lambda: nx.wheel_graph(6),
    "W7": lambda: nx.wheel_graph(7),
    "W8": lambda: nx.wheel_graph(8),
    "petersen": nx.petersen_graph,
    "K3,3": lambda: nx.complete_bipartite_graph(3, 3),
    "K3,4": lambda: nx.complete_bipartite_graph(3, 4),
    "K4,4": lambda: nx.complete_bipartite_graph(4, 4),
    "prism4": lambda: nx.circular_ladder_graph(4),
    "prism5": lambda: nx.circular_ladder_graph(5),
    "prism6": lambda: nx.circular_ladder_graph(6),
    "2K4": two_k4_sharing_vertex,
    "cactus3": lambda: triangle_cactus(3),
    "cactus4": lambda: triangle_cactus(4),
    "trichain3": lambda: triangle_chain(3),
    "Q3": lambda: integer_labels(nx.hypercube_graph(3)),
    "icosahedron": nx.icosahedral_graph,
}

#: (graph, d) cells added to construct_roundtrip outside the d = 1..3 grid.
#: K6 and K7 at d = 1 reach the exhaustive search for the final strong trace
#: with 15 and 21 edges and exhaust CONSTRUCT_BUDGET every time; K7 at d = 3
#: is a no-instance that enumerates every spanning tree before saying so.
CONSTRUCT_EXTRA = {
    "K6": (lambda: nx.complete_graph(6), [(1, True)]),
    "K7": (lambda: nx.complete_graph(7), [(1, True), (3, False)]),
}

#: construct_roundtrip cells left out: the icosahedron at d = 2 and 3 makes
#: qualified_deficiency walk all C(30, 11) edge subsets (hours).
CONSTRUCT_SKIP = {("icosahedron", 2), ("icosahedron", 3)}


def atlas_graphs() -> list[tuple[int, nx.Graph]]:
    """Every connected graph with at least one edge in networkx's atlas (<= 7 vertices)."""
    return [
        (i, g)
        for i, g in enumerate(nx.graph_atlas_g())
        if g.number_of_edges() > 0 and nx.is_connected(g)
    ]


RANDOM_GRAPHS = 48


def random_small_graph(rng: random.Random) -> nx.Graph:
    """Connected graph on 6..9 vertices, minimum degree >= 2, at most 12 edges.

    Twelve edges is the library's own unbudgeted search limit; above it a
    seeded graph could exhaust the budget on some seeds and not others.
    """
    while True:
        n = rng.randint(6, 9)
        g = nx.Graph()
        g.add_node(0)
        for v in range(1, n):
            g.add_edge(v, rng.randrange(v))
        target = min(12, n + rng.randint(2, 4))
        nodes = list(range(n))
        while g.number_of_edges() < target:
            low = [v for v in nodes if g.degree(v) < 2]
            u = rng.choice(low) if low else rng.choice(nodes)
            w = rng.choice(nodes)
            if u != w and not g.has_edge(u, w):
                g.add_edge(u, w)
        if min(d for _, d in g.degree()) >= 2:
            return g


def random_regular(rng: random.Random, degree: int, n: int) -> nx.Graph:
    while True:
        g = nx.random_regular_graph(degree, n, seed=rng.randrange(2**31))
        if nx.is_connected(g):
            return g


def torus(k: int) -> nx.Graph:
    return integer_labels(nx.grid_2d_graph(k, k, periodic=True))


# -- trace generators ------------------------------------------------------------


def _random_euler_circuit(adj: dict[int, list[int]], start: int, rng) -> list[int]:
    """Hierholzer on a multigraph given as adjacency lists; each list entry is
    one edge end, removed as it is used.  Returns the circuit without the
    closing repeat of ``start``."""
    for lst in adj.values():
        rng.shuffle(lst)
    stack, circuit = [start], []
    while stack:
        u = stack[-1]
        if adj[u]:
            w = adj[u].pop()
            adj[w].remove(u)
            stack.append(w)
        else:
            circuit.append(stack.pop())
    circuit.reverse()
    return circuit[:-1]


def random_double_trace(g: nx.Graph, rng: random.Random) -> list[int]:
    """Euler circuit of the doubled multigraph: mixed directions."""
    adj = {v: [w for w in g[v] for _ in (0, 1)] for v in g}
    return _random_euler_circuit(adj, rng.choice(list(g)), rng)


def doubled_euler_tour(g: nx.Graph, rng: random.Random) -> list[int]:
    """An Euler tour walked twice in the same direction: parallel."""
    adj = {v: list(g[v]) for v in g}
    tour = _random_euler_circuit(adj, rng.choice(list(g)), rng)
    return tour + tour


def retracting_dfs_tour(g: nx.Graph, rng: random.Random) -> list[int]:
    """DFS that walks each tree edge down and back and each other edge out
    and straight back: antiparallel."""
    start = rng.choice(list(g))
    order = {v: rng.sample(list(g[v]), len(g[v])) for v in g}
    seen, used = {start}, set()
    walk = [start]
    stack = [(start, iter(order[start]))]
    while stack:
        v, it = stack[-1]
        w = next(it, None)
        if w is None:
            stack.pop()
            if stack:
                walk.append(stack[-1][0])
            continue
        e = (min(v, w), max(v, w))
        if e in used:
            continue
        used.add(e)
        if w in seen:
            walk.extend([w, v])
        else:
            seen.add(w)
            walk.append(w)
            stack.append((w, iter(order[w])))
    return walk[:-1]


TRACE_MAKERS = {
    "mixed": random_double_trace,
    "parallel": doubled_euler_tour,
    "antiparallel": retracting_dfs_tour,
}


# -- manifests -----------------------------------------------------------------


def _write_graph(m: Manifest, workdir: Path, key: str, g: nx.Graph, ref: str | None) -> str:
    name = f"g{len(m.graphs)}.edges"
    (workdir / name).write_text("".join(f"{u} {v}\n" for u, v in sorted(g.edges())))
    m.graphs[key] = {"path": name, "ref": ref}
    return name


def _relabel(g: nx.Graph, rng: random.Random) -> nx.Graph:
    perm = list(g)
    rng.shuffle(perm)
    return nx.relabel_nodes(g, dict(zip(g, perm)))


DECIDE_COMMANDS = (
    ["table", "-d", "1,2", "--json"],
    ["deficiency", "-d", "4", "--json"],
    ["decide", "--kind", "stable", "-d", "1", "--direction", "antiparallel", "--json"],
)


def build_decide_sweep(m: Manifest, workdir: Path, rng: random.Random, limit: int | None) -> None:
    graphs = [(f"atlas{i}", f"atlas{i}", _relabel(g, rng)) for i, g in atlas_graphs()]
    if limit is not None:
        graphs = graphs[:: max(1, len(graphs) // limit)][:limit]
    heavy = list(DECIDE_HEAVY.items()) if limit is None else list(DECIDE_HEAVY.items())[:2]
    graphs += [(name, name, make()) for name, make in heavy]
    for key, ref, g in graphs:
        path = _write_graph(m, workdir, key, g, ref)
        for cmd in DECIDE_COMMANDS:
            if key in DECIDE_HEAVY_ONLY and cmd[0] not in DECIDE_HEAVY_ONLY[key]:
                continue
            m.ops.append(Op(argv=[cmd[0], "-i", path, *cmd[1:]], graph=key))
    rng.shuffle(m.ops)


def build_construct_roundtrip(m: Manifest, workdir: Path, rng: random.Random, limit: int | None) -> None:
    cells: list[tuple[str, str | None, nx.Graph, int, bool]] = []
    for name, make in CONSTRUCT_NAMED.items():
        for d in (1, 2, 3):
            if (name, d) not in CONSTRUCT_SKIP:
                cells.append((name, name, make(), d, False))
    for name, (make, ds) in CONSTRUCT_EXTRA.items():
        for d, fails in ds:
            cells.append((name, name, make(), d, fails))
    # d = 1 only: at d = 2, 3 the minimum degree of 2 answers at once, and a
    # seed-dependent mix of instant and real answers would move the median
    for i in range(RANDOM_GRAPHS):
        cells.append((f"random{i}", None, random_small_graph(rng), 1, False))
    if limit is not None:
        cells = cells[:: max(1, len(cells) // limit)][:limit]
    for key, ref, g, d, fails in cells:
        path = m.graphs[key]["path"] if key in m.graphs else _write_graph(m, workdir, key, g, ref)
        argv = ["find", "-i", path, "--kind", "stable", "-d", str(d),
                "--direction", "antiparallel", "--json"]
        m.ops.append(Op(argv=argv, graph=key, d=d, expect_fail=fails))
    rng.shuffle(m.ops)
    m.env["TRACE_FORGE_BUDGET"] = str(CONSTRUCT_BUDGET)


def _verify_graphs(rng: random.Random) -> list[tuple[str, nx.Graph, int]]:
    """(key, graph, traces per direction type).  Verify costs grow with the
    square of the trace length, so the longest traces get the fewest copies."""
    return [
        ("q6", integer_labels(nx.hypercube_graph(6)), 8),
        ("q7", integer_labels(nx.hypercube_graph(7)), 10),
        ("q8", integer_labels(nx.hypercube_graph(8)), 3),
        ("torus12", torus(12), 8),
        ("torus20", torus(20), 4),
        ("reg4_500", random_regular(rng, 4, 500), 3),
        ("reg6_500", random_regular(rng, 6, 500), 3),
        ("reg4_1000", random_regular(rng, 4, 1000), 1),
    ]


VERIFY_SPECS = (
    ["--kind", "double"],
    ["--kind", "stable", "-d", "1"],
    ["--kind", "strong", "--direction", "antiparallel"],
    ["--kind", "double", "--direction", "parallel"],
)


def build_verify_long(m: Manifest, workdir: Path, rng: random.Random, limit: int | None) -> None:
    graphs = _verify_graphs(rng)
    if limit is not None:
        graphs = [(key, g, 1) for key, g, _ in graphs[:2]]
    for key, g, per_type in graphs:
        path = _write_graph(m, workdir, key, g, None)
        eulerian = all(d % 2 == 0 for _, d in g.degree())
        for ttype, make in TRACE_MAKERS.items():
            if ttype == "parallel" and not eulerian:
                continue
            for _ in range(per_type):
                tkey = f"t{len(m.traces)}"
                tpath = f"{tkey}.trace"
                (workdir / tpath).write_text(" ".join(map(str, make(g, rng))) + "\n")
                m.traces[tkey] = tpath
                spec = VERIFY_SPECS[len(m.ops) % len(VERIFY_SPECS)]
                argv = ["verify", "-i", path, "-t", tpath, *spec, "--json"]
                m.ops.append(Op(argv=argv, graph=key, trace=tkey))
    rng.shuffle(m.ops)


BUILDERS = {
    "decide_sweep": build_decide_sweep,
    "construct_roundtrip": build_construct_roundtrip,
    "verify_long": build_verify_long,
}


def build_manifest(workload: str, seed: int, workdir: Path, limit: int | None = None) -> Manifest:
    """Write the workload's inputs into ``workdir`` and return its manifest.

    ``limit`` keeps a small slice of the operation list, for the self-check.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    m = Manifest(workload=workload, seed=seed)
    BUILDERS[workload](m, workdir, random.Random(f"{workload}:{seed}"), limit)
    (workdir / "manifest.json").write_text(json.dumps({
        "workload": m.workload,
        "seed": m.seed,
        "graphs": m.graphs,
        "traces": m.traces,
        "ops": [op.to_json() for op in m.ops],
        "env": m.env,
    }))
    return m
