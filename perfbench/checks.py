"""Independent correctness checks, written from the definitions.

Nothing here imports trace_forge.  A trace is checked as a closed walk that
uses every edge exactly twice; stability is checked by testing neighbour
sets for closure under the enter/exit pairing; trees are checked as
spanning trees and their co-tree components are counted here.  Verdicts
that cannot carry a witness ("no", or a minimum) are compared with the
brute-force reference (networkx spanning trees, see reference.py), or are
settled by the parity argument when that is a proof.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import combinations

import networkx as nx


class CheckError(Exception):
    """An output of the program disagrees with the definitions."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def ekey(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


class Host:
    """A graph read from an edge-list file, with the invariants checks need."""

    def __init__(self, edges):
        self.edges = frozenset(ekey(int(u), int(v)) for u, v in edges)
        self.adj: dict[int, set[int]] = {}
        for u, v in self.edges:
            self.adj.setdefault(u, set()).add(v)
            self.adj.setdefault(v, set()).add(u)
        self.n = len(self.adj)
        self.m = len(self.edges)
        self.betti = self.m - self.n + 1
        self.min_degree = min(len(a) for a in self.adj.values())
        self.max_degree = max(len(a) for a in self.adj.values())
        self.eulerian = all(len(a) % 2 == 0 for a in self.adj.values())

    @classmethod
    def from_file(cls, path) -> "Host":
        with open(path, encoding="utf-8") as fh:
            return cls(tuple(map(int, line.split())) for line in fh if line.strip())

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    @cached_property
    def edge_connectivity(self) -> int:
        return nx.edge_connectivity(self.nx())

    def nx(self) -> nx.Graph:
        g = nx.Graph()
        g.add_edges_from(self.edges)
        return g


# -- trees and co-trees ------------------------------------------------------------


def check_spanning_tree(h: Host, tree_edges) -> frozenset:
    tree = frozenset(ekey(int(u), int(v)) for u, v in tree_edges)
    require(tree <= h.edges, "tree uses an edge that is not in the graph")
    require(len(tree) == h.n - 1, f"tree has {len(tree)} edges for {h.n} vertices")
    root = {v: v for v in h.adj}

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for u, v in tree:
        ru, rv = find(u), find(v)
        require(ru != rv, "tree edges contain a cycle")
        root[ru] = rv
    return tree


def cotree_components(h: Host, tree: frozenset) -> list[tuple[int, set[int]]]:
    """(edge count, vertex set) of each component of the co-tree G - E(T)."""
    root: dict[int, int] = {}

    def find(x):
        root.setdefault(x, x)
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    cotree = h.edges - tree
    for u, v in cotree:
        root[find(u)] = find(v)
    sizes: Counter = Counter()
    verts: dict[int, set[int]] = {}
    for u, v in cotree:
        r = find(u)
        sizes[r] += 1
        verts.setdefault(r, set()).update((u, v))
    return [(sizes[r], verts[r]) for r in sizes]


def odd_components(h: Host, tree: frozenset) -> list[set[int]]:
    return [vs for size, vs in cotree_components(h, tree) if size % 2 == 1]


def tree_qualified(h: Host, tree: frozenset, threshold: int | None) -> bool:
    """Every odd co-tree component holds a vertex of degree >= threshold
    (no odd component at all when threshold is None)."""
    for vs in odd_components(h, tree):
        if threshold is None or max(h.degree(v) for v in vs) < threshold:
            return False
    return True


# -- traces ------------------------------------------------------------------------


def check_double_trace(h: Host, seq) -> dict[tuple[int, int], list[tuple[int, int]]]:
    """A closed walk using each edge exactly twice; returns each edge's two steps."""
    seq = [int(x) for x in seq]
    require(len(seq) == 2 * h.m, f"trace length {len(seq)} != 2|E| = {2 * h.m}")
    steps: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for i, u in enumerate(seq):
        v = seq[(i + 1) % len(seq)]
        e = ekey(u, v)
        require(e in h.edges, f"step {u}->{v} is not an edge")
        steps.setdefault(e, []).append((u, v))
    require(
        all(len(s) == 2 for s in steps.values()) and len(steps) == h.m,
        "some edge is not traversed exactly twice",
    )
    return steps


def trace_direction(steps) -> str:
    kinds = {"parallel" if a == b else "antiparallel" for a, b in steps.values()}
    return kinds.pop() if len(kinds) == 1 else "mixed"


def visits(seq) -> dict[int, list[tuple[int, int]]]:
    """(entered from, exits to) for every visit of every vertex."""
    out: dict[int, list[tuple[int, int]]] = {}
    n = len(seq)
    for i, v in enumerate(seq):
        out.setdefault(v, []).append((seq[i - 1], seq[(i + 1) % n]))
    return out


def is_closed(pairs, subset) -> bool:
    """N is closed when every visit that enters from N also exits to N."""
    return all((p in subset) == (s in subset) for p, s in pairs)


def check_d_stable_by_subsets(h: Host, seq, d: int) -> None:
    """No vertex has a neighbour set N, 1 <= |N| <= d, closed under the pairing."""
    for v, pairs in visits(seq).items():
        for size in range(1, d + 1):
            for subset in combinations(sorted(h.adj[v]), size):
                require(
                    not is_closed(pairs, frozenset(subset)),
                    f"vertex {v} has the closed neighbour set {list(subset)}",
                )


def minimal_closed_sets(h: Host, seq) -> dict[int, set[frozenset]]:
    """Per vertex, the inclusion-minimal non-empty closed neighbour sets.

    Closed sets are unions of closures, so the minimal ones are the
    closures of single neighbours; a closure grows by whichever end of a
    visit is missing until no visit crosses it.
    """
    out = {}
    for v, pairs in visits(seq).items():
        partners: dict[int, list[int]] = {x: [] for x in h.adj[v]}
        for p, s in pairs:
            partners[p].append(s)
            partners[s].append(p)
        sets, seen = set(), set()
        for x in partners:
            if x in seen:
                continue
            closure, todo = {x}, [x]
            while todo:
                for y in partners[todo.pop()]:
                    if y not in closure:
                        closure.add(y)
                        todo.append(y)
            seen |= closure
            sets.add(frozenset(closure))
        out[v] = sets
    return out


def stability_order(closed: dict[int, set[frozenset]]) -> int:
    """Largest d with no closed set of size 1..d; the whole neighbourhood is
    always closed, so this is the smallest minimal closed set, minus one."""
    return min(len(s) for sets in closed.values() for s in sets) - 1


# -- verdicts that need the reference ------------------------------------------------


class Oracle:
    """Answers "is there a qualified tree" and "what is the minimum" for one
    graph: by the parity argument where it is a proof, from the reference
    table, or by a live networkx brute force on graphs small enough for it.

    Keys follow reference.tree_profile: ``xi`` is the minimum deficiency,
    ``q<D>`` the minimum over trees qualified at threshold D (None when no
    tree qualifies) and ``even`` is 0 when an all-even co-tree tree exists.
    """

    #: live brute force gives up after this many spanning trees
    LIVE_TREE_CAP = 200_000

    def __init__(self, h: Host, ref: dict | None):
        self.h = h
        self.ref = ref

    def _trees(self):
        for i, t in enumerate(nx.SpanningTreeIterator(self.h.nx())):
            require(i < self.LIVE_TREE_CAP, "graph too large for a live reference")
            yield frozenset(ekey(u, v) for u, v in t.edges())

    def _profile(self) -> dict:
        if self.ref is None:
            from reference import tree_profile  # noqa: PLC0415 - sibling module

            self.ref = tree_profile(self.h, self._trees())
        return self.ref

    def parity_forbids(self, threshold: int | None) -> bool:
        """Co-tree component sizes add up to the Betti number, so an odd Betti
        number leaves an odd component in every tree; with no vertex reaching
        the threshold no tree can then qualify."""
        no_vertex = threshold is None or self.h.max_degree < threshold
        return no_vertex and self.h.betti % 2 == 1

    def qualified_exists(self, threshold: int | None) -> bool:
        if self.parity_forbids(threshold):
            return False
        if self.ref is None:
            return any(tree_qualified(self.h, t, threshold) for t in self._trees())
        return self.ref[_qkey(threshold)] is not None

    def check_minimum(self, value: int, key: str, what: str) -> None:
        """The parity of the Betti number is a lower bound; anything above it
        must match the brute-force minimum."""
        if value == self.h.betti % 2:
            return
        best = self._profile()[key]
        require(value == best, f"{what} {value} is not the minimum {best}")


def _qkey(threshold: int | None) -> str:
    return "even" if threshold is None else f"q{threshold}"


# -- per-command checks ----------------------------------------------------------------


def check_stable_needs_degree(h: Host, verdict: bool, d: int) -> None:
    """A vertex of degree <= d has its whole neighbourhood as a closed set."""
    if h.min_degree <= d:
        require(not verdict, f"stable cell d={d} says yes with minimum degree {h.min_degree}")


def check_table(h: Host, oracle: Oracle, doc: dict) -> None:
    require(doc.get("command") == "table", "not a table document")
    for cell in doc["cells"]:
        kind, direction, d = cell["kind"], cell["direction"], cell["d"]
        yes = cell["verdict"] == "yes"
        where = f"cell ({kind}, {direction}, d={d})"
        if kind == "stable":
            check_stable_needs_degree(h, yes, d)
        if direction == "parallel":
            if kind == "stable":
                require(h.eulerian or not yes, f"{where}: yes on a non-Eulerian graph")
            else:
                require(yes == h.eulerian, f"{where}: parallel verdict != Eulerian")
        elif direction == "antiparallel" and kind != "double":
            threshold = 2 * d + 2 if kind == "stable" else None
            need_degree = kind != "stable" or h.min_degree > d
            want = need_degree and oracle.qualified_exists(threshold)
            require(yes == want, f"{where}: verdict {yes}, reference {want}")
        elif kind == "double":
            require(yes, f"{where}: every connected graph has a double trace")


def check_deficiency(h: Host, oracle: Oracle, doc: dict, threshold: int) -> None:
    require(doc.get("betti_number") == h.betti, "wrong Betti number")
    tree = check_spanning_tree(h, doc["witness_tree"])
    value = doc["deficiency"]
    require(value == len(odd_components(h, tree)), "deficiency is not its witness tree's")
    require(value % 2 == h.betti % 2, "deficiency and Betti number differ in parity")
    if h.n >= 2 and h.edge_connectivity >= 4:
        require(value == h.betti % 2, "4-edge-connected graph with xi != beta mod 2 (Kundu)")
    oracle.check_minimum(value, "xi", "deficiency")
    q = doc["qualified_deficiency"]
    if q == "NoQualifiedTree":
        require(not oracle.qualified_exists(threshold), "a qualified tree exists")
        return
    qtree = check_spanning_tree(h, doc["qualified_witness_tree"])
    require(tree_qualified(h, qtree, threshold), "qualified witness does not qualify")
    require(q == len(odd_components(h, qtree)), "qualified deficiency is not its witness's")
    oracle.check_minimum(q, _qkey(threshold), "qualified deficiency")


def check_decide_stable_antiparallel(h: Host, oracle: Oracle, doc: dict, d: int) -> None:
    threshold = 2 * d + 2
    yes = doc["verdict"] == "yes"
    check_stable_needs_degree(h, yes, d)
    if yes:
        ev = doc["evidence"]
        require(ev["type"] == "tree", "yes without a witness tree")
        tree = check_spanning_tree(h, ev["edges"])
        require(tree_qualified(h, tree, threshold), "witness tree does not qualify")
    elif h.min_degree > d:
        require(not oracle.qualified_exists(threshold), "no-verdict but a qualified tree exists")


def check_constructed(h: Host, seq, tree_edges, d: int) -> None:
    """find + extract: antiparallel d-stable trace and a qualified tree."""
    steps = check_double_trace(h, seq)
    require(trace_direction(steps) == "antiparallel", "an edge is traversed twice the same way")
    check_d_stable_by_subsets(h, seq, d)
    tree = check_spanning_tree(h, tree_edges)
    require(tree_qualified(h, tree, 2 * d + 2), "extracted tree does not qualify")


def check_not_found(h: Host, oracle: Oracle, d: int) -> None:
    if h.min_degree > d:
        require(not oracle.qualified_exists(2 * d + 2), "not found, but a qualified tree exists")


def check_verify(h: Host, seq, doc: dict, spec: dict) -> None:
    """Classification, minimal repetitions and the verdict of ``verify``."""
    steps = check_double_trace(h, seq)
    closed = minimal_closed_sets(h, seq)
    direction = trace_direction(steps)
    order = stability_order(closed)
    strong = all(len(sets) == 1 for sets in closed.values())
    cls = doc["classification"]
    require(cls["direction"] == direction, f"direction {cls['direction']} != {direction}")
    require(cls["stability_order"] == order, f"stability {cls['stability_order']} != {order}")
    require(cls["strong"] == strong, "strong flag is wrong")
    got = {int(v): {frozenset(s) for s in sets} for v, sets in doc["minimal_repetitions"].items()}
    require(got == closed, "minimal repetitions differ from the closures")
    ok = spec["direction"] in ("any", direction)
    if spec["kind"] == "stable":
        ok = ok and order >= spec["d"]
    if spec["kind"] == "strong":
        ok = ok and strong
    require((doc["verdict"] == "yes") == ok, "verify verdict disagrees with the classification")
