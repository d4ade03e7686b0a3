#!/usr/bin/env python3
"""The full characterization: decide, construct, verify, and extract.

A connected graph admits an antiparallel d-stable trace exactly when its
minimum degree exceeds d and some spanning tree leaves every odd co-tree
component with a vertex of degree at least 2d + 2.  Both directions run
constructively here: ``find_witness`` decides the cell and starts from the
decision's tree, splits high-degree vertices until the co-tree is all even,
finds an antiparallel strong trace there, and lifts it back; the extractor
projects a trace along its repetition sets and pulls an all-even tree back
up.
"""

from trace_forge import (
    build_graph,
    classify_trace,
    complete_graph,
    condition_table,
    cotree_decomposition,
    decide_existence,
    extract_qualified_tree_from_trace,
    find_witness,
    sufficient_four_edge_connected,
)

print("=== deciding single cells ===")
k4, k5 = complete_graph(4), complete_graph(5)
for g, name, d in [(k4, "K4", 1), (k5, "K5", 1), (k5, "K5", 4)]:
    cert = decide_existence(g, "stable", "antiparallel", d)
    print(f"{name}, antiparallel {d}-stable -> {cert.condition_label()}")

print("\n=== the whole matrix for K5 ===")
for (kind, direction, d), cert in condition_table(k5, [1, 3]).items():
    cell = kind if d is None else f"{kind}(d={d})"
    print(f"  {cell:>12} | {direction:>12} | {cert.condition_label()}")

print("\n=== constructing a witness through the reduction pipeline ===")
# odd betti number: the builder must split a high-degree vertex first
g = build_graph([(i, j) for i in range(5) for j in range(i + 1, 5)] + [(0, 5), (1, 5)])
cert = decide_existence(g, "stable", "antiparallel", 1)
print("decision's tree:", sorted(cert.witness_tree.tree_edges))
trace = find_witness(g, "stable", "antiparallel", 1)
print("trace:", trace.sequence)
print("classified:", classify_trace(trace))

print("\n=== and back: extracting a qualified tree from the trace ===")
tree = extract_qualified_tree_from_trace(trace, 1)
print("tree:", sorted(tree.tree_edges))
for comp in cotree_decomposition(tree):
    tag = "odd" if comp.is_odd else "even"
    print(f"  co-tree component {sorted(comp.edges)} is {tag}; "
          f"highest degree inside: {max(map(tree.host.degree, comp.vertices))}")

print("\n=== the cheap sufficient test ===")
for d in (1, 2, 3, 4):
    verdict = "sufficient" if sufficient_four_edge_connected(k5, d) else "inconclusive"
    print(f"K5, d={d}: {verdict}")

print("\nSame library from the shell:")
print("  trace-forge decide -i graph.edges --kind stable -d 1 --direction antiparallel --json")
print("  trace-forge find   -i graph.edges --kind strong")
print("  trace-forge verify -i graph.edges -t trace.txt --kind stable -d 1")
print("  trace-forge table  -i graph.edges -d 1,2,3")
