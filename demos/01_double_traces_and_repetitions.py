#!/usr/bin/env python3
"""Double traces and the repetition calculus, end to end on small graphs.

A double trace is a closed walk using every edge exactly twice.  At each
vertex the walk pairs the neighbor it came from with the neighbor it leaves
to; the connected components of that pairing are the minimal repetition
sets.  A trace is d-stable when no vertex has a repetition of size between
1 and d, and strong when every pairing is connected.
"""

from trace_forge import (
    TraceSpec,
    classify_trace,
    complete_graph,
    cube_graph,
    direction_profile,
    find_trace,
    find_witness,
    transition_graph_at,
    validate_double_trace,
)

k3 = complete_graph(3)
print("=== the triangle, by hand ===")

# every edge twice in the same direction: go around the triangle twice
parallel = validate_double_trace(k3, [0, 1, 2, 0, 1, 2])
print("trace:", parallel.sequence)
print("per-edge directions:", direction_profile(parallel))
print("classified:", classify_trace(parallel))

# every edge once in each direction
antiparallel = validate_double_trace(k3, [0, 1, 2, 0, 2, 1])
print("\ntrace:", antiparallel.sequence)
print("classified:", classify_trace(antiparallel))

# the antiparallel triangle trace always bounces back at vertex 0: whenever
# it enters from 1 it returns to 1, so {1} is a repetition of order 1
print("pairing at vertex 0:", list(antiparallel.visits(0)),
      "-> components", transition_graph_at(antiparallel, 0))
cls = classify_trace(antiparallel)
print("minimal repetitions (transition-graph components):", {
    v: [sorted(c) for c in comps] for v, comps in cls.minimal_repetitions.items()
})
print("stability order:", cls.stability_order, "| strong:", cls.strong)

print("\n=== searching instead of guessing ===")
k4 = complete_graph(4)
for spec in [
    TraceSpec("double"),
    TraceSpec("double", "parallel"),
    TraceSpec("strong"),
    TraceSpec("stable", "antiparallel", 1),
]:
    found = find_trace(k4, spec)
    label = found.sequence if found else "none exists (search exhausted)"
    print(f"K4, {spec.kind}/{spec.direction}" + (f" d={spec.d}" if spec.d else ""), "->", label)

print("\nthe triangle's first double trace in each direction, as the search finds it:")
for direction in ("any", "parallel", "antiparallel"):
    w = find_trace(k3, TraceSpec("double", direction))
    print(f"  {direction}:", w.sequence, "->", classify_trace(w).direction)
print("  strong antiparallel:", find_trace(k3, TraceSpec("strong", "antiparallel")),
      "(betti 1 is odd)")

print("\n=== parallel traces come from doubled Euler tours ===")
k5 = complete_graph(5)
w = find_witness(k5, "double", "parallel")
print("K5 parallel double trace:", w.sequence)
w3 = find_witness(k5, "stable", "parallel", 3)
print("K5 parallel, 3-stable:", w3.sequence, "->", classify_trace(w3))

print("\n=== the cube has no antiparallel 1-stable trace ===")
q3 = cube_graph()
print("exhaustive search:", find_trace(q3, TraceSpec("stable", "antiparallel", 1)))
