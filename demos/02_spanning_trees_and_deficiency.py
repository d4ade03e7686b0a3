#!/usr/bin/env python3
"""Co-tree components, deficiency, and qualified spanning trees.

Removing a spanning tree leaves the co-tree; its components are odd or even
by edge count.  The deficiency of a tree counts its odd components, the
deficiency of a graph minimizes that over all spanning trees, and a tree is
qualified at threshold D when every odd component contains a vertex of
degree at least D.  These quantities decide which graphs admit antiparallel
strong and d-stable traces.
"""

import networkx as nx

from trace_forge import (
    betti_number,
    build_graph,
    complete_graph,
    cotree_decomposition,
    cube_graph,
    min_tree,
    qualified_deficiency_of_tree,
    spanning_tree,
    split_reduce_deficiency,
)
from trace_forge.graph import fresh_vertex_ids

k4 = complete_graph(4)
k5 = complete_graph(5)

print("=== co-trees of star trees ===")
star4 = spanning_tree(k4, [(0, 1), (0, 2), (0, 3)])
for comp in cotree_decomposition(star4):
    print("K4 co-tree component:", sorted(comp.edges),
          "odd" if comp.is_odd else "even",
          "| highest-degree vertex:", max(sorted(comp.vertices), key=k4.degree))
print("deficiency of the star tree:", qualified_deficiency_of_tree(star4, 0))

star5 = spanning_tree(k5, [(0, w) for w in range(1, 5)])
print("K5 star co-tree components:",
      [(sorted(c.edges), len(c.edges) % 2) for c in cotree_decomposition(star5)])

print("\n=== graph deficiency (minimum over all spanning trees) ===")
for name, g in [("K3", complete_graph(3)), ("K4", k4), ("K5", k5), ("Q3", cube_graph())]:
    value, tree = min_tree(g)
    print(f"{name}: betti={betti_number(g)} deficiency={value} "
          f"witness={sorted(tree.tree_edges)}")

print("\n=== all-even co-trees and qualified trees ===")
print("K5 all-even co-tree tree:", min_tree(k5, None)[1])
print("K4 all-even co-tree tree:", min_tree(k4, None), "(betti 3 is odd)")
print("K4 qualified tree at D=4:", min_tree(k4, 4), "(max degree is 3)")
print("K5 qualified deficiency at D=8:", min_tree(k5, 8))

print("\n=== detaching a vertex splits its component by parity ===")
# give vertex 0 a fresh endpoint per co-tree edge at it; each component of
# what is left of 0's co-tree component is one part, kept as original edges
path_tree = spanning_tree(k4, [(0, 1), (0, 2), (2, 3)])
home = next(c for c in cotree_decomposition(path_tree) if 0 in c.vertices)
detached = nx.Graph()
for e in home.edges:
    detached.add_edge(*((0, e) if x == 0 else x for x in e), original=e)
parts = sorted(
    sorted(e for _, _, e in detached.subgraph(c).edges(data="original"))
    for c in nx.connected_components(detached)
)
print("odd parts:", [p for p in parts if len(p) % 2 == 1])
print("even parts:", [p for p in parts if len(p) % 2 == 0])

print("\n=== a split that reduces deficiency ===")
# the split answers with its tree; the new vertices are the host's next
# fresh ids, and their neighborhoods in the split graph are the halves
split = split_reduce_deficiency(path_tree, 0)
print(f"deficiency {qualified_deficiency_of_tree(path_tree, 0)} -> "
      f"{qualified_deficiency_of_tree(split, 0)}")
new_vertices = fresh_vertex_ids(k4, 2)
print("vertex 0 split into", [sorted(split.host.neighbors(x)) for x in new_vertices],
      "as new vertices", new_vertices)
print("new tree:", sorted(split.tree_edges))

print("\n=== a graph whose odd components need their hub ===")
# a degree-6 hub whose five co-tree edges form one odd star component
edges = [(0, 1)] + [(1, w) for w in range(2, 7)] + [(0, w) for w in range(2, 7)]
g = build_graph(edges)
tree = spanning_tree(g, [(0, 1)] + [(1, w) for w in range(2, 7)])
print("deficiency of the given tree:", qualified_deficiency_of_tree(tree, 0))
split = split_reduce_deficiency(tree, 0)
print(f"after splitting the hub: {qualified_deficiency_of_tree(tree, 0)} -> "
      f"{qualified_deficiency_of_tree(split, 0)}")
