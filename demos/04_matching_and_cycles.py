# The engine room: exact b-matchings through the gadget expansion, and
# negative-cycle detection through T-joins.

from fractions import Fraction

from corematch import parse_instance
from corematch.matching import build_gadget, max_weight_b_matching, max_weight_matching, nu
from corematch.negcycle import (
    CostEdge,
    CostedGraph,
    decompose_even_subgraph,
    find_negative_cycle,
    min_t_join,
    min_zero_join,
)

inst = parse_instance("""
game 5 6
vertex 0 2
vertex 1 2
vertex 2 2
vertex 3 1
vertex 4 1
edge 0 1 3
edge 1 2 3
edge 0 2 3
edge 0 3 2
edge 1 4 2
edge 3 4 1
""")

# A b-matching may use each vertex up to its capacity: the triangle 0-1-2
# takes all three edges (each triangle vertex has capacity 2).
best = max_weight_b_matching(inst)
print("max b-matching:", [f"{inst.edges[i].u}-{inst.edges[i].v}" for i in best.edges],
      "weight", best.weight)
print("nu(triangle) =", nu(inst, [0, 1, 2]))
print()

# Under the hood the instance expands into a gadget graph: capacity-many
# copies of each vertex, a 3-edge path per edge joining two capacity-2
# vertices (the set E22, here the triangle), a direct edge between copies for
# every other edge, and one plain maximum-weight matching. The identity below
# is checked on every solve.
vertices, edges, weights = build_gadget(inst)
gstar = max_weight_matching(vertices, edges, weights)
gadgeted = sum(inst.edges[i].w for i in inst.e2)
print(f"gadget: {len(vertices)} vertices, {len(edges)} edges")
print(f"maxWeight(G*) = {gstar.weight} = w(E22) + w(M) = "
      f"{gadgeted} + {best.weight}")
print()

# Negative cycles: flip the negative edges, repair parity with a minimum
# T-join, read cycles off the symmetric difference.
g = CostedGraph(
    vertices=(0, 1, 2, 3),
    edges=(
        CostEdge(0, 1, Fraction(-5), 0),
        CostEdge(1, 2, Fraction(2), 1),
        CostEdge(2, 3, Fraction(1), 2),
        CostEdge(0, 3, Fraction(1), 3),
        CostEdge(0, 2, Fraction(4), 4),
    ),
)
join, cost = min_zero_join(g)
print("cheapest even-degree edge set:", sorted(join), "cost", cost)
for cyc in decompose_even_subgraph(g, join):
    print("  cycle", "-".join(map(str, cyc.vertices)), "cost", cyc.cost)
print("most negative cycle:", find_negative_cycle(g))
print()

# The T-join machinery on its own: odd-degree repair between marked vertices,
# each edge costing the absolute value of its cost.
tj = min_t_join(g, [1, 3])
print("min {1,3}-join:", sorted(tj), "cost", sum(abs(g.edges[i].cost) for i in tj))
