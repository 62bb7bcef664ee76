"""The reference machinery: exact search, ascending cuts, reachable regions,
and the subdivision counterexample.

Everything here runs in exact rational arithmetic and exists to certify the
approximation algorithms on small instances.
"""

from spannerkit import (
    Subgraph,
    check_cut_lemma,
    dodis_khanna_demo,
    enumerate_ascending_cuts,
    exact_optimum,
    example5,
    nonmetric_triangle,
    restricted_subgraph,
)

# --- Exact optimum and the non-metric-edge trap -----------------------------
tri = nonmetric_triangle()
print("triangle edges (weight, length):")
for e in tri.edges:
    print(f"  {tri.label(e.u)}-{tri.label(e.v)}: w={e.weight}, len={e.length}")
opt = exact_optimum(tri)
names = [f"{tri.label(tri.edges[i].u)}-{tri.label(tri.edges[i].v)}" for i in sorted(opt.edge_set)]
print(f"optimum: weight {opt.weight} using {names}")
print("the cheap length-3 edge is non-metric yet must stay: dropping it forces weight 2\n")

# --- Ascending cuts certify feasibility ------------------------------------
inst = example5()
best = Subgraph(inst, exact_optimum(inst).edge_set)
labels, satisfied = zip(*enumerate_ascending_cuts(best, 0))
print(f"pair (a,b): {len(labels)} ascending cuts, all satisfied: {all(satisfied)}")
print("one labeling:", labels[2].labels, "-> each node's copies below its label "
      "sit on the sink side")
report = check_cut_lemma(best)
print("cut lemma verdict on the optimum:", "ok" if report.ok else "VIOLATED")
for p in report.pairs:
    print(f"  ({inst.label(p.u)},{inst.label(p.v)}): {p.satisfied_count}/{p.cut_count} cuts, "
          f"distance {p.distance} <= {p.delta}")

# --- Per-pair reachable regions ---------------------------------------------
nodes, edges = restricted_subgraph(inst, 1)
print("\nregion of pair (a,c) with budget 2:",
      sorted(inst.label(q) for q in nodes), "| edges:", sorted(edges))
print("(the a->b branch can never lie on a within-budget a..c path)")

# --- Why subdividing long edges breaks layered flow -------------------------
print("\n" + dodis_khanna_demo(edge_length=3, alpha=2).to_text())
print("\ncontrol at alpha=3:")
print(dodis_khanna_demo(edge_length=3, alpha=3).to_text())
