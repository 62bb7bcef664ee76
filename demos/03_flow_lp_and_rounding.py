"""The layered extension, the multicommodity-flow LP, and randomized rounding.

Integer edge lengths become layer jumps in a (delta_bar+1)-layer acyclic
graph; a demand (u,v,delta) is the requirement that u's copy in layer 0
reaches v's copy in layer delta.  One flow commodity per demand plus one
[0,1] variable per edge gives an LP whose optimum lower-bounds the true
spanner weight; sampling each edge with probability min(1, gamma * x_e)
yields a feasible spanner with high probability.
"""

import os
import tempfile

from spannerkit import (
    build_extension,
    build_mcf,
    example5,
    export_lp,
    gamma,
    round_solution,
    solve_lp,
    solve_randomized,
)

inst = example5()
ext = build_extension(inst)
print(f"extension: {ext.layer_count} layers, {ext.node_count} nodes, {len(ext.arcs)} arcs")
for arc in ext.arcs[:5]:
    kind = "self" if arc.edge is None else f"edge {arc.edge}"
    print(f"  {ext.node_name(arc.tail)} -> {ext.node_name(arc.head)}   ({kind})")
print("  ...")

# The extension stores its arcs as runs, one per edge direction and one per
# node's waiting arcs, each s_i -> t_{i+L} over every start layer i.  Each pair
# gets flow columns only for the arcs on its own source-to-sink paths, not one
# per extension arc.  They are read off two bounded searches in the base
# graph: in every run, s_i -> t_{i+L} is kept when d(u,s) <= i and
# i + L + d(t,v) <= delta.
model = build_mcf(ext)
print(
    f"LP: {model.num_vars} variables "
    f"({model.num_flow_vars} flow + {model.num_edge_vars} edge), "
    f"{model.a_ub.shape[0]} coupling rows, {model.a_eq.shape[0]} conservation rows, "
    f"{model.a_ub.nnz + model.a_eq.nnz} nonzeros"
)
for d, arcs in zip(model.demands, model.flow_arcs):
    print(f"  pair ({inst.label(d.u)},{inst.label(d.v)}) delta {d.delta}: "
          f"{len(arcs)} of {len(ext.arcs)} arcs on a source-to-sink path")

solution = solve_lp(model)
print("LP optimum:", solution.objective)
for e in range(inst.m):
    edge = inst.edges[e]
    print(f"  x[{inst.label(edge.u)}->{inst.label(edge.v)}] = {solution.x[e]:.3f}")

spec = gamma(inst)
print(f"\ngamma ({spec.mode}) = ln(n * C * |K|) = {spec.value:.4f}")

for seed in (0, 1, 2):
    run = round_solution(solution, spec, seed)
    print(f"rounding seed {seed}: edges {list(run.chosen_edges)}, "
          f"weight {run.weight}, feasible {run.feasible}")

# The full pipeline solves once and retries rounding until exact verification
# succeeds (here the fractional solution is already integral, so attempt 0 wins).
sub, report = solve_randomized(inst, seed=7)
print("\nsolve_randomized:", report.describe().replace("\n", "\n  "))

# Models export to LP text format for external solvers.
with tempfile.TemporaryDirectory() as tmp:
    export_lp(model, os.path.join(tmp, "demo_example5.lp"))
print("\nwrote demo_example5.lp")
