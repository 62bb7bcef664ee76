"""Why plain greedy fails on decoupled weights, and how the weight threshold
fixes it.

Greedy adds shortest paths cheapest-*distance*-first, so on the running
example it grabs the short-but-expensive direct edge before ever looking at
the cheap detour.  The augmented variant first finds the smallest
edge-weight threshold W* whose weight-restricted subgraph is already
feasible (a guard at the second-largest weight, then a record-breaking pass
over the sources); W* lower-bounds the optimum, and greedy run inside that
restricted graph can no longer touch overpriced edges.
"""

from spannerkit import (
    augmented_greedy,
    example5,
    exact_optimum,
    greedy,
    random_instance,
    verify_feasible,
    weight_threshold_search,
)

inst = example5()

plain = greedy(inst)
print("greedy:           weight", plain.weight, " edges", plain.edge_pairs())

threshold = weight_threshold_search(inst)
print("threshold search: W* =", threshold.w_star, " E[W*] =", sorted(threshold.restricted_edges))

sub, report = augmented_greedy(inst)
print("augmented greedy: weight", sub.weight, " edges", sub.edge_pairs())
print("  high-weight edges excluded:", report.high_weight_edge_count)
print("  guaranteed bound |E[W*]|*W* =", report.intermediate_bound)

opt = exact_optimum(inst)
print("exact optimum:    weight", opt.weight)

# Anti-correlated instances (fast edges are expensive) are greedy's worst
# case and the threshold's best case.
print("\nanti-correlated comparison (weight = 10/length):")
print(f"{'seed':>4} {'greedy':>10} {'augmented':>10} {'optimum':>10}")
for seed in range(5):
    anti = random_instance(
        "anti-correlated", 7, 12, seed,
        demand_family="freeform", demand_pairs="random", num_demands=3,
    )
    g = greedy(anti)
    a, _ = augmented_greedy(anti)
    o = exact_optimum(anti)
    assert verify_feasible(a).feasible
    print(f"{seed:>4} {float(g.weight):>10.3f} {float(a.weight):>10.3f} {float(o.weight):>10.3f}")
