"""Build, validate, and serialize spanner instances.

An instance couples a simple connected graph with two independent edge
functions (weight = what you pay, length = what you traverse) and a list of
terminal pairs, each with its own distance bound.
"""

import os
import tempfile
from fractions import Fraction

from spannerkit import (
    Demand,
    Edge,
    SpannerInstance,
    example5,
    load,
    save,
    validate,
)

# The running example: three nodes a, b, c; the direct a->b edge is short but
# expensive, the detour a->c->b is cheap but uses the full distance budget.
inst = example5()
print("nodes:", inst.n, " edges:", inst.m, " demands:", len(inst.demands))
for e in inst.edges:
    print(f"  edge {inst.label(e.u)}->{inst.label(e.v)}  weight={e.weight}  length={e.length}")
for d in inst.demands:
    print(f"  demand {inst.label(d.u)}->{inst.label(d.v)}  bound={d.delta}")

report = validate(inst)
print("valid:", report.ok)

# Round-trip through the JSON interchange format; canonical form is sorted,
# so equal instances produce byte-identical files.
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "demo_example5.json")
    save(inst, path)
    again = load(path)
print("load(save(x)) == x:", again == inst)

# Validation collects *all* problems instead of stopping at the first.
broken = SpannerInstance(
    directed=False,
    n=3,
    edges=(
        Edge(0, 0, Fraction(1), Fraction(1)),  # self-loop
        Edge(0, 1, Fraction(-2), Fraction(1)),  # negative weight
        Edge(1, 2, Fraction(1), Fraction(1)),
    ),
    demands=(Demand(0, 2, Fraction(1)),),  # tighter than any path can be
)
print("\nbroken instance report:")
print(validate(broken).describe())
