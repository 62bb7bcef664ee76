"""The exact integer core against independent Fraction arithmetic.

Feasibility checks, greedy and the threshold search run on each instance's
scaled integers: lengths times the lcm ``L`` of their denominators, bounds
floored to ``floor(delta * L)``.  These tests check those integers against
their ``Fraction`` definitions, compare the core with
``conftest.bellman_ford`` run on the records' own fractional lengths
(``conftest.fraction_view``), and pin greedy and augmented-greedy edge sets
recorded before the core moved to integers.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bellman_ford, fraction_view
from spannerkit.errors import UnsatisfiableDemand
from spannerkit.generators import GEO_DENOM, random_instance
from spannerkit.graph import graph_view, shortest_distances, verify_feasible
from spannerkit.greedy import augmented_greedy, greedy
from spannerkit.instance import Demand, Edge, SpannerInstance, Subgraph

# Fixed, derandomized and small, so the suite stays fast and repeatable.
PROFILE = settings(max_examples=150, derandomize=True, deadline=None, database=None)

rationals = st.builds(Fraction, st.integers(1, 12), st.integers(1, 4))  # denominators up to 4


@st.composite
def instances(draw):
    """Small instances with rational lengths, weights and bounds; not necessarily valid."""
    n = draw(st.integers(2, 6))
    directed = draw(st.booleans())
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)]
    edge_pairs = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=9, unique=True))
    demand_pairs = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=6, unique=True))
    edges = tuple(Edge(u, v, draw(rationals), draw(rationals)) for u, v in edge_pairs)
    demands = tuple(Demand(u, v, draw(rationals)) for u, v in demand_pairs)
    return SpannerInstance(directed, n, edges, demands)


def oracle_distances(instance, edge_subset=None):
    """Fraction distances per demand source, by Bellman-Ford on the records' own lengths."""
    view = fraction_view(instance, edge_subset)
    return {d.u: bellman_ford(view, d.u) for d in instance.demands}


def assert_verdict_matches_oracle(sub):
    dist = oracle_distances(sub.instance, sub.edge_set)
    expected = []
    for d in sub.instance.demands:
        got = dist[d.u][d.v]
        if got is None or got > d.delta:
            expected.append((d.u, d.v, d.delta, got))
    verdict = verify_feasible(sub)
    assert verdict.feasible == (not expected)
    assert [(v.u, v.v, v.delta, v.achieved) for v in verdict.violations] == expected
    for v in verdict.violations:
        assert v.achieved is None or isinstance(v.achieved, Fraction)


def oracle_feasible(sub) -> bool:
    dist = oracle_distances(sub.instance, sub.edge_set)
    return all(
        dist[d.u][d.v] is not None and dist[d.u][d.v] <= d.delta for d in sub.instance.demands
    )


def smallest_clearing(values) -> int:
    """The smallest positive integer whose product with every value is an integer."""
    k = 1
    while any((x * k).denominator != 1 for x in values):
        k += 1
    return k


@PROFILE
@given(instances())
def test_integer_fields_match_their_fraction_definitions(instance):
    edges, demands = instance.edges, instance.demands
    scale, weight_scale = instance.scale, instance.weight_scale
    assert scale == smallest_clearing([e.length for e in edges])
    assert weight_scale == smallest_clearing([e.weight for e in edges])
    assert instance.lengths == tuple(e.length * scale for e in edges)
    assert instance.weights == tuple(e.weight * weight_scale for e in edges)
    assert instance.bounds == tuple(math.floor(d.delta * scale) for d in demands)
    assert instance.delta_bar == max(instance.bounds, default=0)
    for value in (*instance.lengths, *instance.weights, *instance.bounds, instance.delta_bar):
        assert type(value) is int


@PROFILE
@given(instances(), st.data())
def test_verify_feasible_matches_fraction_oracle(instance, data):
    subset = data.draw(st.sets(st.integers(0, instance.m - 1)))
    assert_verdict_matches_oracle(Subgraph(instance, frozenset(subset)))


@PROFILE
@given(instances())
def test_greedy_and_augmented_greedy_match_fraction_oracle(instance):
    full = Subgraph(instance, frozenset(range(instance.m)))
    if not oracle_feasible(full):
        with pytest.raises(UnsatisfiableDemand):
            greedy(instance)
        return
    assert oracle_feasible(greedy(instance))
    spanner, report = augmented_greedy(instance)
    assert oracle_feasible(spanner)
    assert spanner.weight <= report.restricted_edge_count * report.w_star
    # W* is the smallest weight whose restricted graph the oracle accepts
    lighter = frozenset(i for i, e in enumerate(instance.edges) if e.weight < report.w_star)
    assert not oracle_feasible(Subgraph(instance, lighter))


GEOMETRIC = random_instance("geometric", 6, 0, 3, demand_family="freeform", demand_pairs="all")


def test_geometric_instance_scales_by_the_grid():
    assert GEOMETRIC.scale == GEO_DENOM == 2**20
    view = graph_view(GEOMETRIC)
    unscaled = [GEOMETRIC.unscale(d) for d in shortest_distances(view, 0)]
    assert unscaled == bellman_ford(fraction_view(GEOMETRIC), 0)


@PROFILE
@given(st.sets(st.integers(0, GEOMETRIC.m - 1)))
def test_geometric_verify_matches_fraction_oracle(subset):
    assert_verdict_matches_oracle(Subgraph(GEOMETRIC, frozenset(subset)))


# Edge sets of greedy and augmented_greedy on
# random_instance(family, n, 18, seed, demand_family="freeform",
# demand_pairs="random", num_demands=10), n = 7 for geometric and 9 otherwise,
# recorded with the Fraction core.
PINNED = {
    ("decoupled", 0): ((0, 1, 6, 8, 9, 10, 12, 16), (0, 1, 6, 8, 9, 10, 12, 16)),
    ("decoupled", 1): ((1, 5, 6, 7, 8, 9, 13, 16, 17), (1, 5, 6, 7, 8, 9, 13, 16, 17)),
    ("decoupled", 2): ((1, 2, 6, 7, 8, 10, 11, 12, 13, 14, 17), (1, 2, 6, 7, 8, 10, 11, 12, 13, 14, 17)),
    ("coupled", 0): ((0, 1, 3, 5, 6, 10, 12, 14, 17), (0, 1, 3, 5, 6, 10, 12, 14, 17)),
    ("coupled", 1): ((0, 1, 2, 6, 7, 8, 9, 10, 13, 16), (2, 3, 6, 7, 8, 9, 11, 13, 14, 16)),
    ("coupled", 2): ((0, 2, 4, 9, 10, 12, 13, 14, 15), (0, 2, 4, 9, 10, 12, 13, 14, 15)),
    ("unit-length", 0): ((0, 1, 3, 6, 10, 12, 14, 17), (0, 1, 3, 6, 10, 12, 14, 17)),
    ("unit-length", 1): ((0, 1, 5, 6, 7, 8, 9, 10, 16), (0, 1, 5, 6, 7, 8, 9, 10, 16)),
    ("unit-length", 2): ((0, 1, 2, 5, 10, 11, 15, 16), (0, 1, 2, 5, 10, 11, 15, 16)),
    ("basic", 0): ((0, 2, 3, 4, 6, 7, 10, 11, 13, 16), (0, 2, 3, 4, 6, 7, 10, 11, 13, 16)),
    ("basic", 1): ((0, 1, 6, 7, 10, 13, 14, 16), (0, 1, 6, 7, 10, 13, 14, 16)),
    ("basic", 2): ((0, 1, 2, 3, 5, 7, 10, 12, 13, 15), (0, 1, 2, 3, 5, 7, 10, 12, 13, 15)),
    ("geometric", 0): ((0, 2, 6, 12, 13, 14, 15, 16, 18, 20), (2, 4, 9, 12, 13, 15, 16, 18, 19, 20)),
    ("geometric", 1): ((1, 4, 6, 9, 10, 15, 16, 17), (3, 7, 8, 9, 10, 11, 16, 17, 18)),
    ("geometric", 2): ((2, 3, 7, 10, 13, 17, 20), (2, 3, 6, 7, 11, 14, 20)),
    ("anti-correlated", 0): ((0, 1, 3, 5, 6, 10, 12, 14, 17), (0, 1, 3, 5, 6, 10, 12, 14, 17)),
    ("anti-correlated", 1): ((0, 1, 2, 6, 7, 8, 9, 10, 13, 16), (0, 1, 2, 6, 7, 8, 9, 10, 13, 16)),
    ("anti-correlated", 2): ((0, 2, 4, 9, 10, 12, 13, 14, 15), (0, 2, 4, 9, 10, 12, 13, 14, 15)),
}


@pytest.mark.parametrize("family,seed", sorted(PINNED))
def test_greedy_edge_sets_pinned(family, seed):
    n = 7 if family == "geometric" else 9
    inst = random_instance(
        family, n, 18, seed, demand_family="freeform", demand_pairs="random", num_demands=10
    )
    expected_greedy, expected_augmented = PINNED[family, seed]
    assert tuple(sorted(greedy(inst).edge_set)) == expected_greedy
    assert tuple(sorted(augmented_greedy(inst)[0].edge_set)) == expected_augmented
