"""The paper's guarantees against the exact oracle, on random small instances.

``exact_optimum`` is first checked against ``conftest.brute_force_optimum``;
the bounds of augmented greedy (``OPT <= w(H) <= |E[W*]|·W* <= m·OPT``) and
of the LP relaxation (``LP <= OPT``) are then checked against it.  The
instances come from ``test_int_core.instances``: rational lengths, weights and
bounds, directed and undirected, at most 9 edges, kept when the full graph
meets every bound.  One more strategy redraws the weights from {0, 1, 2}, so
the exact search meets ties and completions that cost nothing.

Two relations reach past the exact search's size and need no reference
solution: Greedy's girth at n=30 (Althöfer, Das, Dobkin, Joseph and Soares,
"On sparse spanners of weighted graphs", 1993), and every solver's edge set
under a scaling of all lengths and bounds.
"""

import math
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import brute_force_optimum
from spannerkit.extension import build_extension
from spannerkit.generators import DEMAND_FAMILIES, DEMAND_PAIRS, random_instance
from spannerkit.greedy import augmented_greedy, greedy
from spannerkit.instance import Demand, Edge, SpannerInstance, Subgraph
from spannerkit.mcf import build_mcf, solve_lp
from spannerkit.oracles import exact_optimum
from test_int_core import instances, oracle_distances, oracle_feasible

PROFILE = settings(max_examples=40, derandomize=True, deadline=None, database=None)

# The LP objective is a float sum of at most m terms; the benchmark allows
# the same relative slack when it compares it with an exact weight.
LP_TOLERANCE = 1e-6


def feasible_instance(instance) -> SpannerInstance:
    assume(oracle_feasible(Subgraph(instance, frozenset(range(instance.m)))))
    return instance


@st.composite
def tied_instances(draw):
    """Feasible ``instances()`` with weights from {0, 1, 2}: ties and zero-cost completions are common.

    Each bound is raised to its pair's distance in the full graph and an
    unreachable pair is dropped, so no draw is filtered out.
    """
    instance = draw(instances())
    edges = tuple(Edge(e.u, e.v, Fraction(draw(st.integers(0, 2))), e.length) for e in instance.edges)
    dist = oracle_distances(instance)
    demands = tuple(
        Demand(d.u, d.v, max(d.delta, dist[d.u][d.v]))
        for d in instance.demands
        if dist[d.u][d.v] is not None
    )
    return SpannerInstance(instance.directed, instance.n, edges, demands)


def with_integer_lengths(instance) -> SpannerInstance:
    edges = tuple(Edge(e.u, e.v, e.weight, Fraction(math.ceil(e.length))) for e in instance.edges)
    return SpannerInstance(instance.directed, instance.n, edges, instance.demands)


@PROFILE
@given(instances())
def test_exact_optimum_matches_brute_force(instance):
    instance = feasible_instance(instance)
    result = exact_optimum(instance)
    assert (result.weight, result.edge_tuple()) == brute_force_optimum(instance)


@PROFILE
@given(tied_instances())
def test_exact_optimum_matches_brute_force_on_tied_and_zero_weights(instance):
    result = exact_optimum(instance)
    assert (result.weight, result.edge_tuple()) == brute_force_optimum(instance)


@PROFILE
@given(instances())
def test_augmented_greedy_within_m_times_opt(instance):
    instance = feasible_instance(instance)
    opt = exact_optimum(instance).weight
    spanner, report = augmented_greedy(instance)
    bound = report.restricted_edge_count * report.w_star
    assert opt <= spanner.weight <= bound <= instance.m * opt


@PROFILE
@given(instances().map(with_integer_lengths))
def test_lp_at_most_opt_on_integer_lengths(instance):
    instance = feasible_instance(instance)
    opt = float(exact_optimum(instance).weight)
    lp = solve_lp(build_mcf(build_extension(instance))).objective
    assert lp <= opt + LP_TOLERANCE * max(1.0, opt)


def girth(n: int, pairs: list[tuple[int, int]]) -> float:
    """The edge count of the shortest cycle of a simple undirected graph, ``math.inf`` when it has none.

    The shortest cycle through an edge is one more than its ends' hop
    distance once the edge is taken out: one breadth-first search per edge.
    """
    adjacent = [[] for _ in range(n)]
    for i, (u, v) in enumerate(pairs):
        adjacent[u].append((v, i))
        adjacent[v].append((u, i))
    shortest = math.inf
    for i, (u, v) in enumerate(pairs):
        hops = {u: 0}
        queue = deque([u])
        while queue and v not in hops:
            x = queue.popleft()
            for y, j in adjacent[x]:
                if j != i and y not in hops:
                    hops[y] = hops[x] + 1
                    queue.append(y)
        if v in hops:
            shortest = min(shortest, hops[v] + 1)
    return shortest


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("pairs", ["edges", "all"])
@pytest.mark.parametrize("family", ["coupled", "geometric", "unit-length"])
def test_greedy_output_has_girth_above_2k(family, pairs, k):
    # With alpha = 2k - 1 multiplicative bounds, a cycle of at most 2k edges in
    # greedy's output would let its last edge's pair hold without it, so the
    # output has girth over 2k and |H| < n^(1+1/k) + n: (|H| - n)^k < n^(k+1)
    # in integers.  Plain greedy orders and routes by length alone, so
    # unit-length's independent weights do not matter.
    n = 30
    for seed in range(5):
        instance = random_instance(family, n, 4 * n, seed, demand_pairs=pairs, alpha=2 * k - 1)
        spanner = greedy(instance)
        assert girth(n, spanner.edge_pairs()) > 2 * k, seed
        assert (spanner.size - n) ** k < n ** (k + 1), seed


def with_scaled_lengths(instance: SpannerInstance, q: Fraction) -> SpannerInstance:
    """Every length and every bound times ``q``; weights and record order unchanged."""
    return SpannerInstance(
        instance.directed,
        instance.n,
        tuple(Edge(e.u, e.v, e.weight, e.length * q) for e in instance.edges),
        tuple(Demand(d.u, d.v, d.delta * q) for d in instance.demands),
        instance.labels,
    )


def solver_edge_sets(instance: SpannerInstance) -> tuple:
    return (
        greedy(instance).edge_set,
        augmented_greedy(instance)[0].edge_set,
        exact_optimum(instance).edge_set,
    )


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("family", ["decoupled", "coupled", "unit-length", "anti-correlated"])
def test_scaling_lengths_and_bounds_keeps_every_solvers_edge_set(family, directed):
    # Feasibility compares distances with bounds, and every search orders by
    # distance, so a common factor, integer or fractional, changes no answer;
    # the scaled integers change with the factor's denominator (from a scale
    # of 1 on the integer-length draws).  Directed
    # instances have 14 edges plus 7 reversed tree edges, inside the exact
    # search's cap of 22.
    for seed in range(6):
        instance = random_instance(
            family, 8, 14, seed, demand_family=DEMAND_FAMILIES[seed % 3],
            demand_pairs=DEMAND_PAIRS[seed % 3], integer_lengths=seed % 2 == 1, directed=directed,
        )
        expected = solver_edge_sets(instance)
        for q in (Fraction(3), Fraction(2, 3), Fraction(7, 5)):
            assert solver_edge_sets(with_scaled_lengths(instance, q)) == expected, (seed, q)
