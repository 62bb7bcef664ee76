"""The paper's guarantees against the exact oracle, on random small instances.

``exact_optimum`` is first checked against ``conftest.brute_force_optimum``;
the bounds of augmented greedy (``OPT <= w(H) <= |E[W*]|·W* <= m·OPT``) and
of the LP relaxation (``LP <= OPT``) are then checked against it.  The
instances come from ``test_int_core.instances``: rational lengths, weights and
bounds, directed and undirected, at most 9 edges, kept when the full graph
meets every bound.  One more strategy redraws the weights from {0, 1, 2}, so
the exact search meets ties and completions that cost nothing.
"""

import math
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import brute_force_optimum
from spannerkit.extension import build_extension
from spannerkit.greedy import augmented_greedy
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
