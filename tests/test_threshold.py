"""The weight-threshold search: W* from the cached full-graph searches, a top-weight guard and a record pass.

Every result is compared with the plain binary search over the distinct
weights that the guard and the record pass replace, kept here as the
reference, or with the exact optimum.
"""

import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spannerkit.bench import ExperimentConfig, run_algorithm
from spannerkit.generators import DEMAND_FAMILIES, DEMAND_PAIRS, WEIGHT_FAMILIES, random_instance
from spannerkit.graph import minimum_spanning_tree, verify_feasible
from spannerkit.greedy import augmented_greedy, weight_threshold_search
from spannerkit.instance import Demand, Edge, SpannerInstance, Subgraph, validate
from spannerkit.oracles import exact_optimum


def edges_upto(inst, w) -> frozenset[int]:
    return frozenset(i for i, e in enumerate(inst.edges) if e.weight <= w)


def feasible_at(inst, w) -> bool:
    return verify_feasible(Subgraph(inst, edges_upto(inst, w))).feasible


def reference_threshold(inst, *, mst_lift=False):
    """``(w_star, w_star_search, restricted_edges)`` by binary search over the distinct weights."""
    weights = sorted({e.weight for e in inst.edges})
    lo, hi = 0, len(weights) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible_at(inst, weights[mid]):
            hi = mid
        else:
            lo = mid + 1
    w_search = w_star = weights[lo]
    if mst_lift:
        w_star = max(w_star, minimum_spanning_tree(inst)[0])
    return w_star, w_search, edges_upto(inst, w_star)


def searched(inst, *, mst_lift=False):
    result = weight_threshold_search(inst, mst_lift=mst_lift)
    return result.w_star, result.w_star_search, result.restricted_edges


def with_weights(inst, weights) -> SpannerInstance:
    edges = tuple(Edge(e.u, e.v, Fraction(w), e.length) for e, w in zip(inst.edges, weights))
    return SpannerInstance(inst.directed, inst.n, edges, inst.demands)


def flipped(inst, flip) -> SpannerInstance:
    """The undirected instance with each edge ``i`` for which ``flip(i)`` holds stored the other way round."""
    edges = tuple(Edge(e.v, e.u, e.weight, e.length) if flip(i) else e for i, e in enumerate(inst.edges))
    return SpannerInstance(inst.directed, inst.n, edges, inst.demands)


# ---------------------------------------------------------------------------
# The same W* as the binary search


@st.composite
def threshold_instances(draw):
    """Generated instances with at least one demand.

    Weights are as generated, tied in {0, 1, 2}, or one value; undirected
    edges may be stored against the generator's orientation (``u > v``).
    """
    family = draw(st.sampled_from(WEIGHT_FAMILIES), label="family")
    n = draw(st.integers(3, 11), label="n")
    inst = random_instance(
        family, n, draw(st.integers(n - 1, 3 * n), label="m"), draw(st.integers(0, 10**6), label="seed"),
        demand_family=draw(st.sampled_from(DEMAND_FAMILIES), label="demands"),
        demand_pairs=draw(st.sampled_from(DEMAND_PAIRS), label="pairs"),
        integer_lengths=draw(st.booleans(), label="integer lengths"),
        directed=draw(st.booleans(), label="directed"),
    )
    weights = draw(st.sampled_from(("generated", "tied", "single")), label="weights")
    if weights == "tied":
        inst = with_weights(inst, [draw(st.integers(0, 2)) for _ in inst.edges])
    elif weights == "single":
        inst = with_weights(inst, [draw(st.integers(0, 3))] * inst.m)
    if not inst.directed:
        flips = draw(st.lists(st.booleans(), min_size=inst.m, max_size=inst.m), label="flips")
        inst = flipped(inst, flips.__getitem__)
    assume(inst.by_source)
    return inst


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(threshold_instances())
def test_threshold_search_matches_the_binary_search(inst):
    assert validate(inst).ok
    assert searched(inst) == reference_threshold(inst)
    if not inst.directed:  # generated graphs are connected, so every one has a spanning tree
        assert searched(inst, mst_lift=True) == reference_threshold(inst, mst_lift=True)


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(n=st.integers(8, 16), seed=st.integers(0, 10**6), alpha=st.sampled_from((Fraction(3, 2), 2, 3)))
def test_threshold_search_matches_the_binary_search_on_geometric_all_pairs(n, seed, alpha):
    inst = random_instance("geometric", n, 0, seed, demand_pairs="all", alpha=alpha)
    for lift in (False, True):
        assert searched(inst, mst_lift=lift) == reference_threshold(inst, mst_lift=lift)


def test_record_pass_runs_from_below_the_top_on_a_geometric_instance():
    # the instance the CI's installed entry point solves: W* is 62 distinct weights below the top
    inst = random_instance("geometric", 14, 0, 0, demand_pairs="all", alpha=3)
    weights = sorted({e.weight for e in inst.edges})
    result = weight_threshold_search(inst)
    assert len(weights) - 1 - weights.index(result.w_star) == 62
    assert result.probes > 1 and result.searches > 0
    for lift in (False, True):
        assert searched(inst, mst_lift=lift) == reference_threshold(inst, mst_lift=lift)


# ---------------------------------------------------------------------------
# The guard at the second-largest weight, by hand


def test_guard_searches_a_source_whose_top_weight_edge_ties_and_finds_it_holds():
    # 0-1-3 and 0-2-3 are both shortest; only the second uses the weight-5 edge
    edges = (
        Edge(0, 1, Fraction(1), Fraction(1)),
        Edge(0, 2, Fraction(1), Fraction(1)),
        Edge(1, 3, Fraction(1), Fraction(1)),
        Edge(2, 3, Fraction(5), Fraction(1)),
    )
    inst = SpannerInstance(False, 4, edges, (Demand(0, 3, Fraction(2)),))
    result = weight_threshold_search(inst)
    assert (result.w_star, result.restricted_edges) == (Fraction(1), frozenset({0, 1, 2}))
    assert (result.probes, result.searches) == (1, 1)  # flagged, searched once on G[1]
    assert searched(inst) == reference_threshold(inst)


@pytest.mark.parametrize("top_edge", ((1, 2), (2, 1)))
def test_guard_fails_on_the_only_shortest_path_in_either_orientation(top_edge):
    # 0-1-2 is the only path within the bound; 0-2 alone is too long
    edges = (Edge(0, 1, Fraction(1), Fraction(1)), Edge(*top_edge, Fraction(5), Fraction(1)),
             Edge(0, 2, Fraction(1), Fraction(3)))
    inst = SpannerInstance(False, 3, edges, (Demand(0, 2, Fraction(2)),))
    result = weight_threshold_search(inst)
    assert (result.w_star, result.restricted_edges) == (Fraction(5), frozenset({0, 1, 2}))
    assert (result.probes, result.searches) == (1, 1)
    assert searched(inst) == reference_threshold(inst)


def test_guard_passes_without_a_search_when_no_top_weight_edge_is_tight():
    edges = (
        Edge(0, 1, Fraction(1), Fraction(1)),
        Edge(1, 2, Fraction(2), Fraction(1)),
        Edge(0, 2, Fraction(5), Fraction(3)),
    )
    inst = SpannerInstance(False, 3, edges, (Demand(0, 2, Fraction(2)),))
    result = weight_threshold_search(inst)
    assert result.w_star == Fraction(2)
    assert searched(inst) == reference_threshold(inst)
    # the record pass alone searched, on views below the second-largest weight
    assert result.probes == 1 and result.searches == 1


def test_guard_counts_a_tight_top_weight_edge_at_the_farthest_targets_distance():
    # unvalidated: the zero-length edge puts node 1, past the top-weight edge, as far as the target
    edges = (
        Edge(0, 1, Fraction(5), Fraction(1)),
        Edge(1, 2, Fraction(1), Fraction(0)),
        Edge(0, 2, Fraction(1), Fraction(5)),
    )
    inst = SpannerInstance(False, 3, edges, (Demand(0, 2, Fraction(1)),))
    assert weight_threshold_search(inst).w_star == Fraction(5)
    assert searched(inst) == reference_threshold(inst)


# ---------------------------------------------------------------------------
# An instance with no demand


@pytest.mark.parametrize("weights", ((9,), (0, 4), (0, 0, 3)))
def test_demandless_threshold_is_zero_and_keeps_the_zero_weight_edges(weights):
    edges = tuple(Edge(i, i + 1, Fraction(w), Fraction(1)) for i, w in enumerate(weights))
    inst = SpannerInstance(False, len(weights) + 1, edges, ())
    result = weight_threshold_search(inst)
    assert result.w_star == result.w_star_search == 0
    assert result.restricted_edges == frozenset(i for i, w in enumerate(weights) if w == 0)
    assert (result.probes, result.searches) == (0, 0)
    assert result.w_star <= exact_optimum(inst).weight == 0
    spanner, report = augmented_greedy(inst)
    assert spanner.weight == report.w_star == report.intermediate_bound == 0


def test_demandless_threshold_still_lifts_to_the_spanning_tree():
    edges = (Edge(0, 1, Fraction(9), Fraction(1)), Edge(1, 2, Fraction(0), Fraction(1)))
    inst = SpannerInstance(False, 3, edges, (Demand(2, 2, Fraction(0)),))  # a self-pair demands nothing
    result = weight_threshold_search(inst, mst_lift=True)
    assert (result.w_star_search, result.w_star, result.mst_lifted) == (0, Fraction(9), True)
    assert result.restricted_edges == frozenset({0, 1})


# ---------------------------------------------------------------------------
# Counters


def test_threshold_counts_repeat_across_reruns_and_a_pickled_copy():
    inst = random_instance("geometric", 14, 0, 0, demand_pairs="all", alpha=3)
    first = weight_threshold_search(inst)
    again = weight_threshold_search(inst)
    copy = weight_threshold_search(pickle.loads(pickle.dumps(inst)))
    assert first == again == copy
    _, report = augmented_greedy(inst)
    assert (report.probes, report.searches) == (first.probes, first.searches)


def test_benchmark_sized_instance_builds_one_view():
    # the instance of test_augmented_greedy_searches_nothing_on_a_validated_instances_full_view:
    # W* is the top weight, and the guard's one view of G[w2] decides it
    inst = random_instance("decoupled", 60, 180, 424200001, demand_family="freeform", demand_pairs="edges")
    assert validate(inst).ok
    result = weight_threshold_search(inst)
    assert result.w_star == max(e.weight for e in inst.edges)
    assert result.probes == 1 and 1 <= result.searches <= len(inst.by_source)


def test_counters_stay_out_of_the_bench_info():
    inst = random_instance("decoupled", 8, 14, 1, demand_family="freeform")
    config = ExperimentConfig(algorithms=["augmented-greedy"])
    _, info = run_algorithm(inst, "augmented-greedy", config=config, seed=0)
    assert set(info) == {"w_star", "high_weight_edges"}


# ---------------------------------------------------------------------------
# Metamorphic relations past the exact oracle's cap


LARGE = [
    random_instance("decoupled", 60, 180, 7, demand_family="freeform", demand_pairs="edges"),
    random_instance("geometric", 40, 0, 7, demand_pairs="all", alpha=Fraction(3, 2)),
]


@pytest.mark.parametrize("inst", LARGE, ids=("decoupled-60", "geometric-40"))
def test_threshold_is_certified_on_large_instances(inst):
    result = weight_threshold_search(inst)
    weights = sorted({e.weight for e in inst.edges})
    assert feasible_at(inst, result.w_star)
    below = [w for w in weights if w < result.w_star]
    assert not below or not feasible_at(inst, below[-1])


@pytest.mark.parametrize("inst", LARGE, ids=("decoupled-60", "geometric-40"))
@pytest.mark.parametrize("c", (Fraction(5, 3), Fraction(7)))
def test_scaling_every_weight_scales_the_threshold(inst, c):
    result = weight_threshold_search(inst)
    scaled = weight_threshold_search(with_weights(inst, [e.weight * c for e in inst.edges]))
    assert scaled.w_star == c * result.w_star
    assert scaled.restricted_edges == result.restricted_edges


@pytest.mark.parametrize("inst", LARGE, ids=("decoupled-60", "geometric-40"))
def test_scaling_lengths_and_bounds_keeps_the_threshold(inst):
    q = Fraction(3, 2)
    edges = tuple(Edge(e.u, e.v, e.weight, e.length * q) for e in inst.edges)
    demands = tuple(Demand(d.u, d.v, d.delta * q) for d in inst.demands)
    result = weight_threshold_search(inst)
    stretched = weight_threshold_search(SpannerInstance(inst.directed, inst.n, edges, demands))
    assert (stretched.w_star, stretched.restricted_edges) == (result.w_star, result.restricted_edges)


@pytest.mark.parametrize("inst", LARGE, ids=("decoupled-60", "geometric-40"))
@pytest.mark.parametrize("seed", (1, 2))
def test_relabelling_the_nodes_keeps_the_threshold(inst, seed):
    label = list(range(inst.n))
    random.Random(seed).shuffle(label)
    edges = tuple(Edge(label[e.u], label[e.v], e.weight, e.length) for e in inst.edges)
    demands = tuple(Demand(label[d.u], label[d.v], d.delta) for d in inst.demands)
    relabelled = SpannerInstance(inst.directed, inst.n, edges, demands)
    result = weight_threshold_search(inst)
    # in canonical form the edges are sorted and oriented by the new labels
    for other in (relabelled, relabelled.canonical()):
        again = weight_threshold_search(other)
        assert (again.w_star, len(again.restricted_edges)) == (result.w_star, len(result.restricted_edges))


@pytest.mark.parametrize("inst", LARGE, ids=("decoupled-60", "geometric-40"))
def test_storing_undirected_edges_the_other_way_keeps_the_threshold(inst):
    result = weight_threshold_search(inst)
    for flip in (lambda i: True, lambda i: i % 2 == 1):
        again = weight_threshold_search(flipped(inst, flip))
        assert (again.w_star, again.restricted_edges) == (result.w_star, result.restricted_edges)
