import hashlib
import importlib
import json
import pickle
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_optimum, reference_greedy
from spannerkit.errors import DirectedInstance, UnsatisfiableDemand
from spannerkit.generators import (
    DEMAND_FAMILIES,
    DEMAND_PAIRS,
    WEIGHT_FAMILIES,
    example5,
    nonmetric_triangle,
    random_instance,
)
from spannerkit.graph import graph_view, source_searches, verify_feasible
from spannerkit.greedy import augmented_greedy, greedy, weight_threshold_search
from spannerkit.instance import Demand, Edge, SpannerInstance, Subgraph, validate
from spannerkit.oracles import exact_optimum
from spannerkit.rounding import solve_randomized


def test_greedy_example5_processes_cheap_distances_first():
    inst = example5()
    trace = []
    sub = greedy(inst, trace=trace)
    # (a,b) first at distance 1, picks the direct weight-5 edge; total weight 7
    assert (trace[0].u, trace[0].v) == (0, 1)
    assert trace[0].path_edges == (0,)
    assert sub.weight == Fraction(7)
    assert sub.edge_set == frozenset({0, 1, 2})


def test_greedy_empty_demands():
    inst = SpannerInstance(False, 2, (Edge(0, 1, Fraction(1), Fraction(1)),), ())
    assert greedy(inst).edge_set == frozenset()


def test_greedy_tree_instance_returns_union_of_demand_paths():
    edges = (
        Edge(0, 1, Fraction(1), Fraction(2)),
        Edge(1, 2, Fraction(1), Fraction(3)),
        Edge(1, 3, Fraction(1), Fraction(1)),
    )
    inst = SpannerInstance(
        False, 4, edges, (Demand(0, 2, Fraction(5)), Demand(0, 3, Fraction(3)))
    )
    sub = greedy(inst)
    assert sub.edge_set == frozenset({0, 1, 2})


def test_greedy_unsatisfiable_demand_raises():
    inst = SpannerInstance(
        False,
        3,
        (Edge(0, 1, Fraction(1), Fraction(1)), Edge(1, 2, Fraction(1), Fraction(1))),
        (Demand(0, 2, Fraction(1)),),
    )
    with pytest.raises(UnsatisfiableDemand):
        greedy(inst)


def test_unsatisfiable_demand_reports_exact_distance_past_every_bound():
    # d(0,2) = 1/2 + 7/3 = 17/6 lies past source 0's largest bound (1)
    inst = SpannerInstance(
        False,
        3,
        (Edge(0, 1, Fraction(1), Fraction(1, 2)), Edge(1, 2, Fraction(1), Fraction(7, 3))),
        (Demand(0, 1, Fraction(1)), Demand(0, 2, Fraction(1))),
    )
    with pytest.raises(UnsatisfiableDemand) as info:
        greedy(inst)
    assert info.value.pair == (0, 2)
    assert info.value.delta == Fraction(1)
    assert info.value.achieved == Fraction(17, 6)
    assert type(info.value.achieved) is Fraction


def test_unsatisfiable_demand_within_the_source_limit():
    # d(0,1) = 1/2 misses its bound 1/3 but lies within the source's largest bound
    inst = SpannerInstance(
        False,
        3,
        (Edge(0, 1, Fraction(1), Fraction(1, 2)), Edge(1, 2, Fraction(1), Fraction(7, 3))),
        (Demand(0, 2, Fraction(3)), Demand(0, 1, Fraction(1, 3))),
    )
    with pytest.raises(UnsatisfiableDemand) as info:
        greedy(inst)
    assert (info.value.pair, info.value.achieved) == ((0, 1), Fraction(1, 2))


def test_unsatisfiable_demand_unreachable_reports_none():
    inst = SpannerInstance(
        True, 3, (Edge(0, 1, Fraction(1), Fraction(1)),), (Demand(1, 0, Fraction(5)),)
    )
    with pytest.raises(UnsatisfiableDemand) as info:
        greedy(inst)
    assert info.value.pair == (1, 0)
    assert info.value.achieved is None


def test_unsatisfiable_demand_is_the_first_failing_in_demand_order():
    # source 0 is searched first, but demand 1 (from source 2) fails before demand 2
    path = (Edge(0, 1, Fraction(1), Fraction(1, 2)), Edge(1, 2, Fraction(1), Fraction(7, 3)))
    demands = (
        Demand(0, 1, Fraction(1)),
        Demand(2, 0, Fraction(2)),
        Demand(0, 2, Fraction(2)),
        Demand(2, 1, Fraction(1)),
    )
    inst = SpannerInstance(False, 3, path, demands)
    for case in (inst, replace(inst, demands=demands[1:])):  # the instance's demands, then a subset
        with pytest.raises(UnsatisfiableDemand) as info:
            greedy(case)
        assert (info.value.pair, info.value.achieved) == ((2, 0), Fraction(17, 6))


def test_greedy_skips_already_satisfied_pairs():
    inst = example5()
    trace = []
    greedy(inst, edge_subset=frozenset({1, 2}), trace=trace)
    executed = [s for s in trace if s.executed]
    skipped = [s for s in trace if not s.executed]
    assert len(executed) == 2 and len(skipped) == 1
    assert (skipped[0].u, skipped[0].v) == (0, 1)  # covered by a->c->b


# ---------------------------------------------------------------------------
# Weight threshold


def test_threshold_example5():
    wt = weight_threshold_search(example5())
    assert wt.w_star == Fraction(1)
    assert wt.restricted_edges == frozenset({1, 2})


def test_threshold_all_weights_equal():
    inst = random_instance("basic", 6, 9, 0)
    wt = weight_threshold_search(inst)
    assert wt.w_star == Fraction(1)
    assert wt.restricted_edges == frozenset(range(inst.m))


def test_threshold_triangle_needs_unit_edges():
    wt = weight_threshold_search(nonmetric_triangle())
    assert wt.w_star == Fraction(1)  # G[1/2] = {xz} alone cannot serve (x,y)
    assert wt.restricted_edges == frozenset({0, 1, 2})


def test_threshold_minimality_and_lower_bound():
    rng = random.Random(11)
    for trial in range(60):
        inst = random_instance(
            "decoupled",
            rng.randint(4, 6),
            rng.randint(4, 9),
            1000 + trial,
            demand_family="freeform",
            demand_pairs="random",
            num_demands=3,
        )
        wt = weight_threshold_search(inst)
        distinct = sorted({e.weight for e in inst.edges})
        if wt.w_star > distinct[0]:
            below = [w for w in distinct if w < wt.w_star]
            subset = frozenset(i for i, e in enumerate(inst.edges) if e.weight <= below[-1])
            from spannerkit.instance import Subgraph

            assert not verify_feasible(Subgraph(inst, subset)).feasible
        # W* never exceeds the true optimum
        opt_weight, _ = brute_force_optimum(inst)
        assert wt.w_star <= opt_weight


def test_threshold_mst_lift_recomputes_edge_set():
    # searched threshold 1 but MST weight 2 lifts it, admitting the weight-2 edge
    edges = (
        Edge(0, 1, Fraction(1), Fraction(1)),
        Edge(1, 2, Fraction(1), Fraction(1)),
        Edge(0, 2, Fraction(2), Fraction(1)),
    )
    inst = SpannerInstance(False, 3, edges, (Demand(0, 1, Fraction(1)), Demand(1, 2, Fraction(1))))
    plain = weight_threshold_search(inst)
    assert plain.w_star == Fraction(1)
    lifted = weight_threshold_search(inst, mst_lift=True)
    assert lifted.w_star == Fraction(2)
    assert lifted.mst_lifted
    assert lifted.w_star_search == Fraction(1)
    assert lifted.restricted_edges == frozenset({0, 1, 2})


def test_threshold_mst_lift_rejects_directed():
    with pytest.raises(DirectedInstance):
        weight_threshold_search(example5(), mst_lift=True)


def test_threshold_mst_lift_stays_below_optimum():
    # All-pairs demands force connected spanning solutions, so the lifted
    # threshold is still a valid lower bound on the optimum.
    from spannerkit.oracles import exact_optimum

    for trial in range(15):
        inst = random_instance(
            "coupled", 6, 9, 4000 + trial,
            demand_family="multiplicative", demand_pairs="all", alpha=3,
        )
        wt = weight_threshold_search(inst, mst_lift=True)
        assert wt.w_star <= exact_optimum(inst).weight


# ---------------------------------------------------------------------------
# Augmented greedy


def test_augmented_greedy_example5_reaches_optimum():
    sub, report = augmented_greedy(example5())
    assert sub.weight == Fraction(2)
    assert sub.edge_set == frozenset({1, 2})
    assert report.w_star == Fraction(1)
    assert report.restricted_edge_count == 2
    assert report.high_weight_edge_count == 1


def test_augmented_greedy_single_edge_instance():
    inst = SpannerInstance(
        True, 2, (Edge(0, 1, Fraction(4), Fraction(2)),), (Demand(0, 1, Fraction(2)),)
    )
    sub, _ = augmented_greedy(inst)
    assert sub.edge_set == frozenset({0})


def test_augmented_greedy_feasible_and_bounded_on_random_instances():
    rng = random.Random(2)
    for trial in range(60):
        inst = random_instance(
            "decoupled",
            rng.randint(4, 7),
            rng.randint(4, 11),
            2000 + trial,
            demand_family="freeform",
            demand_pairs="random",
            num_demands=3,
        )
        sub, report = augmented_greedy(inst)
        assert verify_feasible(sub).feasible
        assert sub.weight <= report.intermediate_bound
        assert sub.edge_set <= frozenset(
            i for i, e in enumerate(inst.edges) if e.weight <= report.w_star
        )
        opt_weight, _ = brute_force_optimum(inst)
        assert sub.weight <= inst.m * opt_weight


def test_coupled_retention_greedy_equals_augmented():
    # On coupled multiplicative instances the two algorithms pick identical edges.
    for trial in range(25):
        alpha = 3 if trial % 2 else 5
        inst = random_instance(
            "coupled",
            random.Random(trial).randint(6, 14),
            2 * random.Random(trial).randint(6, 14),
            3000 + trial,
            demand_family="multiplicative",
            demand_pairs="edges",
            alpha=alpha,
        )
        plain = greedy(inst)
        lifted, _ = augmented_greedy(inst, mst_lift=True)
        assert plain.edge_set == lifted.edge_set


# ---------------------------------------------------------------------------
# Pinned traces


def trace_digest(trace) -> str:
    steps = [
        [s.u, s.v, str(s.delta), str(s.base_distance), s.executed, s.path_nodes, s.path_edges, s.new_edges]
        for s in trace
    ]
    return hashlib.sha256(json.dumps(steps).encode()).hexdigest()[:16]


# (family, directed, demand family, integer lengths, demand pairs, seed) ->
# sha256 prefixes of the full greedy and augmented-greedy traces, recorded
# from the tuple-keyed tree search that preceded ``lex_shortest_path``.
TRACE_PINNED = {
    ("decoupled", False, "multiplicative", False, "random", 500): ("63f04d86c3c8827c", "0f61f46a85a5fb93"),
    ("decoupled", False, "additive", True, "edges", 501): ("f829b3eb4231c763", "f829b3eb4231c763"),
    ("decoupled", False, "freeform", False, "all", 502): ("4a2bac30c1454916", "4a2bac30c1454916"),
    ("decoupled", True, "multiplicative", True, "random", 503): ("8fcf2a5d0c5ba4ca", "2420531a28d22e34"),
    ("decoupled", True, "additive", False, "edges", 504): ("4dea2f0df3bb9b61", "e80177cfae22687b"),
    ("decoupled", True, "freeform", True, "all", 505): ("970be54712997673", "970be54712997673"),
    ("coupled", False, "multiplicative", False, "random", 506): ("0567623c3f972d42", "d3998d17b8502873"),
    ("coupled", False, "additive", True, "edges", 507): ("47e1307ba8202552", "2d7f7ea89766319b"),
    ("coupled", False, "freeform", False, "all", 508): ("11afdc66cb4313ec", "11afdc66cb4313ec"),
    ("coupled", True, "multiplicative", True, "random", 509): ("22b9244280d95d94", "22b9244280d95d94"),
    ("coupled", True, "additive", False, "edges", 510): ("90e04a4b0c767eb4", "90e04a4b0c767eb4"),
    ("coupled", True, "freeform", True, "all", 511): ("b27ac47ae593b0f9", "b27ac47ae593b0f9"),
    ("unit-length", False, "multiplicative", False, "random", 512): ("a306f224bef39920", "6cf6b999ea470379"),
    ("unit-length", False, "additive", True, "edges", 513): ("b6279a5c2ae97d87", "05b6148901cef188"),
    ("unit-length", False, "freeform", False, "all", 514): ("d8a88339350feb5c", "d8a88339350feb5c"),
    ("unit-length", True, "multiplicative", True, "random", 515): ("f66198dcc318a005", "e252e1bd4a4d3705"),
    ("unit-length", True, "additive", False, "edges", 516): ("01b221095d9d618d", "01b221095d9d618d"),
    ("unit-length", True, "freeform", True, "all", 517): ("87a48ef59dc0cf61", "87a48ef59dc0cf61"),
    ("basic", False, "multiplicative", False, "random", 518): ("f73c9410624da9d0", "f73c9410624da9d0"),
    ("basic", False, "additive", True, "edges", 519): ("92c846bdc6ae118d", "92c846bdc6ae118d"),
    ("basic", False, "freeform", False, "all", 520): ("fcbd08d1411ff037", "fcbd08d1411ff037"),
    ("basic", True, "multiplicative", True, "random", 521): ("8660681da0500f42", "8660681da0500f42"),
    ("basic", True, "additive", False, "edges", 522): ("ee3d1c2e9db364bb", "ee3d1c2e9db364bb"),
    ("basic", True, "freeform", True, "all", 523): ("045cd741c9e683a3", "045cd741c9e683a3"),
    ("geometric", False, "multiplicative", False, "random", 524): ("440c5bb19da8b86f", "a082e32b71352c4d"),
    ("geometric", False, "additive", True, "edges", 525): ("f3c72aed671b33bf", "1b2ff53ac261a5e9"),
    ("geometric", False, "freeform", False, "all", 526): ("68347d292e029809", "9962f6a192a0b1ec"),
    ("geometric", True, "multiplicative", True, "random", 527): ("3b3d5c3855095d6a", "a63430599f4a45d5"),
    ("geometric", True, "additive", False, "edges", 528): ("6bf8fa32ef730921", "f27b170338cd4139"),
    ("geometric", True, "freeform", True, "all", 529): ("eae5bf8ef238b4c9", "e256982ea8db0e2e"),
    ("anti-correlated", False, "multiplicative", False, "random", 530): ("815028b4f468c774", "815028b4f468c774"),
    ("anti-correlated", False, "additive", True, "edges", 531): ("53e999a5b22b27b7", "53e999a5b22b27b7"),
    ("anti-correlated", False, "freeform", False, "all", 532): ("d7086e5c31b10b06", "d7086e5c31b10b06"),
    ("anti-correlated", True, "multiplicative", True, "random", 533): ("702a578adcc22e73", "702a578adcc22e73"),
    ("anti-correlated", True, "additive", False, "edges", 534): ("1173181ba3998c88", "1173181ba3998c88"),
    ("anti-correlated", True, "freeform", True, "all", 535): ("4b8ca1b083a9146f", "4b8ca1b083a9146f"),
}


def test_trace_pins_cover_every_family():
    keys = {(family, directed, demand) for family, directed, demand, *_ in TRACE_PINNED}
    assert keys == {
        (f, d, k) for f in WEIGHT_FAMILIES for d in (False, True) for k in DEMAND_FAMILIES
    }
    assert {pairs for *_, pairs, _ in TRACE_PINNED} == set(DEMAND_PAIRS)


@pytest.mark.parametrize("key", sorted(TRACE_PINNED))
def test_greedy_traces_pinned(key):
    family, directed, demand_family, integer_lengths, pairs, seed = key
    inst = random_instance(
        family, 7 if family == "geometric" else 10, 20, seed, demand_family=demand_family,
        demand_pairs=pairs, integer_lengths=integer_lengths, directed=directed,
    )
    plain, augmented = [], []
    greedy(inst, trace=plain)
    augmented_greedy(inst, trace=augmented)
    assert (trace_digest(plain), trace_digest(augmented)) == TRACE_PINNED[key]


def test_greedy_caps_the_order_distances_it_takes_as_potential():
    # source 0's order search stops at its farthest target 4 (distance 10) with
    # node 3 tentative at 14, though 0-1-2-3 is 12.  Capped at 10, the check of
    # (0, 4) finds the spanner path 0-1-2-3-4 of length 15; read as 14, node 3
    # would lie past the bound (3 + 14 > 15) and (0, 4) would be executed.
    edges = tuple(
        Edge(u, v, Fraction(1), Fraction(ln))
        for u, v, ln in ((0, 1, 6), (0, 3, 14), (0, 4, 10), (1, 2, 5), (2, 3, 1), (3, 4, 3))
    )
    demands = tuple(
        Demand(u, v, Fraction(b)) for u, v, b in ((0, 1, 6), (0, 4, 15), (1, 2, 5), (2, 3, 1), (3, 4, 3))
    )
    inst = SpannerInstance(False, 5, edges, demands)
    trace = []
    sub = greedy(inst, trace=trace)
    assert [s.executed for s in trace if (s.u, s.v) == (0, 4)] == [False]
    assert sub.edge_set == frozenset({0, 3, 4, 5})


def steps(trace) -> list[tuple]:
    return [
        (s.u, s.v, s.delta, s.base_distance, s.executed, s.path_nodes, s.path_edges, s.new_edges)
        for s in trace
    ]


@pytest.mark.parametrize("family", WEIGHT_FAMILIES)
@pytest.mark.parametrize("directed", (False, True))
@pytest.mark.parametrize("demand_family", DEMAND_FAMILIES)
@settings(max_examples=3, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_greedy_traces_match_reference_greedy(family, directed, demand_family, data):
    n = data.draw(st.integers(15, 30), label="n")
    inst = random_instance(
        family, n, data.draw(st.integers(n, 3 * n), label="m"), data.draw(st.integers(0, 10**6)),
        demand_family=demand_family, demand_pairs=data.draw(st.sampled_from(DEMAND_PAIRS)),
        integer_lengths=data.draw(st.booleans()), directed=directed,
    )
    plain, augmented = [], []
    greedy(inst, trace=plain)
    augmented_greedy(inst, trace=augmented)
    assert steps(plain) == reference_greedy(inst)
    restricted = weight_threshold_search(inst).restricted_edges
    assert steps(augmented) == reference_greedy(inst, restricted)


# ---------------------------------------------------------------------------
# The scaled view's shared searches (``scaled.view``, ``scaled.reach``)


def solve_everything(inst) -> dict:
    """Every solver's output on one instance, validation last: traces, edge sets, verdicts."""
    out = {}
    trace = []
    out["greedy"] = (greedy(inst, trace=trace).edge_set, trace)
    for lift in (False, True):
        trace = []
        sub, report = augmented_greedy(inst, mst_lift=lift, trace=trace)
        out["augmented", lift] = (sub.edge_set, trace, report.w_star, report.restricted_edge_count)
    sub, report = solve_randomized(inst, seed=3)
    out["randomized"] = (sub.edge_set, report.accepted_attempt)
    exact = exact_optimum(inst)
    out["exact"] = (exact.weight, exact.edge_set, exact.nodes_explored)
    out["verify"] = [
        verify_feasible(Subgraph(inst, edges)).violations
        for edges in (frozenset(), exact.edge_set, frozenset(range(inst.m - 1)))
    ]
    out["validate"] = validate(inst).violations
    return out


def assert_cache_as_built(inst):
    scaled = inst.scaled
    fresh = graph_view(scaled)
    assert scaled.view == fresh
    assert scaled.reach == source_searches(fresh, scaled.by_source, scaled.scale)[0]


# (family, seed, |E[W*]|) of undirected integer-length instances with n = 8, m = 14
SHARED = [("decoupled", 1, 14), ("coupled", 3, 11)]


@pytest.mark.parametrize("family, seed, restricted", SHARED)
def test_solvers_leave_the_shared_searches_as_built(family, seed, restricted):
    def make():
        return random_instance(family, 8, 14, seed, demand_family="freeform", integer_lengths=True)

    fresh = make()
    expected = solve_everything(fresh)  # greedy builds the cache here
    assert expected["augmented", False][3] == restricted
    assert_cache_as_built(fresh)
    validated = make()
    assert validate(validated).ok  # validation builds it here
    assert solve_everything(validated) == expected
    assert solve_everything(validated) == expected  # and again, every cache warm
    assert_cache_as_built(validated)


@pytest.mark.parametrize("family, seed, restricted", SHARED)
def test_pickled_validated_instance_solves_the_same(family, seed, restricted):
    inst = random_instance(family, 8, 14, seed, demand_family="freeform", integer_lengths=True)
    assert validate(inst).ok
    again = pickle.loads(pickle.dumps(inst))
    assert again.scaled.edges is again.edges and again.scaled.reach == inst.scaled.reach
    assert greedy(again).edge_set == greedy(inst).edge_set
    assert augmented_greedy(again)[0].edge_set == augmented_greedy(inst)[0].edge_set
    assert_cache_as_built(again)


def test_directed_greedy_reads_the_cached_reversed_view_on_the_whole_graph(monkeypatch):
    inst = random_instance("decoupled", 10, 20, 3, demand_family="freeform", directed=True)
    assert validate(inst).ok
    # the package's ``greedy`` attribute is the function, which shadows its module
    greedy_module = importlib.import_module("spannerkit.greedy")
    reversed_views = []
    build = greedy_module.graph_view

    def counting(of, **kwargs):
        if kwargs.get("reverse"):
            reversed_views.append(of)
        return build(of, **kwargs)

    monkeypatch.setattr(greedy_module, "graph_view", counting)
    assert verify_feasible(greedy(inst)).feasible
    assert reversed_views == []


def test_augmented_greedy_searches_nothing_on_a_validated_instances_full_view(monkeypatch):
    # at the benchmark's greedy size E[W*] = E: the threshold search's top probe and
    # greedy's pair order both read the searches validation cached
    inst = random_instance("decoupled", 60, 180, 424200001, demand_family="freeform", demand_pairs="edges")
    assert validate(inst).ok
    views = []

    def spy(fn):
        def wrapper(view, *args, **kwargs):
            views.append(view)
            return fn(view, *args, **kwargs)

        return wrapper

    greedy_module, graph_module = (importlib.import_module(f"spannerkit.{m}") for m in ("greedy", "graph"))
    for module, name in ((greedy_module, "meets_bounds"), (graph_module, "shortest_distances")):
        monkeypatch.setattr(module, name, spy(getattr(module, name)))
    sub, report = augmented_greedy(inst)
    assert report.restricted_edge_count == inst.m
    assert views and not any(view is inst.scaled.view for view in views)
    assert verify_feasible(sub).feasible
