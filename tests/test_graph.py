import itertools
import pickle
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import bellman_ford, brute_force_lex_shortest, fraction_view
from spannerkit import graph as graph_module
from spannerkit.errors import DirectedInstance, SpannerError
from spannerkit.generators import example5, nonmetric_triangle, random_instance
from spannerkit.graph import (
    PairViolation,
    Verdict,
    _pair_holds,
    graph_view,
    lex_shortest_path,
    minimum_spanning_tree,
    shortest_distances,
    source_searches,
    subgraph_views,
    verify_feasible,
)
from spannerkit.greedy import augmented_greedy, greedy
from spannerkit.instance import Demand, Edge, SpannerInstance, Subgraph, validate
from test_int_core import PROFILE, instances, rationals


def lex_path(inst, source, target):
    """The greedy path: ``lex_shortest_path`` over distances from the source."""
    view = graph_view(inst)
    from_source = shortest_distances(view, source)
    return lex_shortest_path(view, graph_view(inst, reverse=True), from_source, source, target)


def test_shortest_distances_example5():
    inst = example5()
    dist = shortest_distances(graph_view(inst), 0)  # source a
    assert dist[1] == 1  # dist(b) via edge (a,b)
    assert dist[2] == 2  # dist(c)
    assert lex_path(inst, 0, 1) == ((0, 1), (0,))


def test_lex_shortest_path_source_equals_target():
    inst = example5()
    assert shortest_distances(graph_view(inst), 2)[2] == 0
    assert lex_path(inst, 2, 2) == ((2,), ())


def test_lexicographic_tie_break_two_equal_paths():
    # 0 -> {1,2} -> 3, both length 2: the path must route through node 1
    edges = (
        Edge(0, 1, Fraction(1), Fraction(1)),
        Edge(0, 2, Fraction(1), Fraction(1)),
        Edge(1, 3, Fraction(1), Fraction(1)),
        Edge(2, 3, Fraction(1), Fraction(1)),
    )
    inst = SpannerInstance(False, 4, edges, ())
    assert shortest_distances(graph_view(inst), 0)[3] == 2
    assert lex_path(inst, 0, 3) == ((0, 1, 3), (0, 2))
    best = brute_force_lex_shortest(graph_view(inst), 0, 3)
    assert best == (2, (0, 1, 3))


def test_lex_shortest_path_prefers_smaller_node_over_fewer_hops():
    # 0 -> 2 directly (length 2) ties with 0 -> 1 -> 2; (0, 1, 2) < (0, 2)
    edges = (
        Edge(0, 2, Fraction(1), Fraction(2)),
        Edge(0, 1, Fraction(1), Fraction(1)),
        Edge(1, 2, Fraction(1), Fraction(1)),
    )
    inst = SpannerInstance(True, 3, edges, ())
    assert lex_path(inst, 0, 2) == ((0, 1, 2), (1, 2))


def test_lex_shortest_path_raises_instead_of_looping_on_a_zero_length_edge():
    # 0 -1- 2 -0- 1 -1- 3: nodes 1 and 2 are both at distance 1 from 3
    edges = (
        Edge(0, 2, Fraction(1), Fraction(1)),
        Edge(1, 2, Fraction(1), Fraction(0)),
        Edge(1, 3, Fraction(1), Fraction(1)),
    )
    inst = SpannerInstance(False, 4, edges, (Demand(0, 3, Fraction(5)),))
    with pytest.raises(SpannerError):
        lex_path(inst, 0, 3)
    with pytest.raises(SpannerError):
        greedy(inst)


def test_lexicographic_tie_break_matches_brute_force_on_random_graphs():
    # unit lengths and small integers tie often; rational lengths cover exact equality
    rng = random.Random(7)
    families = ("basic", "decoupled", "coupled")
    for trial in range(120):
        family, directed = families[trial % 3], trial % 4 >= 2
        inst = random_instance(
            family, rng.randint(4, 7), rng.randint(5, 12), rng.randint(0, 10**6),
            integer_lengths=trial % 2 == 0, directed=directed,
        )
        view, reverse = graph_view(inst), graph_view(inst, reverse=True)
        source = rng.randrange(inst.n)
        dist = shortest_distances(view, source)
        for target in range(inst.n):
            if target == source:
                continue
            expected = brute_force_lex_shortest(fraction_view(inst), source, target)
            if expected is None:
                assert dist[target] is None
                continue
            assert inst.unscale(dist[target]) == expected[0]
            nodes, edge_ids = lex_shortest_path(view, reverse, dist, source, target)
            assert nodes == expected[1]
            ends = [(inst.edges[e].u, inst.edges[e].v) for e in edge_ids]
            for (a, b), end in zip(zip(nodes, nodes[1:]), ends):
                assert end == (a, b) or (not directed and end == (b, a))
            assert sum(inst.edges[e].length for e in edge_ids) == expected[0]


def test_lex_shortest_path_same_from_search_stopped_at_the_target():
    # the graphs of the brute-force tie-break test above
    rng = random.Random(7)
    families = ("basic", "decoupled", "coupled")
    stopped_short = 0
    for trial in range(120):
        family, directed = families[trial % 3], trial % 4 >= 2
        inst = random_instance(
            family, rng.randint(4, 7), rng.randint(5, 12), rng.randint(0, 10**6),
            integer_lengths=trial % 2 == 0, directed=directed,
        )
        view, reverse = graph_view(inst), graph_view(inst, reverse=True)
        source = rng.randrange(inst.n)
        dist = shortest_distances(view, source)
        for target in range(inst.n):
            if target == source or dist[target] is None:
                continue
            path = lex_shortest_path(view, reverse, dist, source, target)
            # bounded at the pair's distance and unbounded, which leaves tentative
            # entries at or past the target's distance, and capped there, as greedy asks
            for limit in (dist[target], None):
                early = shortest_distances(view, source, limit=limit, targets=(target,))
                assert lex_shortest_path(view, reverse, early, source, target) == path
                stopped_short += limit is None and early != dist
            capped = [dist[target] if x is None or x > dist[target] else x for x in early]
            assert lex_shortest_path(view, reverse, capped, source, target) == path
    assert stopped_short > 100


def test_shortest_distances_matches_bellman_ford_on_random_instances():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(3, 10)
        inst = random_instance(
            "decoupled", n, rng.randint(n - 1, 2 * n), rng.randint(0, 10**6)
        )
        src = rng.randrange(n)
        got = [inst.unscale(d) for d in shortest_distances(graph_view(inst), src)]
        assert got == bellman_ford(fraction_view(inst), src)


def test_shortest_distances_bellman_condition_and_determinism():
    inst = random_instance("decoupled", 8, 14, 5)
    view = graph_view(inst)
    parents1, parents2 = [None] * inst.n, [None] * inst.n
    dist = shortest_distances(view, 0, parent_edge=parents1)
    assert shortest_distances(graph_view(inst), 0, parent_edge=parents2) == dist
    assert parents1 == parents2  # repeated runs identical
    lengths = inst.lengths
    for i, e in enumerate(inst.edges):
        for u, v in ((e.u, e.v), (e.v, e.u)):
            if dist[u] is not None and dist[v] is not None:
                assert dist[v] <= dist[u] + lengths[i]
    for v in range(1, inst.n):
        if parents1[v] is not None:
            e = inst.edges[parents1[v]]
            u = e.u if e.v == v else e.v
            assert dist[v] == dist[u] + lengths[parents1[v]]


# ---------------------------------------------------------------------------
# MST


def test_mst_example5_undirected():
    inst = example5()
    undirected = SpannerInstance(False, 3, inst.edges, (), inst.labels)
    weight, edges = minimum_spanning_tree(undirected)
    assert weight == Fraction(2)
    assert edges == frozenset({1, 2})  # (a,c), (c,b); enumerating all 3 trees confirms


def test_mst_tree_instance_takes_all_edges():
    inst = SpannerInstance(
        False, 3, (Edge(0, 1, Fraction(2), Fraction(1)), Edge(1, 2, Fraction(3), Fraction(1))), ()
    )
    weight, edges = minimum_spanning_tree(inst)
    assert weight == Fraction(5)
    assert edges == frozenset({0, 1})


def test_mst_tie_break_prefers_lower_edge_index():
    edges = (
        Edge(0, 1, Fraction(1), Fraction(1)),
        Edge(1, 2, Fraction(1), Fraction(1)),
        Edge(0, 2, Fraction(1), Fraction(1)),
    )
    inst = SpannerInstance(False, 3, edges, ())
    _, chosen = minimum_spanning_tree(inst)
    assert chosen == frozenset({0, 1})


def test_mst_rejects_directed():
    with pytest.raises(DirectedInstance):
        minimum_spanning_tree(example5())


def test_mst_lower_bounds_connected_spanning_solutions():
    # with all-pairs demands every feasible spanner is connected and spanning,
    # so the exact optimum can never weigh less than the MST
    from spannerkit.oracles import exact_optimum

    for seed in range(25):
        inst = random_instance(
            "decoupled", 5, 8, seed, demand_family="multiplicative", demand_pairs="all", alpha=3
        )
        mst_weight, _ = minimum_spanning_tree(inst)
        assert exact_optimum(inst).weight >= mst_weight


# ---------------------------------------------------------------------------
# Metric pairs


def test_single_pair_is_metric():
    inst = SpannerInstance(
        False, 2, (Edge(0, 1, Fraction(1), Fraction(1)),), (Demand(0, 1, Fraction(2)),)
    )
    assert tuple(inst.demands[i] for i in inst.metric) == inst.demands


def test_dominated_pair_removed():
    # delta(s,x)=1, delta(x,t)=1, delta(s,t)=3: (s,t) is covered by the others
    inst = SpannerInstance(
        False,
        3,
        (
            Edge(0, 1, Fraction(1), Fraction(1)),
            Edge(1, 2, Fraction(1), Fraction(1)),
            Edge(0, 2, Fraction(1), Fraction(1)),
        ),
        (Demand(0, 1, Fraction(1)), Demand(1, 2, Fraction(1)), Demand(0, 2, Fraction(3))),
    )
    kept = tuple(inst.demands[i] for i in inst.metric)
    assert {(d.u, d.v) for d in kept} == {(0, 1), (1, 2)}


def test_example5_all_pairs_metric():
    inst = example5()
    assert len(inst.metric) == 3


def test_metric_reduction_preserves_feasibility():
    # Feasible for K iff feasible for K' on random subgraphs.
    rng = random.Random(4)
    for trial in range(200):
        inst = random_instance(
            "decoupled",
            rng.randint(4, 7),
            rng.randint(5, 10),
            trial,
            demand_family="freeform",
            demand_pairs="random",
            num_demands=4,
        )
        metric = replace(inst, demands=tuple(inst.demands[i] for i in inst.metric))
        for _ in range(50):
            subset = frozenset(i for i in range(inst.m) if rng.random() < 0.5)
            feasible = verify_feasible(Subgraph(inst, subset)).feasible
            assert feasible == verify_feasible(Subgraph(metric, subset)).feasible


def metric_reference(instance, demands) -> tuple:
    """The per-demand rule on ``demands``' own bounds: rebuild the demand graph without each demand.

    Demand i is kept iff the demand graph without it has no chain within
    its bound.  Returns the kept entries of ``instance.demands``.
    """
    kept = []
    for i, d in enumerate(demands):
        view = [[] for _ in range(instance.n)]
        for j, other in enumerate(demands):
            if j != i:
                view[other.u].append((other.v, other.delta, j))
                if not instance.directed:
                    view[other.v].append((other.u, other.delta, j))
        dist = shortest_distances(view, d.u, targets=(d.v,))[d.v]
        if dist is None or dist > d.delta:
            kept.append(instance.demands[i])
    return tuple(kept)


@st.composite
def demand_chains(draw, *, unique=True):
    """Instances with m <= 8 and up to 10 demands, many implied by chains; not necessarily valid.

    Unless ``unique``, some draws repeat demand pairs.
    """
    n = draw(st.integers(3, 5))
    directed = draw(st.booleans())
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)]
    edge_pairs = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=8, unique=True))
    unique = unique or draw(st.booleans())
    demand_pairs = draw(st.lists(st.sampled_from(pairs), min_size=2, max_size=10, unique=unique))
    lengths = st.builds(Fraction, st.integers(1, 4), st.integers(1, 2))
    bounds = draw(st.sampled_from([st.integers(1, 8).map(Fraction), rationals]))
    edges = tuple(Edge(u, v, draw(rationals), draw(lengths)) for u, v in edge_pairs)
    demands = tuple(Demand(u, v, draw(bounds)) for u, v in demand_pairs)
    return SpannerInstance(directed, n, edges, demands)


EXHAUSTIVE = settings(max_examples=100, derandomize=True, deadline=None, database=None)


@EXHAUSTIVE
@given(demand_chains(unique=False))
def test_every_edge_subset_meets_all_demands_iff_it_meets_the_metric_ones(inst):
    metric = replace(inst, demands=tuple(inst.demands[i] for i in inst.metric))
    for size in range(inst.m + 1):
        for subset in itertools.combinations(range(inst.m), size):
            subset = frozenset(subset)
            feasible = verify_feasible(Subgraph(inst, subset)).feasible
            assert feasible == verify_feasible(Subgraph(metric, subset)).feasible


@EXHAUSTIVE
@given(demand_chains())
def test_metric_pairs_match_the_per_demand_rule_on_floored_bounds(inst):
    # Distinct pairs, every floored bound positive: the in-arc rule keeps
    # what rebuilding the demand graph per demand keeps, in scaled units,
    # and in instance units too when every bound is an integer.
    assume(all(b > 0 for b in inst.bounds))
    kept = tuple(inst.demands[i] for i in inst.metric)
    floored = [Demand(d.u, d.v, b) for d, b in zip(inst.demands, inst.bounds)]
    assert kept == metric_reference(inst, floored)
    if all(d.delta.denominator == 1 for d in inst.demands):
        assert kept == metric_reference(inst, inst.demands)


def test_metric_pairs_make_one_integer_search_per_demand_source(monkeypatch):
    inst = random_instance("coupled", 12, 24, 1, demand_pairs="all", integer_lengths=True)
    sources = inst.by_source
    searched = []

    def counting(view, source, **options):
        searched.append(all(type(length) is int for arcs in view for _, length, _ in arcs))
        return shortest_distances(view, source, **options)

    monkeypatch.setattr(graph_module, "shortest_distances", counting)
    kept = tuple(inst.demands[i] for i in inst.metric)
    assert len(searched) == len(sources) < len(inst.demands)
    assert all(searched)  # scaled bounds, never Fraction lengths
    assert kept == metric_reference(inst, inst.demands)


def test_duplicated_demand_does_not_drop_its_twin():
    # Validation rejects duplicates; unvalidated, each twin is a chain for
    # the other, and dropping both would leave nothing to check.
    inst = SpannerInstance(
        False,
        2,
        (Edge(0, 1, Fraction(1), Fraction(1)),),
        (Demand(0, 1, Fraction(2)), Demand(0, 1, Fraction(2))),
    )
    metric = replace(inst, demands=tuple(inst.demands[i] for i in inst.metric))
    assert metric.demands
    for subset in (frozenset(), frozenset({0})):
        feasible = verify_feasible(Subgraph(inst, subset)).feasible
        assert feasible == verify_feasible(Subgraph(metric, subset)).feasible


def test_bound_floored_to_zero_neither_is_dropped_nor_chains():
    # Every pair of a directed triangle with unit lengths demands 1/2, which
    # floors to 0, so every chain of two demands is within every bound.  No
    # subgraph meets such a bound: dropping them all would be unsound.
    edges = tuple(Edge(u, v, Fraction(1), Fraction(1)) for u in range(3) for v in range(3) if u != v)
    inst = SpannerInstance(True, 3, edges, tuple(Demand(e.u, e.v, Fraction(1, 2)) for e in edges))
    assert tuple(inst.demands[i] for i in inst.metric) == inst.demands
    # A self-pair's bound 1/2 floors to 0 too, but it always holds: it must
    # not extend the walk through demand (0, 1) itself into a chain for it.
    inst = SpannerInstance(
        False,
        2,
        (Edge(0, 1, Fraction(1), Fraction(1)),),
        (Demand(0, 1, Fraction(2)), Demand(1, 1, Fraction(1, 2))),
    )
    assert tuple(inst.demands[i] for i in inst.metric) == inst.demands[:1]


def test_flooring_may_drop_a_pair_the_instance_bounds_keep():
    # Bounds 3/2, 3/2 and 5/2 at scale 1 floor to 1, 1 and 2: the chain
    # 0-1-2 meets (0, 2) in scaled units only.  Both sets are sound.
    inst = SpannerInstance(
        False,
        3,
        (
            Edge(0, 1, Fraction(1), Fraction(1)),
            Edge(1, 2, Fraction(1), Fraction(1)),
            Edge(0, 2, Fraction(1), Fraction(2)),
        ),
        (Demand(0, 1, Fraction(3, 2)), Demand(1, 2, Fraction(3, 2)), Demand(0, 2, Fraction(5, 2))),
    )
    assert tuple(inst.demands[i] for i in inst.metric) == inst.demands[:2]
    assert metric_reference(inst, inst.demands) == inst.demands


def dominated_triangle():
    """(0, 2) within 3 is implied by (0, 1) and (1, 2) within 1 each."""
    edges = tuple(Edge(u, v, Fraction(1), Fraction(1)) for u, v in ((0, 1), (0, 2), (1, 2)))
    demands = (Demand(0, 1, Fraction(1)), Demand(0, 2, Fraction(3)), Demand(1, 2, Fraction(1)))
    return SpannerInstance(False, 3, edges, demands)


def test_metric_pairs_are_built_once_and_read_by_the_reduction(monkeypatch):
    calls = []
    compute = graph_module.metric_pairs

    def counting(instance):
        calls.append(instance)
        return compute(instance)

    monkeypatch.setattr(graph_module, "metric_pairs", counting)
    inst = dominated_triangle()
    assert inst.metric == (0, 2)
    assert tuple(inst.demands[i] for i in inst.metric) == (inst.demands[0], inst.demands[2])
    assert inst.metric == (0, 2)
    assert len(calls) == 1 and calls[0] is inst
    inst.__dict__["metric"] = (1,)  # the cached property's slot
    assert tuple(inst.demands[i] for i in inst.metric) == (inst.demands[1],)
    assert len(calls) == 1


def test_metric_pairs_travel_with_a_pickled_instance(monkeypatch):
    inst = dominated_triangle()
    kept = inst.metric
    monkeypatch.setattr(graph_module, "metric_pairs", None)  # a copy that searched again would fail
    copy = pickle.loads(pickle.dumps(inst))
    assert copy.metric == kept == (0, 2)


def test_a_demand_subset_gets_its_own_metric_pairs():
    inst = dominated_triangle()
    assert inst.metric == (0, 2)
    # without (0, 1) nothing implies (0, 2) any more
    subset = replace(inst, demands=inst.demands[1:])
    assert "metric" not in vars(subset)  # the copy builds its own
    assert subset.metric == (0, 1)
    assert tuple(subset.demands[i] for i in subset.metric) == subset.demands


def test_shortest_distances_limit_cuts_off_farther_nodes():
    # path 0 -1- 1 -2- 2 -1- 3: distances 0, 1, 3, 4
    inst = SpannerInstance(
        True,
        4,
        tuple(Edge(u, u + 1, Fraction(1), Fraction(ln)) for u, ln in ((0, 1), (1, 2), (2, 1))),
        (),
    )
    view = graph_view(inst)
    assert shortest_distances(view, 0) == [0, 1, 3, 4]
    assert shortest_distances(view, 0, limit=3) == [0, 1, 3, None]
    assert shortest_distances(view, 0, limit=Fraction(5, 2)) == [0, 1, None, None]
    assert shortest_distances(view, 0, limit=0) == [0, None, None, None]


def test_targets_stop_the_search_once_settled():
    # path 0 - 1 - ... - k: node 1 is settled second, so the search never reaches k
    k = 6
    inst = SpannerInstance(
        False, k + 1, tuple(Edge(u, u + 1, Fraction(1), Fraction(1)) for u in range(k)), ()
    )
    view = graph_view(inst)
    early = shortest_distances(view, 0, targets=(1,))
    assert early[:2] == [0, 1]
    assert early[k] is None
    assert shortest_distances(view, 0)[k] == k
    # repeats or no targets only forgo the early exit
    assert shortest_distances(view, 0, targets=(1, 1)) == shortest_distances(view, 0)
    assert shortest_distances(view, 0, targets=()) == shortest_distances(view, 0)


def tree_path(instance, parent_edge, source, node):
    """Edge indices of the ``parent_edge`` tree path from ``node`` back to ``source``."""
    path = []
    while node != source:
        assert len(path) < instance.n, "parent_edge has a cycle"
        e = instance.edges[parent_edge[node]]
        path.append(parent_edge[node])
        node = e.u if node == e.v else e.v
    return path


@PROFILE
@given(instances(), st.data())
def test_targets_keep_target_distances_and_tree_paths(inst, data):
    view = graph_view(inst, reverse=data.draw(st.booleans()))
    source = data.draw(st.integers(0, inst.n - 1))
    limit = data.draw(st.one_of(st.none(), st.integers(0, sum(inst.lengths))))
    targets = data.draw(st.sets(st.integers(0, inst.n - 1), min_size=1))
    full_parent, early_parent = [None] * inst.n, [None] * inst.n
    full = shortest_distances(view, source, limit=limit, parent_edge=full_parent)
    early = shortest_distances(view, source, limit=limit, parent_edge=early_parent, targets=targets)
    for t in targets:
        assert early[t] == full[t]
        if full[t] is not None:
            expected = tree_path(inst, full_parent, source, t)
            assert tree_path(inst, early_parent, source, t) == expected
    # every other entry is final, unreached, or tentative: above its distance and
    # never below the last settled one, the farthest target (the search stopped early)
    for q in range(inst.n):
        if early[q] is not None and early[q] != full[q]:
            assert early[q] > full[q] and early[q] >= max(early[t] for t in targets)


@PROFILE
@given(instances(), st.data())
def test_potential_keeps_the_target_distance(inst, data):
    reverse = data.draw(st.booleans())
    view, back = graph_view(inst, reverse=reverse), graph_view(inst, reverse=not reverse)
    source = data.draw(st.integers(0, inst.n - 1))
    target = data.draw(st.integers(0, inst.n - 1))
    limit = data.draw(st.one_of(st.none(), st.integers(0, sum(inst.lengths))))
    cap = data.draw(st.integers(0, sum(inst.lengths)))
    exact = bellman_ford(view, source)[target]
    expected = None if exact is None or (limit is not None and exact > limit) else exact
    assert shortest_distances(view, source, limit=limit)[target] == expected
    # min(exact distance to the target, cap) and all zeros are both consistent
    to_target = bellman_ford(back, target)
    capped = [cap if x is None else min(x, cap) for x in to_target]
    for potential in (capped, [0] * inst.n):
        for targets in ((target,), None):
            got = shortest_distances(view, source, limit=limit, targets=targets, potential=potential)
            assert got[target] == expected


@PROFILE
@given(instances(), st.data())
def test_pair_holds_is_a_plain_search_within_the_bound(inst, data):
    # the pair's own arc kept or dropped, and the bound below, at or above the distance
    e = data.draw(st.integers(0, inst.m - 1))
    source, target = inst.edges[e].u, inst.edges[e].v
    if not inst.directed and data.draw(st.booleans()):
        source, target = target, source
    subset = data.draw(st.sets(st.integers(0, inst.m - 1))) | {e}
    if data.draw(st.booleans()):
        subset.discard(e)
    view = graph_view(inst, edge_subset=subset)
    distance = shortest_distances(view, source)[target]
    bound = (inst.lengths[e] if distance is None else distance) + data.draw(st.integers(-1, 1))
    expected = distance is not None and distance <= bound
    # the full graph's distances from the source, capped, bound the subgraph's from below, as zeros do
    cap = data.draw(st.integers(0, sum(inst.lengths)))
    capped = [cap if x is None or x > cap else x for x in shortest_distances(inst.view, source)]
    reverse = graph_view(inst, edge_subset=subset, reverse=True)
    for potential in (capped, [0] * inst.n):
        assert _pair_holds(reverse, source, target, bound, potential) == expected


@PROFILE
@given(instances())
def test_scaled_view_caches_the_full_view_and_each_sources_search(inst):
    assert inst.view is inst.view and inst.reach is inst.reach  # built once, then kept
    fresh = graph_view(inst)
    assert inst.view == fresh
    assert len(inst.reach) == len(inst.by_source)
    for (source, limit, targets, nodes), dist in zip(inst.by_source, inst.reach):
        searched = shortest_distances(fresh, source, limit=limit, targets=nodes)
        exact = bellman_ford(fresh, source)
        for v, _, _ in targets:
            assert dist[v] == searched[v]
            assert dist[v] == (None if exact[v] is None or exact[v] > limit else exact[v])


@PROFILE
@given(instances())
def test_scaled_view_caches_the_reversed_view(inst):
    # an undirected instance's reversed view is its forward view
    assert inst.reverse is inst.reverse  # built once, then kept
    if inst.directed:
        assert inst.reverse == graph_view(inst, reverse=True)
    else:
        assert inst.reverse is inst.view


@PROFILE
@given(instances(), st.data())
def test_subgraph_views_are_the_cached_pair_on_every_edge_and_built_lists_otherwise(inst, data):
    for edge_set in (None, frozenset(range(inst.m))):
        view, reverse = subgraph_views(inst, edge_set)
        assert view is inst.view and reverse is inst.reverse
    every = frozenset(range(inst.m))
    subsets = [every - {e} for e in every]  # each one edge short of the whole graph
    if inst.m:
        subsets.append(frozenset(data.draw(st.sets(st.integers(0, inst.m - 1), max_size=inst.m - 1))))
    for subset in subsets:
        view, reverse = subgraph_views(inst, subset)
        assert view is not inst.view and view == graph_view(inst, edge_subset=subset)
        if inst.directed:
            assert reverse is not inst.reverse and reverse == graph_view(inst, edge_subset=subset, reverse=True)
        else:
            assert reverse is view


def test_shortest_distances_matches_bellman_ford_on_scaled_views():
    rng = random.Random(11)
    for seed in range(20):
        inst = random_instance("decoupled", 8, 14, seed, demand_family="freeform")
        src = rng.randrange(inst.n)
        got = [inst.unscale(d) for d in shortest_distances(graph_view(inst), src)]
        assert got == bellman_ford(fraction_view(inst), src)


# ---------------------------------------------------------------------------
# verify_feasible


def test_verify_example5_optimum():
    inst = example5()
    assert verify_feasible(Subgraph(inst, frozenset({1, 2}))).feasible


def test_verify_empty_subgraph_violates_everything():
    inst = example5()
    verdict = verify_feasible(Subgraph(inst, frozenset()))
    assert not verdict.feasible
    assert len(verdict.violations) == 3
    assert all(v.achieved is None for v in verdict.violations)


def test_verify_reports_exact_distance_past_the_bound():
    # the bounded search stops at the bound; the report still has the true distance
    inst = SpannerInstance(
        False,
        3,
        (Edge(0, 1, Fraction(1), Fraction(1, 2)), Edge(1, 2, Fraction(1), Fraction(7, 3))),
        (Demand(0, 2, Fraction(1)), Demand(0, 1, Fraction(1, 3))),
    )
    verdict = verify_feasible(Subgraph(inst, frozenset({0, 1})))
    assert [(v.u, v.v, v.achieved) for v in verdict.violations] == [
        (0, 2, Fraction(17, 6)),
        (0, 1, Fraction(1, 2)),
    ]
    assert "achieved 17/6" in verdict.describe()


def test_verify_triangle_keeps_nonmetric_edge():
    # {xy, xz} is feasible at weight 3/2 despite xz being non-metric
    tri = nonmetric_triangle()
    ids = {(e.u, e.v): i for i, e in enumerate(tri.edges)}
    sub = Subgraph(tri, frozenset({ids[(0, 1)], ids[(0, 2)]}))
    verdict = verify_feasible(sub)
    assert verdict.feasible
    assert sub.weight == Fraction(3, 2)


# ---------------------------------------------------------------------------
# verify_feasible's two paths: pair by pair off the cached lists, or one search per source


def per_source_verdict(sub):
    """The verifier with one bounded search per source, each failing source searched again unbounded."""
    inst = sub.instance
    view = graph_view(inst, edge_subset=sub.edge_set)
    found = []
    for source, limit, targets, nodes in inst.by_source:
        dist = shortest_distances(view, source, limit=limit, targets=nodes)
        failed = [(v, i) for v, bound, i in targets if dist[v] is None or dist[v] > bound]
        if failed:
            exact = shortest_distances(view, source, targets={v for v, _ in failed})
            found += [(i, None if exact[v] is None else Fraction(exact[v], inst.scale)) for v, i in failed]
    found.sort(key=lambda pair: pair[0])
    demands = inst.demands
    violations = [PairViolation(demands[i].u, demands[i].v, demands[i].delta, a) for i, a in found]
    return Verdict(not violations, violations)


def verdicts_at_each_cutoff(sub):
    """verify_feasible with every source searched once, at the module's cutoff, and with every pair apart."""
    every = 1 + max((len(targets) for _, _, targets, _ in sub.instance.by_source), default=0)
    verdicts = []
    for cutoff in (0, graph_module.PAIR_SEARCH_MAX, every):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_module, "PAIR_SEARCH_MAX", cutoff)
            verdicts.append(verify_feasible(sub))
    return verdicts


def _instance(directed, n, edges, demands):
    return SpannerInstance(
        directed,
        n,
        tuple(Edge(u, v, Fraction(1), Fraction(ln)) for u, v, ln in edges),
        tuple(Demand(u, v, Fraction(delta)) for u, v, delta in demands),
    )


# never validated: each breaks a rule validation enforces, beside pairs that hold
UNVALIDATED = (
    # (0, 2) asks for less than the graph achieves; (0, 1) holds
    _instance(False, 3, ((0, 1, 1), (1, 2, 1)), ((0, 1, 1), (0, 2, Fraction(3, 2)))),
    # node 2 is unreachable from 0 in a directed path 0 -> 1 <- 2
    _instance(True, 3, ((0, 1, 1), (2, 1, 1)), ((0, 1, 2), (0, 2, 5), (2, 1, 1))),
    # scale 2, so the bound 1/3 floors to 0; (0, 1) holds at 1/2
    _instance(False, 3, ((0, 1, Fraction(1, 2)), (1, 2, 1)), ((0, 1, 1), (1, 2, Fraction(1, 3)))),
    # the same pair twice, once met and once not, and its reverse as a third demand
    _instance(False, 4, ((0, 1, 2), (1, 2, 1), (0, 2, 1)), ((0, 1, 2), (0, 1, 1), (1, 0, 3), (2, 3, 1))),
    # a source whose first pair fails in the graph and whose second holds by its own edge
    _instance(True, 3, ((0, 1, 1), (0, 2, 1), (2, 1, 1)), ((0, 2, Fraction(1, 2)), (0, 1, 1), (2, 1, 1))),
)


@st.composite
def generated_instances(draw):
    """Valid generated instances up to n = 20, so that all-pairs sources pass the cutoff."""
    # integers() favours the small: here that is n = 20, where all-pairs sources pass the cutoff
    n = 20 - draw(st.integers(0, 18))
    pairs = draw(st.sampled_from(("edges", "all", "random")))
    return random_instance(
        draw(st.sampled_from(("decoupled", "coupled", "unit-length", "geometric"))),
        n,
        draw(st.integers(n - 1, 3 * n)),
        draw(st.integers(0, 2**16)),
        demand_family=draw(st.sampled_from(("multiplicative", "additive", "freeform"))),
        demand_pairs=pairs,
        num_demands=draw(st.integers(1, n * (n - 1) // 2)) if pairs == "random" else None,
        integer_lengths=draw(st.booleans()),
        directed=draw(st.booleans()),
    )


@st.composite
def verify_cases(draw):
    """A random edge subset of a generated, randomly drawn or hand-built unvalidated instance."""
    inst = draw(st.one_of(generated_instances(), instances(), st.sampled_from(UNVALIDATED)))
    keep = draw(st.sampled_from((0.0, 0.5, 0.8, 1.0)))
    rng = random.Random(draw(st.integers(0, 2**16)))
    return Subgraph(inst, frozenset(i for i in range(inst.m) if rng.random() < keep))


VERIFY_PATHS = settings(max_examples=500, derandomize=True, deadline=None, database=None)


@VERIFY_PATHS
@given(verify_cases())
def test_verify_gives_one_verdict_whichever_path_checks_a_source(sub):
    expected = per_source_verdict(sub)
    assert verdicts_at_each_cutoff(sub) == [expected] * 3


@VERIFY_PATHS
@given(verify_cases(), st.integers(1, 2**21))
def test_verify_verdict_does_not_depend_on_the_cached_lists(sub, extra):
    # the cache only chooses the searches: inflated lists break the potential's lower
    # bound and zeroed ones make every source look as if it held, with the same verdict
    expected = per_source_verdict(sub)
    reach = sub.instance.reach
    for lists in (
        tuple([None if x is None else x + extra for x in dist] for dist in reach),
        tuple([0] * len(dist) for dist in reach),
    ):
        copy = replace(sub.instance)
        copy.__dict__["reach"] = lists  # the cached property's slot
        assert verdicts_at_each_cutoff(Subgraph(copy, sub.edge_set)) == [expected] * 3


def searches_reference(view, instance):
    """``(lists, unmet, searches)`` of :func:`source_searches` written out with plain searches.

    Per check, in check order: the search bounded at the source's largest
    bound and stopped at its targets, capped at its farthest target's
    distance where every pair holds.  Then each failing source once more,
    unbounded and stopped at its failing targets.  The verdict comes from
    full unbounded searches, on their own.
    """
    lists, unmet, searches, failing = [], [], [], []
    for source, limit, targets, nodes in instance.by_source:
        searches.append((source, limit, nodes))
        dist = shortest_distances(view, source, limit=limit, targets=nodes)
        failed = frozenset(v for v, bound, _ in targets if dist[v] is None or dist[v] > bound)
        if failed:
            failing.append((source, None, failed))
        else:
            far = max(dist[v] for v in nodes)
            dist = [far if x is None else min(x, far) for x in dist]
        lists.append(dist)
        exact = shortest_distances(view, source)
        unmet += [
            (i, None if exact[v] is None else Fraction(exact[v], instance.scale))
            for v, bound, i in targets
            if exact[v] is None or exact[v] > bound
        ]
    return tuple(lists), tuple(sorted(unmet, key=lambda pair: pair[0])), searches + failing


@VERIFY_PATHS
@given(verify_cases())
def test_source_searches_match_plain_searches_on_restricted_views(sub):
    inst = sub.instance
    view = graph_view(inst, edge_subset=sub.edge_set)
    lists, unmet, expected = searches_reference(view, inst)
    searches = []
    search = graph_module.shortest_distances

    def logged(view, source, *, limit=None, targets=None, **kwargs):
        searches.append((source, limit, frozenset(targets)))
        return search(view, source, limit=limit, targets=targets, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_module, "shortest_distances", logged)
        assert source_searches(view, inst.by_source, inst.scale) == (lists, unmet)
    assert searches == expected  # the same searches, with the same limits and targets, in order


def test_verify_searches_only_the_pairs_not_met_by_their_own_edge(monkeypatch):
    inst = random_instance("decoupled", 60, 180, 424200001, demand_family="freeform", demand_pairs="edges")
    assert validate(inst).ok
    sub, _ = augmented_greedy(inst)
    assert max(len(targets) for _, _, targets, _ in inst.by_source) <= graph_module.PAIR_SEARCH_MAX
    own = {
        (e.u, e.v)
        for i, e in enumerate(inst.edges)
        if i in sub.edge_set and any({d.u, d.v} == {e.u, e.v} and e.length <= d.delta for d in inst.demands)
    }
    assert own
    searches = []
    search = graph_module.shortest_distances

    def counting(view, source, **kwargs):
        searches.append((source, tuple(kwargs.get("targets") or ())))
        return search(view, source, **kwargs)

    monkeypatch.setattr(graph_module, "shortest_distances", counting)
    assert verify_feasible(sub).feasible
    # each other pair is one search back from its target, stopped at its source
    expected = sorted((d.v, (d.u,)) for d in inst.demands if (d.u, d.v) not in own and (d.v, d.u) not in own)
    assert sorted(searches) == expected
