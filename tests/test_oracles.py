import pickle
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import brute_force_optimum
from spannerkit import graph as graph_module
from spannerkit import oracles
from spannerkit.errors import (
    InfeasibleInstance,
    SpannerError,
    TooLarge,
    TooManyCuts,
)
from spannerkit.generators import example5, nonmetric_triangle, random_instance
from spannerkit.graph import graph_view, shortest_distances, verify_feasible
from spannerkit.greedy import augmented_greedy, greedy
from spannerkit.instance import Demand, Edge, SpannerInstance, Subgraph
from spannerkit.oracles import (
    ascending_cut_count,
    check_cut_lemma,
    dodis_khanna_demo,
    enumerate_ascending_cuts,
    exact_optimum,
    potential_monitor,
    restricted_subgraph,
)


# ---------------------------------------------------------------------------
# Exact optimum


def test_exact_example5():
    result = exact_optimum(example5())
    assert result.weight == Fraction(2)
    assert result.edge_set == frozenset({1, 2})


def test_exact_triangle_keeps_nonmetric_edge():
    tri = nonmetric_triangle()
    result = exact_optimum(tri)
    assert result.weight == Fraction(3, 2)
    pairs = {(tri.edges[i].u, tri.edges[i].v) for i in result.edge_set}
    assert pairs == {(0, 1), (0, 2)}  # xy and the cheap long edge xz


def test_exact_triangle_without_nonmetric_edge():
    tri = nonmetric_triangle()
    edges = tuple(e for e in tri.edges if (e.u, e.v) != (0, 2))
    pruned = SpannerInstance(False, 3, edges, tri.demands, tri.labels)
    assert exact_optimum(pruned).weight == Fraction(2)


def test_exact_empty_demands():
    inst = SpannerInstance(False, 2, (Edge(0, 1, Fraction(9), Fraction(1)),), ())
    result = exact_optimum(inst)
    assert result.weight == Fraction(0)
    assert result.edge_set == frozenset()


def test_exact_cap_enforced():
    inst = random_instance("basic", 8, 24, 0)
    with pytest.raises(TooLarge):
        exact_optimum(inst, max_edges=10)


def test_exact_infeasible_full_graph():
    inst = SpannerInstance(
        True, 2, (Edge(0, 1, Fraction(1), Fraction(3)),), (Demand(0, 1, Fraction(1)),)
    )
    with pytest.raises(InfeasibleInstance):
        exact_optimum(inst)


def test_exact_matches_enumeration_and_bounds_solvers():
    rng = random.Random(13)
    for trial in range(40):
        inst = random_instance(
            "decoupled",
            rng.randint(3, 6),
            rng.randint(3, 9),
            trial * 31 + 7,
            demand_family="freeform",
            demand_pairs="random",
            num_demands=3,
        )
        result = exact_optimum(inst)
        weight, subset = brute_force_optimum(inst)
        assert result.weight == weight
        assert tuple(sorted(result.edge_set)) == subset  # same lexicographic tie-break
        for solver_sub in (greedy(inst), augmented_greedy(inst)[0]):
            assert result.weight <= solver_sub.weight


def test_exact_deterministic():
    inst = random_instance("decoupled", 5, 8, 321, demand_family="freeform",
                           demand_pairs="random", num_demands=3)
    a, b = exact_optimum(inst), exact_optimum(inst)
    assert a.weight == b.weight and a.edge_set == b.edge_set


# (weight, sorted edge set, nodes_explored) of exact_optimum on
# random_instance(family, n, m, seed, demand_family="freeform",
# demand_pairs="random", num_demands=8, directed=directed).  Weights and edge
# sets were recorded while every exclusion re-searched every source; the node
# counts with the connectivity bound, each at most its count without it.
# Undirected: n=8, m=16 (geometric n=6, complete, m=15); directed: n=6, m=10,
# so 15 arcs once the 5 tree edges are bi-directed.  The node count pins the
# search tree itself.
EXACT_PINNED = {
    ("decoupled", False, 0): ("37", (1, 2, 4, 5, 6, 10, 12, 13, 15), 82),
    ("decoupled", False, 1): ("877/30", (2, 4, 5, 7, 9, 10, 11, 12), 126),
    ("coupled", False, 0): ("34/3", (4, 5, 6, 7, 8, 10, 11, 14), 119),
    ("coupled", False, 1): ("16", (0, 1, 3, 4, 8, 11, 13, 14), 169),
    ("unit-length", False, 0): ("1193/30", (0, 3, 4, 5, 6, 7, 11, 13), 55),
    ("unit-length", False, 1): ("141/4", (0, 1, 2, 3, 4, 5, 9, 12, 13), 196),
    ("basic", False, 0): ("7", (1, 2, 3, 4, 10, 11, 13), 631),
    ("basic", False, 1): ("7", (0, 1, 3, 5, 8, 9, 10), 610),
    ("anti-correlated", False, 0): ("410/7", (3, 5, 6, 7, 10, 11, 12, 14, 15), 109),
    ("anti-correlated", False, 1): ("533/12", (0, 1, 2, 3, 4, 8, 12, 13), 163),
    ("geometric", False, 0): ("1865765/1048576", (1, 3, 8, 13, 14), 79),
    ("geometric", False, 1): ("3837797/1048576", (1, 2, 3, 7, 8, 10), 31),
    ("decoupled", True, 0): ("709/40", (1, 3, 4, 6, 7, 10, 13, 14), 31),
    ("decoupled", True, 1): ("273/8", (0, 1, 2, 4, 6, 8, 9), 68),
    ("coupled", True, 0): ("23/2", (0, 4, 7, 8, 9, 11, 12, 13), 161),
    ("coupled", True, 1): ("31/2", (0, 3, 5, 7, 8, 9, 11, 14), 186),
    ("unit-length", True, 0): ("1639/70", (1, 4, 8, 9, 11, 12, 13, 14), 123),
    ("unit-length", True, 1): ("377/8", (0, 3, 5, 7, 8, 9, 11, 13, 14), 277),
    ("anti-correlated", True, 0): ("515/9", (0, 4, 6, 7, 8, 9, 11, 13), 40),
    ("anti-correlated", True, 1): ("137/3", (0, 3, 5, 7, 8, 9, 11, 14), 32),
}


@pytest.mark.parametrize("family,directed,seed", sorted(EXACT_PINNED))
def test_exact_search_tree_pinned(family, directed, seed):
    n, m = (6, 10) if directed else (6, 0) if family == "geometric" else (8, 16)
    inst = random_instance(family, n, m, seed, demand_family="freeform", demand_pairs="random",
                           num_demands=8, directed=directed)
    result = exact_optimum(inst)
    weight, edges, nodes = EXACT_PINNED[family, directed, seed]
    assert (result.weight, result.edge_tuple(), result.nodes_explored) == (
        Fraction(weight), edges, nodes)


# (bound_prunes, witness_skips) of exact_optimum on the EXACT_PINNED instances.
# The skips pin each source's witness, the edges of its search tree's paths
# to its targets.
EXACT_COUNTERS_PINNED = {
    ("decoupled", False, 0): (3, 137),
    ("decoupled", False, 1): (1, 176),
    ("coupled", False, 0): (39, 217),
    ("coupled", False, 1): (44, 297),
    ("unit-length", False, 0): (4, 82),
    ("unit-length", False, 1): (6, 411),
    ("basic", False, 0): (131, 884),
    ("basic", False, 1): (74, 972),
    ("anti-correlated", False, 0): (2, 173),
    ("anti-correlated", False, 1): (26, 327),
    ("geometric", False, 0): (30, 94),
    ("geometric", False, 1): (4, 24),
    ("decoupled", True, 0): (1, 44),
    ("decoupled", True, 1): (13, 102),
    ("coupled", True, 0): (28, 308),
    ("coupled", True, 1): (19, 350),
    ("unit-length", True, 0): (4, 255),
    ("unit-length", True, 1): (23, 497),
    ("anti-correlated", True, 0): (4, 82),
    ("anti-correlated", True, 1): (1, 61),
}


@pytest.mark.parametrize("family,directed,seed", sorted(EXACT_COUNTERS_PINNED))
def test_exact_search_counters_pinned(family, directed, seed):
    assert EXACT_COUNTERS_PINNED.keys() == EXACT_PINNED.keys()
    n, m = (6, 10) if directed else (6, 0) if family == "geometric" else (8, 16)
    inst = random_instance(family, n, m, seed, demand_family="freeform", demand_pairs="random",
                           num_demands=8, directed=directed)
    result = exact_optimum(inst)
    assert (result.bound_prunes, result.witness_skips) == EXACT_COUNTERS_PINNED[family, directed, seed]


# (weight, sorted edge set, most nodes) of exact_optimum on the coupled
# integer-length instance random_instance("coupled", 14, 22, seed,
# demand_family="freeform", demand_pairs="random", num_demands=8,
# integer_lengths=True).  Weights and edge sets were recorded before the
# connectivity bound, when the searches took 2,492 / 2,891 / 4,019 nodes.
EXACT_BEYOND_THE_SUITE = {
    0: ("17", (2, 4, 5, 6, 8, 10, 11, 13, 14, 15, 17, 18, 19), 594),
    1: ("15", (1, 3, 4, 7, 8, 10, 16, 19), 400),
    2: ("22", (2, 5, 6, 7, 8, 9, 10, 11, 17, 19), 571),
}


@pytest.mark.parametrize("seed", sorted(EXACT_BEYOND_THE_SUITE))
def test_exact_connectivity_bound_prunes_larger_searches(seed):
    inst = random_instance("coupled", 14, 22, seed, demand_family="freeform",
                           demand_pairs="random", num_demands=8, integer_lengths=True)
    result = exact_optimum(inst)
    weight, edges, most = EXACT_BEYOND_THE_SUITE[seed]
    assert (result.weight, result.edge_tuple()) == (Fraction(weight), edges)
    assert result.nodes_explored <= most
    assert 0 < result.bound_prunes < result.nodes_explored


def test_exact_search_counts_repeat():
    inst = random_instance("coupled", 8, 16, 1, demand_family="freeform", demand_pairs="random",
                           num_demands=8)
    counts = [
        (r.nodes_explored, r.bound_prunes, r.witness_skips)
        for r in (exact_optimum(inst), exact_optimum(inst),
                  exact_optimum(pickle.loads(pickle.dumps(inst))))
    ]
    assert counts[0] == counts[1] == counts[2]
    assert counts[0] == (169, 44, 297)


def test_exact_searches_run_on_the_envelope_view_in_edge_order(monkeypatch):
    # Every search must see the lists a fresh view of the envelope would have, arc order included.
    inst = random_instance("unit-length", 8, 16, 1, demand_family="freeform",
                           demand_pairs="random", num_demands=8)
    scaled = inst.scaled
    envelopes = []

    def checked(view, source, **kwargs):
        envelope = {e for arcs in view for _, _, e in arcs}
        assert view == graph_view(scaled, edge_subset=envelope)
        envelopes.append(len(envelope))
        return shortest_distances(view, source, **kwargs)

    monkeypatch.setattr(graph_module, "shortest_distances", checked)
    exact_optimum(inst)
    assert min(envelopes) < inst.m - 1  # searches ran with several edges excluded


# ---------------------------------------------------------------------------
# Ascending cuts


def test_cut_count_identity_example5():
    inst = example5()
    opt = Subgraph(inst, frozenset({1, 2}))
    for index, expected in enumerate((5, 4, 4)):
        cuts = list(enumerate_ascending_cuts(opt, index))
        assert len(cuts) == expected == ascending_cut_count(3, inst.demands[index].delta)


def test_fig2_labeling_satisfied():
    inst = example5()
    opt = Subgraph(inst, frozenset({1, 2}))
    found = False
    for labeling, satisfied in enumerate_ascending_cuts(opt, 0):  # (a, b, 3)
        assert labeling.labels[0] == 0 and labeling.labels[1] == 4
        if labeling.labels == (0, 4, 2):
            assert satisfied  # crossed by the arc c_2 -> b_3
            found = True
    assert found


def test_two_node_instance_single_cut():
    inst = SpannerInstance(
        True, 2, (Edge(0, 1, Fraction(1), Fraction(1)),), (Demand(0, 1, Fraction(1)),)
    )
    cuts = list(enumerate_ascending_cuts(Subgraph(inst, frozenset({0})), 0))
    assert len(cuts) == 1
    assert cuts[0][1]


def test_empty_subgraph_has_unsatisfied_cut():
    inst = example5()
    cuts = list(enumerate_ascending_cuts(Subgraph(inst, frozenset()), 0))
    assert not any(sat for _, sat in cuts)


def test_cut_cap_enforced():
    inst = random_instance("basic", 10, 15, 2, demand_family="multiplicative", alpha=3)
    sub = Subgraph(inst, frozenset(range(inst.m)))
    with pytest.raises(TooManyCuts):
        list(enumerate_ascending_cuts(sub, 0, cap=100))


def test_cut_lemma_example5_optimum():
    report = check_cut_lemma(Subgraph(example5(), frozenset({1, 2})))
    assert report.ok
    assert all(p.all_satisfied and p.within_budget for p in report.pairs)


def test_cut_lemma_complete_feasible_subgraph():
    inst = example5()
    report = check_cut_lemma(Subgraph(inst, frozenset(range(inst.m))))
    assert all(p.satisfied_count == p.cut_count for p in report.pairs)


def test_cut_lemma_builds_the_subgraphs_view_once(monkeypatch):
    # one view serves every pair's cut enumeration and distance
    views = []
    build = oracles.graph_view

    def counting(of, **kwargs):
        views.append(of)
        return build(of, **kwargs)

    monkeypatch.setattr(oracles, "graph_view", counting)
    inst = example5()
    assert check_cut_lemma(Subgraph(inst, frozenset(range(inst.m)))).ok
    assert len(views) == 1


def test_cut_lemma_missing_edge():
    inst = example5()
    report = check_cut_lemma(Subgraph(inst, frozenset({1})))  # drop (c,b)
    by_pair = {(p.u, p.v): p for p in report.pairs}
    assert not by_pair[(2, 1)].all_satisfied and not by_pair[(2, 1)].within_budget
    assert not by_pair[(0, 1)].all_satisfied and not by_pair[(0, 1)].within_budget
    assert by_pair[(0, 2)].all_satisfied and by_pair[(0, 2)].within_budget


def test_cut_lemma_biconditional_random_samples():
    rng = random.Random(3)
    checked = 0
    for trial in range(100):
        n = rng.randint(3, 4)
        inst = random_instance(
            "decoupled",
            n,
            rng.randint(n, n + 3),
            trial * 17 + 1,
            demand_family="freeform",
            demand_pairs="random",
            num_demands=2,
            integer_lengths=True,
            max_length=2,
        )
        subset = frozenset(i for i in range(inst.m) if rng.random() < 0.55)
        report = check_cut_lemma(Subgraph(inst, subset), seed=trial)
        assert report.ok
        checked += len(report.pairs)
    assert checked >= 100


# ---------------------------------------------------------------------------
# Restricted subgraph


def test_restricted_path_graph():
    edges = (Edge(0, 1, Fraction(1), Fraction(1)), Edge(1, 2, Fraction(1), Fraction(1)))
    inst = SpannerInstance(False, 3, edges, (Demand(0, 2, Fraction(2)),))
    nodes, edge_ids = restricted_subgraph(inst, 0)
    assert nodes == frozenset({0, 1, 2})
    assert edge_ids == frozenset({0, 1})


def test_restricted_example5_pair_ac():
    nodes, edge_ids = restricted_subgraph(example5(), 1)  # (a, c, 2)
    assert nodes == frozenset({0, 2})
    assert edge_ids == frozenset({1})  # only (a,c); the a->b branch is a dead end


def test_restricted_tight_budget_is_union_of_shortest_paths():
    inst = random_instance("basic", 6, 10, 44)
    view = graph_view(inst)
    d02 = shortest_distances(view, 0)[2]
    nodes, edge_ids = restricted_subgraph(replace(inst, demands=(Demand(0, 2, d02),)), 0)
    dist_from = shortest_distances(view, 0)
    dist_to = shortest_distances(graph_view(inst, reverse=True), 2)
    expected = {z for z in range(inst.n) if dist_from[z] + dist_to[z] == d02}
    assert nodes == frozenset(expected)


def test_restricted_subgraph_soundness():
    # Feasibility of a pair depends only on the edges inside its region.
    rng = random.Random(5)
    for trial in range(60):
        inst = random_instance(
            "decoupled",
            rng.randint(4, 7),
            rng.randint(5, 11),
            trial * 13 + 3,
            demand_family="freeform",
            demand_pairs="random",
            num_demands=2,
            integer_lengths=True,
        )
        d = inst.demands[0]
        _, region = restricted_subgraph(inst, 0)
        subset = frozenset(i for i in range(inst.m) if rng.random() < 0.5)
        outside = [i for i in range(inst.m) if i not in region]
        toggled = subset.symmetric_difference(
            i for i in outside if rng.random() < 0.5
        )
        demand_only = replace(inst, demands=(Demand(d.u, d.v, d.delta),))
        verdict_a = verify_feasible(Subgraph(demand_only, subset)).feasible
        verdict_b = verify_feasible(Subgraph(demand_only, subset & region)).feasible
        verdict_c = verify_feasible(Subgraph(demand_only, toggled)).feasible
        assert verdict_a == verdict_b
        assert (toggled & region) != (subset & region) or verdict_a == verdict_c


# ---------------------------------------------------------------------------
# Subdivision counterexample demo


def test_demo_default_is_infeasible_with_original_opt_one():
    report = dodis_khanna_demo()
    assert report.original_optimum == Fraction(1)
    assert not report.transformed_reachable
    assert report.lp_status == "infeasible"
    assert "no s+_0 -> t+_2 path" in report.to_text()


def test_demo_alpha3_control_feasible():
    report = dodis_khanna_demo(alpha=3)
    assert report.transformed_reachable
    assert report.lp_status == "optimal"


def test_demo_unit_length_edge_feasible():
    report = dodis_khanna_demo(edge_length=1, alpha=2)
    assert report.transformed_reachable


# (edge length L, alpha) -> (arcs of the alpha-extension, the printed s+_0 -> t+_alpha
# path or None when unreachable), recorded while the demo found the path by a BFS
# over the extension's arcs.
DEMO_PINNED = {
    (1, 1): (3, "s+_0 -> t+_1"),
    (1, 2): (6, "s+_0 -> t+_1 -> t+_2"),
    (1, 3): (9, "s+_0 -> t+_1 -> t+_2 -> t+_3"),
    (1, 4): (12, "s+_0 -> t+_1 -> t+_2 -> t+_3 -> t+_4"),
    (2, 1): (5, None),
    (2, 2): (10, "s+_0 -> q1_1 -> t+_2"),
    (2, 3): (15, "s+_0 -> q1_1 -> t+_2 -> t+_3"),
    (2, 4): (20, "s+_0 -> q1_1 -> t+_2 -> t+_3 -> t+_4"),
    (2, 5): (25, "s+_0 -> q1_1 -> t+_2 -> t+_3 -> t+_4 -> t+_5"),
    (3, 2): (14, None),
    (3, 3): (21, "s+_0 -> q1_1 -> q2_2 -> t+_3"),
    (3, 4): (28, "s+_0 -> q1_1 -> q2_2 -> t+_3 -> t+_4"),
    (3, 5): (35, "s+_0 -> q1_1 -> q2_2 -> t+_3 -> t+_4 -> t+_5"),
    (3, 6): (42, "s+_0 -> q1_1 -> q2_2 -> t+_3 -> t+_4 -> t+_5 -> t+_6"),
    (4, 3): (27, None),
    (4, 4): (36, "s+_0 -> q1_1 -> q2_2 -> q3_3 -> t+_4"),
    (4, 5): (45, "s+_0 -> q1_1 -> q2_2 -> q3_3 -> t+_4 -> t+_5"),
    (4, 6): (54, "s+_0 -> q1_1 -> q2_2 -> q3_3 -> t+_4 -> t+_5 -> t+_6"),
    (4, 7): (63, "s+_0 -> q1_1 -> q2_2 -> q3_3 -> t+_4 -> t+_5 -> t+_6 -> t+_7"),
}


@pytest.mark.parametrize("length, alpha", sorted(DEMO_PINNED))
def test_demo_narrative_pinned(length, alpha):
    arcs, path = DEMO_PINNED[(length, alpha)]
    report = dodis_khanna_demo(length, alpha)
    weights = ["0"] * (length - 1) + ["1"]
    assert report.narrative == [
        f"original: single edge s->t, weight 1, length {length}, "
        f"stretch bound {alpha} x {length} = {alpha * length}",
        "original optimum weight: 1 (the edge itself)",
        f"transform: unit-length path of {length} arcs, weights {weights}, "
        f"demand {alpha} between endpoint copies",
        f"{alpha}-extension of the transformed graph: {(length + 1) * (alpha + 1)} nodes, {arcs} arcs",
        f"feasible: path {path}" if path else f"infeasible: no s+_0 -> t+_{alpha} path exists",
        f"flow-model status: {'optimal' if path else 'infeasible'}",
    ]
    assert report.transformed_reachable == (path is not None)


def test_demo_json_round_trip():
    import json

    doc = json.loads(dodis_khanna_demo().to_json())
    assert doc["transformed_reachable"] is False
    assert doc["original_optimum"] == "1"


# ---------------------------------------------------------------------------
# Potential monitor


def _additive_instance(n, m, seed, beta):
    return random_instance(
        "basic", n, m, seed, demand_family="additive", demand_pairs="all", beta=beta
    )


def test_monitor_accepts_clean_run():
    inst = _additive_instance(10, 18, 1, 2)
    trace = []
    augmented_greedy(inst, mst_lift=True, trace=trace)
    report = potential_monitor(inst, trace, 2)
    assert report.max_delta_potential <= 0
    assert report.final_size == sum(len(s.new_edges) for s in trace)


def test_monitor_skipped_steps_change_nothing():
    inst = _additive_instance(8, 16, 2, 2)
    trace = []
    augmented_greedy(inst, mst_lift=True, trace=trace)
    report = potential_monitor(inst, trace, 2)
    for step in report.steps:
        if not step.executed:
            assert step.delta_degree_cost == 0
            assert step.delta_slack == 0
            assert step.delta_potential == 0


def test_monitor_requires_unit_lengths():
    inst = random_instance(
        "decoupled", 6, 9, 3, demand_family="additive", demand_pairs="all", beta=2
    )
    with pytest.raises(SpannerError):
        potential_monitor(inst, [], 2)


def test_monitor_requires_all_pairs_demands():
    inst = random_instance("basic", 6, 9, 4, demand_family="additive",
                           demand_pairs="edges", beta=2)
    with pytest.raises(SpannerError):
        potential_monitor(inst, [], 2)


def test_monitor_requires_beta_at_least_two():
    inst = _additive_instance(6, 9, 5, 2)
    with pytest.raises(SpannerError):
        potential_monitor(inst, [], 1)


def test_monitor_random_instances_never_increase():
    rng = random.Random(9)
    for trial in range(10):
        beta = 2 if trial % 2 else 3
        inst = _additive_instance(rng.randint(8, 14), rng.randint(12, 26), 100 + trial, beta)
        trace = []
        augmented_greedy(inst, mst_lift=True, trace=trace)
        report = potential_monitor(inst, trace, beta)
        assert report.max_delta_potential <= 0
