import hashlib
import math
import pickle
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from spannerkit import bench, graph, oracles
from spannerkit.errors import NonIntegerLength
from spannerkit.extension import build_extension
from spannerkit.generators import example5, random_instance
from spannerkit.graph import verify_feasible
from spannerkit.greedy import augmented_greedy, greedy
from spannerkit.instance import (
    Demand,
    Edge,
    SpannerInstance,
    Subgraph,
    require_integer_lengths,
    validate,
)
from spannerkit.mcf import build_mcf, solve_lp
from spannerkit.rounding import (
    derive_seed,
    gamma,
    round_solution,
    solve_randomized,
)


def test_gamma_example5_is_ln45():
    spec = gamma(example5())
    assert spec.mode == "global"
    assert abs(spec.value - math.log(45)) < 1e-12  # n=3, C=5, |K|=3
    assert spec.n == 3 and spec.num_pairs == 3


def test_gamma_two_nodes_cut_bound_is_one():
    inst = SpannerInstance(
        True, 2, (Edge(0, 1, Fraction(1), Fraction(1)),), (Demand(0, 1, Fraction(1)),)
    )
    spec = gamma(inst)
    assert spec.log_cut_bound == 0.0  # (delta+2)^0 = 1
    assert abs(spec.value - math.log(2 * 1)) < 1e-12


def test_gamma_restricted_on_path_graph():
    # demand along a 3-edge path: the reachable subgraph is the whole path
    edges = tuple(Edge(i, i + 1, Fraction(1), Fraction(1)) for i in range(3))
    inst = SpannerInstance(False, 4, edges, (Demand(0, 3, Fraction(3)),))
    spec = gamma(inst, "restricted")
    n_uv = 4  # path length + 1
    expected = math.log(4) + (n_uv - 2) * math.log(3 + 2) + math.log(1)
    assert abs(spec.value - expected) < 1e-12


def test_gamma_restricted_never_exceeds_global():
    rng = random.Random(6)
    for trial in range(30):
        inst = random_instance(
            "decoupled",
            rng.randint(3, 7),
            rng.randint(3, 10),
            4000 + trial,
            demand_family="freeform",
            demand_pairs="random",
            num_demands=3,
            integer_lengths=True,
        )
        assert gamma(inst, "restricted").value <= gamma(inst, "global").value + 1e-12


def test_restricted_gamma_builds_the_reversed_view_once(monkeypatch):
    inst = random_instance(
        "decoupled", 6, 10, 3, demand_family="freeform", demand_pairs="all",
        integer_lengths=True, directed=True,
    )
    reversed_views = []
    build = graph.graph_view

    def counting(of, **kwargs):
        if kwargs.get("reverse"):
            reversed_views.append(of)
        return build(of, **kwargs)

    monkeypatch.setattr(graph, "graph_view", counting)
    assert gamma(inst, "restricted").num_pairs > 1
    assert len(reversed_views) == 1


def test_gamma_custom_mode():
    inst = example5()
    relaxed = gamma(inst, "custom", confidence=2.0)
    restricted = gamma(inst, "restricted")
    assert abs((restricted.value - relaxed.value) - (math.log(3) - math.log(2))) < 1e-12
    for confidence in (None, 1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            gamma(inst, "custom", confidence=confidence)


def test_gamma_unknown_mode():
    with pytest.raises(ValueError):
        gamma(example5(), "fancy")


def test_round_edge_probability_extremes():
    inst = example5()
    sol = solve_lp(build_mcf(build_extension(inst)))
    spec = gamma(inst)
    for seed in range(50):
        run = round_solution(sol, spec, seed)
        # x*=0 -> never chosen; gamma*x >= 1 -> always chosen
        assert 0 not in run.chosen_edges
        assert {1, 2} <= set(run.chosen_edges)
        assert run.feasible
        assert run.weight == Fraction(2)


def test_failed_rounding_reports_the_instances_own_bound():
    # Integer lengths, fractional bound: the extension works with the floored
    # bound 3, but a violation must name the instance's 7/2.
    inst = SpannerInstance(
        True, 2, (Edge(0, 1, Fraction(5), Fraction(3)),), (Demand(0, 1, Fraction(7, 2)),)
    )
    sol = solve_lp(build_mcf(build_extension(inst)))
    run = round_solution(sol, replace(gamma(inst), value=0.0), 0)  # p = 0: nothing chosen
    assert not run.feasible and run.chosen_edges == () and run.weight == 0
    (violation,) = run.verdict.violations
    assert (violation.u, violation.v, violation.delta) == (0, 1, Fraction(7, 2))
    assert violation.achieved is None
    assert run.verdict.violations == verify_feasible(Subgraph(inst, frozenset())).violations


def test_rounding_reproducible_bit_for_bit():
    inst = example5()
    sol = solve_lp(build_mcf(build_extension(inst)))
    spec = gamma(inst)
    a = round_solution(sol, spec, 123)
    b = round_solution(sol, spec, 123)
    assert a.chosen_edges == b.chosen_edges
    assert a.weight == b.weight


def test_solve_randomized_example5_any_seed():
    for seed in (0, 1, 2, 99):
        sub, report = solve_randomized(example5(), seed=seed)
        assert report.feasible
        assert sub.weight == Fraction(2)
        assert sorted(sub.edge_set) == [1, 2]


def test_solve_randomized_empty_demands():
    inst = SpannerInstance(False, 2, (Edge(0, 1, Fraction(1), Fraction(1)),), ())
    sub, report = solve_randomized(inst, seed=5)
    assert report.feasible
    assert sub.edge_set == frozenset()


def test_demandless_instance_still_checks_mode_and_confidence():
    # Without demands gamma has nothing to bound, but a bad mode or
    # confidence is still an error, as it is with demands.
    inst = SpannerInstance(False, 2, (Edge(0, 1, Fraction(1), Fraction(1)),), ())
    with pytest.raises(ValueError, match="unknown gamma mode"):
        gamma(inst, "bogus")
    with pytest.raises(ValueError, match="confidence"):
        gamma(inst, "custom", confidence=math.inf)
    with pytest.raises(ValueError, match="unknown gamma mode"):
        solve_randomized(inst, mode="bogus")
    assert gamma(inst, "custom", confidence=2.0).value == 0.0


def test_solve_randomized_rejects_fractional_lengths():
    inst = SpannerInstance(
        False, 2, (Edge(0, 1, Fraction(1), Fraction(3, 2)),), (Demand(0, 1, Fraction(2)),)
    )
    with pytest.raises(NonIntegerLength):
        solve_randomized(inst)


def test_solve_randomized_deterministic_per_seed():
    inst = random_instance(
        "decoupled", 6, 9, 55, demand_family="freeform", demand_pairs="random",
        num_demands=3, integer_lengths=True,
    )
    sub1, rep1 = solve_randomized(inst, seed=17)
    sub2, rep2 = solve_randomized(inst, seed=17)
    assert sub1.edge_set == sub2.edge_set
    assert [r.chosen_edges for r in rep1.attempts] == [r.chosen_edges for r in rep2.attempts]


def test_lp_counters_repeat_across_reruns_and_stay_out_of_the_solve_info():
    # 4 of its 10 edge demands are implied by the others
    inst = random_instance("coupled", 6, 10, 706, demand_family="multiplicative", integer_lengths=True)
    _, report = solve_randomized(inst, seed=3)
    assert report.commodities == len(inst.metric) == 6
    assert report.gamma.num_pairs == len(inst.demands) == 10  # gamma keeps |K|
    for again in (inst, pickle.loads(pickle.dumps(inst)), replace(inst)):
        _, rerun = solve_randomized(again, seed=3)
        assert (rerun.commodities, rerun.lp_iterations) == (report.commodities, report.lp_iterations)
    _, info = bench.run_algorithm(inst, "randomized-rounding", config=bench.ExperimentConfig(), seed=3)
    assert set(info) == {"gamma", "attempts"}


def test_only_the_lp_builds_the_metric_pairs():
    inst = random_instance("coupled", 6, 10, 706, demand_family="multiplicative", integer_lengths=True)
    assert validate(inst).ok
    greedy(inst)
    sub, _ = augmented_greedy(inst)
    verify_feasible(sub)
    oracles.exact_optimum(inst)
    assert "metric" not in inst.__dict__
    solve_randomized(inst)
    assert "metric" in inst.__dict__


def test_solve_randomized_output_verified_feasible():
    rng = random.Random(8)
    for trial in range(15):
        inst = random_instance(
            "decoupled",
            rng.randint(4, 6),
            rng.randint(4, 8),
            6000 + trial,
            demand_family="freeform",
            demand_pairs="random",
            num_demands=2,
            integer_lengths=True,
        )
        sub, report = solve_randomized(inst, seed=trial)
        if report.feasible:
            assert verify_feasible(sub).feasible


def test_expected_weight_bound_over_many_seeds():
    # Mean realized weight stays within the gamma * LP bound (plus 3-sigma noise).
    inst = random_instance(
        "decoupled", 5, 8, 314, demand_family="freeform", demand_pairs="random",
        num_demands=3, integer_lengths=True,
    )
    sol = solve_lp(build_mcf(build_extension(inst)))
    spec = gamma(inst)
    trials = 500
    weights = [float(round_solution(sol, spec, seed).weight) for seed in range(trials)]
    mean = sum(weights) / trials
    bound = spec.value * sol.objective
    assert bound > 0
    normalized = [w / bound for w in weights]
    mu = sum(normalized) / trials
    sigma = math.sqrt(sum((x - mu) ** 2 for x in normalized) / (trials - 1))
    assert mu <= 1 + 3 * sigma / math.sqrt(trials)


def test_restricted_mode_keeps_feasibility_frequency():
    # The smaller restricted gamma must still hit the 1 - 1/n feasibility rate.
    z99_slack = 2.326 * math.sqrt((1 / 6) * (5 / 6) / 100)
    built = 0
    seed = 0
    while built < 5:
        seed += 1
        inst = random_instance(
            "decoupled", 6, 9, 5000 + seed, demand_family="freeform",
            demand_pairs="random", num_demands=3, integer_lengths=True,
            max_length=2,
        )
        require_integer_lengths(inst)
        if inst.delta_bar > 6:
            continue
        sol = solve_lp(build_mcf(build_extension(inst)))
        spec = gamma(inst, "restricted")
        infeasible = sum(
            not round_solution(sol, spec, 777_000 + t).feasible for t in range(100)
        )
        assert infeasible / 100 <= 1 / 6 + z99_slack
        built += 1


def test_custom_mode_half_confidence_wiring():
    inst = random_instance(
        "decoupled", 6, 9, 6001, demand_family="freeform", demand_pairs="random",
        num_demands=3, integer_lengths=True, max_length=2,
    )
    sub, report = solve_randomized(inst, mode="custom", confidence=2.0, seed=4)
    assert report.gamma.mode == "custom"
    assert report.gamma.confidence == 2.0
    if report.feasible:
        assert verify_feasible(sub).feasible


def test_derive_seed_stable():
    assert derive_seed(42, b"attempt", 0) == derive_seed(42, b"attempt", 0)
    assert derive_seed(42, b"attempt", 0) != derive_seed(42, b"attempt", 1)
    assert derive_seed(42, b"attempt", 0) != derive_seed(43, b"attempt", 0)


def keyed_draw(seed, e):
    """Edge e's draw under a seed, written out: blake2b of e keyed by the seed's low 64 bits, over 2**64."""
    key = (seed & (2**64 - 1)).to_bytes(8, "little")
    digest = hashlib.blake2b(e.to_bytes(8, "little"), digest_size=8, key=key).digest()
    return int.from_bytes(digest, "little") / 2**64


def test_edge_draws_are_the_keyed_hash_of_their_counter():
    rng = random.Random(5)
    for _ in range(2000):  # negative seeds and seeds past 2**64 too
        seed = rng.choice((rng.getrandbits(64), -rng.getrandbits(70), rng.getrandbits(80)))
        e = rng.getrandbits(rng.choice((4, 16, 63)))
        assert derive_seed(seed, b"", e) / 2**64 == keyed_draw(seed, e)
    inst = random_instance(
        "decoupled", 5, 8, 314, demand_family="freeform", demand_pairs="random",
        num_demands=3, integer_lengths=True,
    )
    sol = solve_lp(build_mcf(build_extension(inst)))
    spec = replace(gamma(inst), value=0.5)  # every edge the LP buys is a coin flip
    p = [min(1.0, spec.value * float(x)) for x in sol.x]
    assert 0.5 in p
    for seed in [*range(20), -3, 2**64 + 9]:
        run = round_solution(sol, spec, seed)
        assert run.chosen_edges == tuple(e for e in range(inst.m) if keyed_draw(seed, e) < p[e])


def test_max_attempts_validated():
    with pytest.raises(ValueError):
        solve_randomized(example5(), max_attempts=0)
