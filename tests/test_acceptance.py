"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v`` (the summary lines print
through the capture; add ``-s`` to see them inline).
"""

import json
import math
import random
import time
from fractions import Fraction

import pytest

# Criterion 1's clock times the solvers, not the LP stack's first import
# (numpy and scipy's HiGHS extension load on the first LP solve; importing
# scipy.optimize loads that extension too), so the stack is loaded here,
# before any timer starts.  That the import stays off the non-LP paths is
# pinned by test_cli.py's cold-start test and by CI.
import scipy.optimize  # noqa: F401

from spannerkit.cli import main as cli_main
from spannerkit.extension import build_extension
from spannerkit.generators import example5, nonmetric_triangle, random_instance
from spannerkit.graph import verify_feasible
from spannerkit.greedy import augmented_greedy, greedy
from spannerkit.instance import (
    Demand,
    SpannerInstance,
    Subgraph,
    require_integer_lengths,
    save,
)
from spannerkit.mcf import build_mcf, solve_lp
from spannerkit.oracles import (
    ascending_cut_count,
    check_cut_lemma,
    dodis_khanna_demo,
    exact_optimum,
    potential_monitor,
)
from spannerkit.rounding import gamma, round_solution, solve_randomized


def run_cli(args):
    try:
        return cli_main(args) or 0
    except SystemExit as exc:
        return exc.code or 0


@pytest.fixture
def report(capsys):
    def _print(criterion, message):
        with capsys.disabled():
            print(f"ACCEPTANCE {criterion}: PASS - {message}")

    return _print


def test_criterion_01_example5_exactness(tmp_path, report):
    t0 = time.perf_counter()
    inst_path = tmp_path / "ex5.json"
    save(example5(), str(inst_path))
    expected_edges = [[0, 2], [2, 1]]  # (a,c), (c,b)
    for algo in ("exact", "augmented-greedy", "randomized-rounding"):
        out = tmp_path / f"{algo}.json"
        assert run_cli(["solve", str(inst_path), "--algorithm", algo, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["weight"] == "2", f"{algo} weight {doc['weight']} != 2"
        assert sorted(doc["edges"]) == sorted(expected_edges)
    for seed in (1, 7, 123, 99991):
        sub, rrep = solve_randomized(example5(), seed=seed)
        assert rrep.feasible and sub.weight == Fraction(2)
        assert sorted(sub.edge_set) == [1, 2]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"
    report(1, f"all three solvers return weight 2 with edges (a,c),(c,b) [{elapsed:.2f}s]")


def test_criterion_02_triangle_exact_values(report):
    tri = nonmetric_triangle()
    result = exact_optimum(tri)
    assert result.weight == Fraction(3, 2)
    pairs = {(tri.edges[i].u, tri.edges[i].v) for i in result.edge_set}
    assert pairs == {(0, 1), (0, 2)}  # xy and the non-metric xz
    pruned = SpannerInstance(
        False,
        3,
        tuple(e for e in tri.edges if (e.u, e.v) != (0, 2)),
        tri.demands,
        tri.labels,
    )
    assert exact_optimum(pruned).weight == Fraction(2)
    report(2, "triangle optimum 3/2 via {xy,xz}; removing xz raises it to 2")


def test_criterion_03_ratio_bound_on_random_instances(report):
    t0 = time.perf_counter()
    rng = random.Random(2024)
    trials = 200
    for trial in range(trials):
        n = rng.randint(5, 8)
        m = rng.randint(n, min(16, n * (n - 1) // 2))
        inst = random_instance(
            "decoupled",
            n,
            m,
            trial * 7919 + 13,
            demand_family="freeform",
            demand_pairs="random",
            num_demands=rng.randint(2, 4),
            integer_lengths=bool(trial % 2),
            freeform_factor=2,
        )
        sub, agrep = augmented_greedy(inst)
        assert verify_feasible(sub).feasible
        assert sub.weight <= agrep.intermediate_bound  # w(H) <= |E[W*]| * W*
        opt = exact_optimum(inst)
        assert sub.weight <= inst.m * opt.weight, (
            f"trial {trial}: {sub.weight} > {inst.m} * {opt.weight}"
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s"
    report(3, f"weight <= m*OPT and <= |E[W*]|*W* on {trials} instances [{elapsed:.1f}s]")


def test_criterion_04_coupled_retention(report):
    t0 = time.perf_counter()
    rng = random.Random(41)
    mismatches = 0
    trials = 100
    for trial in range(trials):
        alpha = 3 if trial % 2 else 5
        n = rng.randint(6, 30)
        m = rng.randint(n, 2 * n)
        inst = random_instance(
            "coupled",
            n,
            m,
            trial * 104729 + 1,
            demand_family="multiplicative",
            demand_pairs="edges",
            alpha=alpha,
        )
        plain = greedy(inst)
        lifted, _ = augmented_greedy(inst, mst_lift=True)
        if plain.edge_set != lifted.edge_set:
            mismatches += 1
    assert mismatches == 0
    elapsed = time.perf_counter() - t0
    report(4, f"greedy == augmented-greedy on {trials} coupled instances [{elapsed:.1f}s]")


def test_criterion_05_lp_lower_bound(report):
    t0 = time.perf_counter()
    # Equality on the worked example.
    sol = solve_lp(build_mcf(build_extension(example5())))
    assert abs(sol.objective - 2.0) <= 1e-6
    # Relaxation bound on every instance the exact oracle handles here.
    rng = random.Random(55)
    count = 0
    trial = 0
    while count < 30:
        trial += 1
        inst = random_instance(
            "decoupled",
            rng.randint(4, 6),
            rng.randint(4, 9),
            trial * 271 + 5,
            demand_family="freeform",
            demand_pairs="random",
            num_demands=rng.randint(2, 3),
            integer_lengths=True,
            max_length=2,
            freeform_factor=2,
        )
        require_integer_lengths(inst)
        if inst.delta_bar > 8:
            continue
        lp = solve_lp(build_mcf(build_extension(inst)))
        opt = exact_optimum(inst)
        assert lp.objective <= float(opt.weight) + 1e-6, (
            f"LP {lp.objective} above OPT {float(opt.weight)}"
        )
        count += 1
    elapsed = time.perf_counter() - t0
    report(5, f"LP <= OPT on {count} instances; equality 2.0 on the worked example [{elapsed:.1f}s]")


def test_criterion_06_feasibility_frequency(report):
    t0 = time.perf_counter()
    n = 6
    attempts = 200
    z99 = 2.326  # one-sided 99% normal quantile
    p0 = 1.0 / n
    slack = z99 * math.sqrt(p0 * (1 - p0) / attempts)
    instances = 0
    seed_scan = 0
    worst_rate = 0.0
    while instances < 20:
        seed_scan += 1
        inst = random_instance(
            "decoupled",
            n,
            9,
            seed_scan * 7001 + 3,
            demand_family="freeform",
            demand_pairs="random",
            num_demands=3,
            integer_lengths=True,
            max_length=2,
            freeform_factor=2,
        )
        require_integer_lengths(inst)
        if inst.delta_bar > n or inst.delta_bar == 0:
            continue
        sol = solve_lp(build_mcf(build_extension(inst)))
        spec = gamma(inst, "global")
        infeasible = 0
        for t in range(attempts):
            run = round_solution(sol, spec, seed_scan * 100000 + t)
            infeasible += not run.feasible
        rate = infeasible / attempts
        worst_rate = max(worst_rate, rate)
        assert rate <= p0 + slack, f"instance seed {seed_scan}: rate {rate:.3f} > {p0 + slack:.3f}"
        instances += 1
    elapsed = time.perf_counter() - t0
    report(
        6,
        f"worst single-attempt infeasibility rate {worst_rate:.3f} <= "
        f"{p0 + slack:.3f} over {instances} instances x {attempts} seeds [{elapsed:.1f}s]",
    )


def test_criterion_07_cut_machinery(report):
    t0 = time.perf_counter()
    rng = random.Random(77)
    pairs_checked = 0
    samples = 0
    for trial in range(100):
        n = rng.randint(3, 4)
        inst = random_instance(
            "decoupled",
            n,
            rng.randint(n, n + 3),
            trial * 337 + 11,
            demand_family="freeform",
            demand_pairs="random",
            num_demands=2,
            integer_lengths=True,
            max_length=2,
        )
        subset = frozenset(i for i in range(inst.m) if rng.random() < 0.55)
        rep = check_cut_lemma(Subgraph(inst, subset), seed=trial)  # raises on violation
        assert rep.ok
        for p in rep.pairs:
            assert p.cut_count == ascending_cut_count(inst.n, p.delta)
        pairs_checked += len(rep.pairs)
        samples += rep.nonascending_sampled
    assert pairs_checked >= 100
    elapsed = time.perf_counter() - t0
    report(
        7,
        f"cut-count identity and biconditional on {pairs_checked} pairs; "
        f"{samples} non-ascending samples self-arc-satisfied [{elapsed:.1f}s]",
    )


def test_criterion_08_extension_structure(report):
    t0 = time.perf_counter()
    ext5 = build_extension(example5())
    assert ext5.node_count == 12 and len(ext5.arcs) == 17
    rng = random.Random(88)
    for trial in range(200):
        directed = bool(trial % 2)
        inst = random_instance(
            "decoupled",
            rng.randint(3, 8),
            rng.randint(3, 14),
            trial * 811 + 7,
            demand_family="freeform",
            demand_pairs="random",
            num_demands=3,
            integer_lengths=True,
            directed=directed,
        )
        ext = build_extension(inst)
        assert ext.node_count == inst.n * (ext.delta_bar + 1)
        m_directed = inst.m if directed else 2 * inst.m
        assert len(ext.arcs) <= (inst.n + m_directed) * ext.delta_bar
    elapsed = time.perf_counter() - t0
    report(8, f"|V|=n(d+1) exactly, |A|<=(n+m)d on 200 instances; worked example 12/17 [{elapsed:.1f}s]")


def test_criterion_09_subdivision_counterexample(report):
    broken = dodis_khanna_demo(edge_length=3, alpha=2)
    assert broken.original_optimum == Fraction(1)
    assert not broken.transformed_reachable
    assert broken.lp_status == "infeasible"
    control = dodis_khanna_demo(edge_length=3, alpha=3)
    assert control.transformed_reachable
    assert control.lp_status == "optimal"
    report(9, "transform infeasible at (len=3, alpha=2) with original OPT 1; alpha=3 control feasible")


def test_criterion_10_potential_monotonicity(report):
    t0 = time.perf_counter()
    rng = random.Random(1010)
    sizes = []
    runs = 0
    for trial in range(20):
        beta = 2 if trial % 2 else 3
        n = rng.choice([10, 14, 18, 22, 26, 30, 34, 38, 40, 12])
        m = rng.randint(2 * n, 3 * n)
        inst = random_instance(
            "unit-length",
            n,
            m,
            trial * 4099 + 17,
            demand_family="additive",
            demand_pairs="all",
            beta=beta,
        )
        trace = []
        sub, _ = augmented_greedy(inst, mst_lift=True, trace=trace)
        monitor = potential_monitor(inst, trace, beta)  # raises on any increase
        assert monitor.max_delta_potential <= 0
        sizes.append((inst.n, monitor.final_size, monitor.size_reference))
        runs += 1
    elapsed = time.perf_counter() - t0
    curve = "; ".join(f"n={n}: {size}/{ref:.0f}" for n, size, ref in sizes[:5])
    report(10, f"potential never increased over {runs} runs; size vs n^1.5 e.g. {curve} [{elapsed:.1f}s]")


def test_criterion_11_gamma_arithmetic(report):
    spec = gamma(example5())
    assert abs(spec.value - math.log(45)) <= 1e-12
    two_node = SpannerInstance(
        True,
        2,
        (example5().edges[0],),
        (Demand(0, 1, Fraction(2)),),
    )
    assert gamma(two_node).log_cut_bound == 0.0  # C = 1 when n = 2
    rng = random.Random(111)
    for trial in range(30):
        inst = random_instance(
            "decoupled",
            rng.randint(3, 7),
            rng.randint(3, 10),
            trial * 127 + 1,
            demand_family="freeform",
            demand_pairs="random",
            num_demands=3,
            integer_lengths=True,
        )
        assert gamma(inst, "restricted").value <= gamma(inst, "global").value + 1e-12
    report(11, "global gamma = ln 45 on the worked example; restricted <= global on 30 instances")


def test_criterion_12_determinism(tmp_path, report):
    inst_path = tmp_path / "inst.json"
    gen_args = [
        "gen", "decoupled", "--n", "6", "--m", "9", "--seed", "4",
        "--demands", "freeform", "--demand-pairs", "random", "--num-demands", "3",
        "--integer-lengths",
    ]
    assert run_cli(gen_args + ["--out", str(inst_path)]) == 0
    second = tmp_path / "inst2.json"
    assert run_cli(gen_args + ["--out", str(second)]) == 0
    assert inst_path.read_bytes() == second.read_bytes()

    basic_path = tmp_path / "basic.json"
    assert run_cli([
        "gen", "basic", "--n", "8", "--m", "14", "--demands", "additive",
        "--demand-pairs", "all", "--beta", "2", "--out", str(basic_path),
    ]) == 0

    commands = {
        "solve-greedy": ["solve", str(inst_path), "--algorithm", "greedy"],
        "solve-ag": ["solve", str(inst_path), "--algorithm", "augmented-greedy"],
        "solve-rr": ["solve", str(inst_path), "--algorithm", "randomized-rounding", "--seed", "9"],
        "solve-exact": ["solve", str(inst_path), "--algorithm", "exact"],
        "oracle-exact": ["oracle", "exact", str(inst_path)],
        "oracle-cuts": ["oracle", "cuts", str(inst_path)],
        "oracle-demo": ["oracle", "demo", "--format", "json"],
        "oracle-potential": ["oracle", "potential", str(basic_path), "--beta", "2",
                             "--mst-lift", "--format", "json"],
        "export-lp": ["export-lp", str(inst_path)],
    }
    for name, args in commands.items():
        outputs = []
        for run in range(2):
            out = tmp_path / f"{name}-{run}.out"
            full = args + ["--out", str(out)]
            assert run_cli(full) == 0, f"{name} failed"
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], f"{name} output differs between reruns"
    report(12, f"{len(commands)} solver/oracle commands byte-identical across reruns")
