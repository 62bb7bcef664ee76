import hashlib
import json
import math
import random
from fractions import Fraction

from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize._highspy._core as highspy
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from conftest import brute_force_optimum
from test_graph import dominated_triangle
from lp_text import read_exported_lp, solve_exported
from spannerkit.errors import SolverFailure
from spannerkit.extension import build_extension
from spannerkit.generators import DEMAND_FAMILIES, DEMAND_PAIRS, WEIGHT_FAMILIES, example5, random_instance
from spannerkit.instance import (
    Demand,
    Edge,
    SpannerInstance,
    validate,
)
from spannerkit.mcf import McfModel, build_mcf, export_lp, solve_lp
from spannerkit.oracles import exact_optimum
from spannerkit.rounding import gamma, round_solution


def _example5_model():
    return build_mcf(build_extension(example5()))


def test_example5_model_counts():
    # Arcs of the 3-extension (edges a->b len 1, a->c len 2, c->b len 1):
    #   0-2 a_i->b_i+1, 3-4 a_i->c_i+2, 5-7 c_i->b_i+1, 8-16 self-arcs of a, b, c.
    # A pair keeps the arcs on some source-to-sink path:
    #   (a,b,3): a_0 -> b_3 keeps 0,1,2 (a->b), 3 (a_0->c_2), 7 (c_2->b_3),
    #            8,9 (a_0->a_2), 12,13 (b_1->b_3): 9 columns, 3 coupling rows
    #            (one per edge), 7 touched nodes a_0,a_1,a_2,b_1,b_2,b_3,c_2.
    #   (a,c,2): a_0 -> c_2 keeps 3 only: 1 column, 1 coupling row, 2 nodes.
    #   (c,b,2): c_0 -> b_2 keeps 5,6 (c->b), 12 (b_1->b_2), 14 (c_0->c_1):
    #            4 columns, 1 coupling row, 4 nodes c_0,c_1,b_1,b_2.
    model = _example5_model()
    assert model.num_flow_vars == 9 + 1 + 4
    assert model.num_edge_vars == 3
    assert model.num_vars == 17
    assert model.a_ub.shape[0] == 3 + 1 + 1
    assert model.a_eq.shape[0] == 7 + 2 + 4
    assert np.all(model.upper == 1.0)


def _closure(start, adjacency, endpoint):
    """Extension nodes reachable from ``start`` over the arc ids in ``adjacency``."""
    seen, stack = {start}, [start]
    while stack:
        for arc_id in adjacency[stack.pop()]:
            if endpoint[arc_id] not in seen:
                seen.add(endpoint[arc_id])
                stack.append(endpoint[arc_id])
    return seen


@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
def test_flow_columns_are_the_arcs_on_some_source_to_sink_path(directed):
    # Reference by brute force: an arc carries pair k's commodity exactly when
    # u_0 reaches its tail and its head reaches v_delta in the extension, at
    # layer floor(delta): the commodity's record keeps the instance's bound.
    for seed in range(10):
        inst = random_instance(
            "decoupled", 7, 12, 600 + seed, demand_family="freeform", demand_pairs="random",
            num_demands=4, integer_lengths=True, directed=directed,
        )
        ext = build_extension(inst)
        tails = [arc.tail for arc in ext.arcs]
        heads = [arc.head for arc in ext.arcs]
        out = [[] for _ in range(ext.node_count)]
        into = [[] for _ in range(ext.node_count)]
        for arc_id, (tail, head) in enumerate(zip(tails, heads)):
            out[tail].append(arc_id)
            into[head].append(arc_id)
        model = build_mcf(ext)
        for d, kept in zip(model.demands, model.flow_arcs):
            forward = _closure(ext.node_id(d.u, 0), out, heads)
            backward = _closure(ext.node_id(d.v, math.floor(d.delta)), into, tails)
            expected = [a for a in range(len(ext.arcs)) if tails[a] in forward and heads[a] in backward]
            assert list(kept) == expected, (seed, d)


def test_undirected_coupling_rows_double_up():
    inst = SpannerInstance(
        False,
        3,
        (Edge(0, 1, Fraction(1), Fraction(1)), Edge(1, 2, Fraction(2), Fraction(1))),
        (Demand(0, 2, Fraction(2)),),
    )
    model = build_mcf(build_extension(inst))
    # 0_0 -> 2_2 within budget 2 is only 0_0 -> 1_1 -> 2_2, so the pair keeps
    # one arc per edge, forward: 2 coupling rows (the full model would have
    # 2 * 1 * 2, two directions per edge) and 3 conservation rows.
    assert model.a_ub.shape[0] == 2
    assert model.a_eq.shape[0] == 3
    assert model.num_edge_vars == 2  # one shared variable per undirected edge


def test_empty_demands_zero_objective():
    inst = SpannerInstance(False, 2, (Edge(0, 1, Fraction(3), Fraction(1)),), ())
    model = build_mcf(build_extension(inst))
    sol = solve_lp(model)
    assert sol.objective == 0.0
    assert np.all(sol.x == 0.0)


def test_forced_edge_reaches_one():
    # only route for the single demand uses the one edge -> x = 1
    inst = SpannerInstance(
        True, 2, (Edge(0, 1, Fraction(7), Fraction(2)),), (Demand(0, 1, Fraction(2)),)
    )
    sol = solve_lp(build_mcf(build_extension(inst)))
    assert sol.x[0] == pytest.approx(1.0, abs=1e-9)
    assert sol.objective == pytest.approx(7.0, abs=1e-9)


def test_example5_lp_optimum_is_two():
    sol = solve_lp(_example5_model())
    assert sol.objective == pytest.approx(2.0, abs=1e-7)
    assert sol.x[1] == pytest.approx(1.0, abs=1e-7)
    assert sol.x[2] == pytest.approx(1.0, abs=1e-7)
    assert sol.x[0] == pytest.approx(0.0, abs=1e-7)
    assert sol.primal_residual < 1e-7


def test_solution_invariants_on_random_models():
    rng = random.Random(17)
    for trial in range(12):
        inst = random_instance(
            "decoupled",
            rng.randint(3, 5),
            rng.randint(3, 7),
            8000 + trial,
            demand_family="freeform",
            demand_pairs="random",
            num_demands=2,
            integer_lengths=True,
        )
        model = build_mcf(build_extension(inst))
        sol = solve_lp(model)
        weights = [float(e.weight) for e in inst.edges]
        recomputed = sum(w * x for w, x in zip(weights, sol.x))
        assert sol.objective == pytest.approx(recomputed, rel=1e-7, abs=1e-9)
        assert sol.primal_residual < 1e-7
        full = np.concatenate([sol.f.ravel(), sol.x])
        coupling = model.a_ub @ full - model.b_ub
        assert float(np.max(coupling, initial=0.0)) <= 1e-9


def test_lp_lower_bounds_exact_optimum():
    rng = random.Random(23)
    for trial in range(12):
        inst = random_instance(
            "decoupled",
            rng.randint(3, 5),
            rng.randint(3, 7),
            9000 + trial,
            demand_family="freeform",
            demand_pairs="random",
            num_demands=2,
            integer_lengths=True,
        )
        sol = solve_lp(build_mcf(build_extension(inst)))
        opt_weight, _ = brute_force_optimum(inst)
        assert sol.objective <= float(opt_weight) + 1e-6


# ---------------------------------------------------------------------------
# One commodity per metric pair


def test_dominated_pair_ships_no_commodity():
    # two commodities, and the LP does not buy the edge (0, 2)
    inst = dominated_triangle()
    model = build_mcf(build_extension(inst))
    assert inst.metric == (0, 2)
    assert model.demands == (inst.demands[0], inst.demands[2])
    assert len(model.flow_arcs) == 2
    assert solve_lp(model).objective == pytest.approx(2.0, abs=1e-9)


def _with_every_commodity(inst):
    """A fresh copy of ``inst`` whose cached metric pairs are all of its demands."""
    copy = replace(inst)
    copy.__dict__["metric"] = tuple(range(len(copy.demands)))  # the cached property's slot
    return copy


@st.composite
def lp_instances(draw):
    """Valid generated integer-length instances at n <= 8, with at most 15 edges for the exact search."""
    # geometric lengths stay fractional with integer_lengths, outside the LP's domain
    family = draw(st.sampled_from([f for f in WEIGHT_FAMILIES if f != "geometric"]))
    n = draw(st.integers(3, 8))
    pairs = draw(st.sampled_from(DEMAND_PAIRS))
    inst = random_instance(
        family,
        n,
        draw(st.integers(n - 1, min(15, n * (n - 1) // 2))),
        draw(st.integers(0, 2**16)),
        demand_family=draw(st.sampled_from(DEMAND_FAMILIES)),
        demand_pairs=pairs,
        num_demands=draw(st.integers(1, n * (n - 1) // 2)) if pairs == "random" else None,
        integer_lengths=True,
        directed=draw(st.booleans()),
    )
    assume(inst.demands and validate(inst).ok)
    return inst


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(lp_instances())
def test_metric_lp_lower_bounds_the_full_lp_and_opt(inst):
    solution = solve_lp(build_mcf(build_extension(inst)))
    assert solution.model.demands == tuple(inst.demands[i] for i in inst.metric)
    full = solve_lp(build_mcf(build_extension(_with_every_commodity(inst))))
    assert full.model.demands == inst.demands
    opt = float(exact_optimum(inst).weight)
    assert solution.objective <= full.objective + 1e-6
    assert full.objective <= opt + 1e-6
    # nothing chosen: the rounding is checked against every demand, dominated ones too
    run = round_solution(solution, replace(gamma(inst), value=0.0), 0)
    assert run.chosen_edges == ()
    assert [(v.u, v.v, v.delta) for v in run.verdict.violations] == [(d.u, d.v, d.delta) for d in inst.demands]


def test_coupled_all_pairs_n40_model_is_small():
    # `spannerkit gen coupled --n 40 --demand-pairs all --integer-lengths`: its
    # 780 pairs gave 902,797 flow columns, which HiGHS ran for over 9 minutes
    inst = random_instance(
        "coupled", 40, 80, 0, demand_family="multiplicative", demand_pairs="all", alpha=3,
        integer_lengths=True,
    )
    assert len(inst.demands) == 780
    model = build_mcf(build_extension(inst))
    assert model.num_flow_vars < 10**4
    assert len(model.demands) == len(inst.metric) < len(inst.demands)


def _unreachable_sink() -> McfModel:
    # demand wants distance 1 but the only edge has length 2
    inst = SpannerInstance(
        True, 2, (Edge(0, 1, Fraction(1), Fraction(2)),), (Demand(0, 1, Fraction(1)),)
    )
    return build_mcf(build_extension(inst))


def test_unreachable_sink_is_infeasible():
    with pytest.raises(SolverFailure) as info:
        solve_lp(_unreachable_sink())
    assert info.value.status == "infeasible"


# ---------------------------------------------------------------------------
# Export, read back with the reference reader in lp_text.py


def test_export_example5_column_count(tmp_path):
    model = _example5_model()
    path = tmp_path / "ex5.lp"
    export_lp(model, str(path))
    parsed = read_exported_lp(path)
    assert len(parsed.names) == 17  # counts derived in test_example5_model_counts
    assert parsed.a_ub.shape[0] == 5
    assert parsed.a_eq.shape[0] == 13


def test_export_reimport_external_solve_matches(tmp_path):
    model = _example5_model()
    direct = solve_lp(model)
    path = tmp_path / "ex5.lp"
    export_lp(model, str(path))
    objective = solve_exported(read_exported_lp(path))
    assert objective == pytest.approx(direct.objective, abs=1e-6)
    assert objective == pytest.approx(2.0, abs=1e-6)


def test_export_empty_model_header_only(tmp_path):
    inst = SpannerInstance(False, 1, (), ())
    model = build_mcf(build_extension(inst))
    path = tmp_path / "empty.lp"
    export_lp(model, str(path))
    text = path.read_text()
    for keyword in ("Minimize", "Subject To", "Bounds", "End"):
        assert keyword in text
    assert "f_" not in text and "x_" not in text


def test_export_random_model_round_trip(tmp_path):
    inst = random_instance(
        "decoupled", 4, 6, 77, demand_family="freeform", demand_pairs="random",
        num_demands=2, integer_lengths=True,
    )
    model = build_mcf(build_extension(inst))
    direct = solve_lp(model)
    path = tmp_path / "model.lp"
    export_lp(model, str(path))
    objective = solve_exported(read_exported_lp(path))
    assert objective == pytest.approx(direct.objective, abs=1e-6)


# First 16 hex digits of the sha256 of the export_lp text followed by the JSON
# of flow_arcs, keyed by (family, directed, demand family, demand pairs,
# seed), for random_instance(family, 6, 10, seed, integer_lengths=True, ...).
# Recorded while each pair's columns were sorted arc ids regrouped into
# coupling rows, before the extension stored its arcs as runs.  The keys at
# seeds 700, 703, 706, 715 and 724 have dominated pairs, and were recorded
# again when the model came to ship one commodity per metric pair only.
EXPORT_PINNED = {
    ("decoupled", False, "multiplicative", "edges", 700): "742a6f4eaad4bad2",
    ("decoupled", False, "additive", "all", 701): "b7232f9785a3956e",
    ("decoupled", False, "freeform", "random", 702): "a37fe8cab5baa84c",
    ("decoupled", True, "multiplicative", "edges", 703): "388ecf7d6279f6ac",
    ("decoupled", True, "additive", "all", 704): "cc8bba9e366277bb",
    ("decoupled", True, "freeform", "random", 705): "92068949e37b504f",
    ("coupled", False, "multiplicative", "edges", 706): "dc3c1ae2249282a8",
    ("coupled", False, "additive", "all", 707): "e355bfa050dcf802",
    ("coupled", False, "freeform", "random", 708): "252a271ca03249b3",
    ("coupled", True, "multiplicative", "edges", 709): "554db8eae722ab7c",
    ("coupled", True, "additive", "all", 710): "b50c7a8fe9bdba9b",
    ("coupled", True, "freeform", "random", 711): "6a6d830ae8f86d1d",
    ("unit-length", False, "multiplicative", "edges", 712): "802e23b86d97d1d9",
    ("unit-length", False, "additive", "all", 713): "c5af76526165e33d",
    ("unit-length", False, "freeform", "random", 714): "942e0a28ad22cd6b",
    ("unit-length", True, "multiplicative", "edges", 715): "c54c09262395a118",
    ("unit-length", True, "additive", "all", 716): "3d0419cbc9c58777",
    ("unit-length", True, "freeform", "random", 717): "53af4f5764d05a55",
    ("basic", False, "multiplicative", "edges", 718): "5b9757f2170df745",
    ("basic", False, "additive", "all", 719): "725371b84d54d39f",
    ("basic", False, "freeform", "random", 720): "0d302c0b2ed61c8d",
    ("basic", True, "multiplicative", "edges", 721): "1836ba95385b3cd9",
    ("basic", True, "additive", "all", 722): "f4350ef7755b9a52",
    ("basic", True, "freeform", "random", 723): "0245ce06c207d85c",
    ("anti-correlated", False, "multiplicative", "edges", 724): "1afdbcc86feb7f55",
    ("anti-correlated", False, "additive", "all", 725): "bbac961cd4a8d13c",
    ("anti-correlated", False, "freeform", "random", 726): "ffd39c274766ec08",
    ("anti-correlated", True, "multiplicative", "edges", 727): "b733a46a1d6e559a",
    ("anti-correlated", True, "additive", "all", 728): "a054a76a658eae76",
    ("anti-correlated", True, "freeform", "random", 729): "a1af3d65e36704d9",
}


@pytest.mark.parametrize("key", sorted(EXPORT_PINNED))
def test_export_bytes_pinned(tmp_path, key):
    family, directed, demand_family, pairs, seed = key
    inst = random_instance(
        family, 6, 10, seed, demand_family=demand_family, demand_pairs=pairs,
        integer_lengths=True, directed=directed,
    )
    model = build_mcf(build_extension(inst))
    path = tmp_path / "model.lp"
    export_lp(model, str(path))
    text = path.read_text(encoding="utf-8") + json.dumps(model.flow_arcs)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == EXPORT_PINNED[key]


@pytest.mark.parametrize("key", sorted(EXPORT_PINNED))
def test_export_pins_ship_one_commodity_per_metric_pair(key):
    # so a pin moves only with the kept pairs
    family, directed, demand_family, pairs, seed = key
    inst = random_instance(
        family, 6, 10, seed, demand_family=demand_family, demand_pairs=pairs,
        integer_lengths=True, directed=directed,
    )
    model = build_mcf(build_extension(inst))
    assert len(model.flow_arcs) == len(model.demands) == len(inst.metric)


@pytest.mark.parametrize("key", sorted(EXPORT_PINNED))
def test_export_reads_back(tmp_path, key):
    family, directed, demand_family, pairs, seed = key
    inst = random_instance(
        family, 6, 10, seed, demand_family=demand_family, demand_pairs=pairs,
        integer_lengths=True, directed=directed,
    )
    model = build_mcf(build_extension(inst))
    path = tmp_path / "model.lp"
    export_lp(model, str(path))
    parsed = read_exported_lp(path)  # columns in Bounds order, every lower bound 0
    assert parsed.names == model.var_names()
    close = dict(rtol=1e-11, atol=0)
    assert np.allclose(parsed.c, model.c, **close)
    assert np.allclose(parsed.a_ub.toarray(), model.a_ub.toarray(), **close)
    assert np.allclose(parsed.a_eq.toarray(), model.a_eq.toarray(), **close)
    assert np.allclose(parsed.b_ub, model.b_ub, **close)
    assert np.allclose(parsed.b_eq, model.b_eq, **close)
    assert np.array_equal(parsed.upper, model.upper)


def _hand_built(c, upper) -> McfModel:
    """A model with edge columns only and no rows, for statuses no spanner instance gives."""
    ext = build_extension(SpannerInstance(True, 1, (), ()))
    empty = np.zeros(0, dtype=np.int32)
    return McfModel(np.array(c), np.zeros(len(c) + 1, dtype=np.int32), empty, np.zeros(0), np.zeros(0), 0,
                    np.array(upper), extension=ext, demands=(), flow_arcs=(), num_edge_vars=len(c))


def _tied_square() -> McfModel:
    # 0 -> 3 within 2 over 0->1->3 or 0->2->3, all weight 1: every split of the
    # flow between the two paths is optimal, so two solves agree only if the
    # solver breaks the tie the same way each time.
    edges = tuple(Edge(u, v, Fraction(1), Fraction(1)) for u, v in ((0, 1), (1, 3), (0, 2), (2, 3)))
    inst = SpannerInstance(True, 4, edges, (Demand(0, 3, Fraction(2)),))
    return build_mcf(build_extension(inst))


@pytest.mark.parametrize(
    "make, expected",
    [(_tied_square, 2.0), (_unreachable_sink, "infeasible"),
     (lambda: _hand_built([-1.0], [np.inf]), "unbounded")],
    ids=["reruns", "infeasible", "unbounded"],
)
def test_solve_standard(make, expected):
    # solve_lp's HiGHS call: its statuses, and identical reruns at a tied optimum
    if isinstance(expected, str):
        with pytest.raises(SolverFailure) as info:
            solve_lp(make())
        assert info.value.status == expected
        return
    first = solve_lp(make())
    assert first.objective == pytest.approx(expected, abs=1e-9)
    for rerun in (solve_lp(first.model), solve_lp(make())):
        assert np.array_equal(first.x, rerun.x) and np.array_equal(first.f, rerun.f)
        assert (first.objective, first.iterations) == (rerun.objective, rerun.iterations)


def test_solver_exception_becomes_solver_failure():
    with pytest.raises(SolverFailure) as info:
        solve_lp(_hand_built([np.nan], [1.0]))
    assert info.value.status == "failed"
    assert "ValueError" in str(info.value)


# The SolverFailure status of each HiGHS model status but kOptimal: the table
# scipy's linprog(method="highs") applied, read through its status codes
# 1 (iteration limit), 2 (infeasible) and 3 (unbounded).  Any other status,
# kUnboundedOrInfeasible among them, is "failed".
LINPROG_FAILURES = {
    "kInfeasible": "infeasible",
    "kModelError": "infeasible",
    "kUnbounded": "unbounded",
    "kTimeLimit": "iteration_limit",
    "kIterationLimit": "iteration_limit",
}


@pytest.mark.parametrize("name", [name for name in highspy.HighsModelStatus.__members__ if name != "kOptimal"])
def test_each_highs_status_gives_linprogs_failure_status(monkeypatch, name):
    status = highspy.HighsModelStatus.__members__[name]

    class Reports(highspy._Highs):
        def run(self):
            return highspy.HighsStatus.kOk

        def getModelStatus(self):
            return status

    monkeypatch.setattr(highspy, "_Highs", Reports)
    with pytest.raises(SolverFailure) as info:
        solve_lp(_tied_square())
    assert info.value.status == LINPROG_FAILURES.get(name, "failed")


def test_a_model_highs_refuses_is_infeasible():
    # an upper bound of -inf: HiGHS will not load the model (kModelError)
    with pytest.raises(SolverFailure) as info:
        solve_lp(_hand_built([1.0], [-np.inf]))
    assert info.value.status == "infeasible"


@st.composite
def flow_instances(draw):
    """Small unvalidated instances with fractional weights; a demand may have no route at all."""
    directed = draw(st.booleans())
    n = draw(st.integers(2, 6))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=12, unique=True))
    edges = tuple(
        Edge(u, v, Fraction(draw(st.integers(1, 40)), draw(st.integers(1, 7))), Fraction(draw(st.integers(1, 3))))
        for u, v in chosen
    )
    wanted = draw(st.lists(st.sampled_from(chosen), min_size=1, max_size=4, unique=True))
    demands = tuple(Demand(u, v, Fraction(draw(st.integers(1, 9)))) for u, v in wanted)
    if draw(st.integers(0, 3)) == 0:  # node n has no edge, so this pair has no route
        demands += (Demand(0, n, Fraction(3)),)
        n += 1
    return SpannerInstance(directed, n, edges, demands)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(flow_instances(), st.randoms(use_true_random=False))
def test_the_matrix_is_canonical_csc(inst, rng):
    # HiGHS reads the arrays as they are, so they are the one canonical form of
    # the model's entries: what scipy's COO -> CSC conversion makes of them in any order.
    model = build_mcf(build_extension(inst))
    start, index, value = model.start, model.index, model.value
    assert (start.dtype, index.dtype, value.dtype) == (np.int32, np.int32, np.float64)
    assert start.shape == (model.num_vars + 1,) and index.shape == value.shape
    assert start[0] == 0 and np.all(np.diff(start) >= 0) and start[-1] == len(index)
    for j in range(model.num_vars):
        assert np.all(np.diff(index[start[j] : start[j + 1]]) > 0), j
    cols = np.repeat(np.arange(model.num_vars, dtype=np.int32), np.diff(start))
    shuffled = list(range(len(index)))
    rng.shuffle(shuffled)
    a = sp.csc_array((value[shuffled], (index[shuffled], cols[shuffled])), shape=(len(model.b), model.num_vars))
    assert np.array_equal(a.indptr, start) and np.array_equal(a.indices, index)
    assert np.array_equal(a.data, value)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(flow_instances())
def test_solve_lp_is_linprog_bit_for_bit(inst):
    # The LP HiGHS is handed is the one linprog(method="highs") handed it from
    # the model's two blocks, so the answers agree to the bit.
    model = build_mcf(build_extension(inst))
    bounds = np.column_stack((np.zeros(model.num_vars), model.upper))
    res = linprog(model.c, A_ub=model.a_ub, b_ub=model.b_ub, A_eq=model.a_eq, b_eq=model.b_eq,
                  bounds=bounds, method="highs")
    expected = {0: "optimal", 1: "iteration_limit", 2: "infeasible", 3: "unbounded"}.get(res.status, "failed")
    try:
        solution = solve_lp(model)
    except SolverFailure as exc:
        assert exc.status == expected
        return
    assert expected == "optimal"
    num_flow = model.num_flow_vars
    x = np.clip(res.x[num_flow:], 0.0, 1.0) + 0.0
    assert np.array_equal(solution.f, res.x[:num_flow])
    assert np.array_equal(solution.x, x)
    assert solution.objective == float(model.c[num_flow:] @ x)
    assert solution.iterations == res.nit
