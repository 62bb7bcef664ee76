import gc
import importlib
import json
import math
import os
import pickle
import tempfile
import weakref
from dataclasses import fields, replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import bellman_ford, fraction_view
from spannerkit.errors import NonIntegerLength, ParseError
from spannerkit.generators import (
    DEMAND_FAMILIES,
    DEMAND_PAIRS,
    WEIGHT_FAMILIES,
    example5,
    random_instance,
)
from spannerkit.graph import graph_view, shortest_distances
from spannerkit.greedy import augmented_greedy
from spannerkit.instance import (
    MAX_NODES,
    Demand,
    Edge,
    SpannerInstance,
    Subgraph,
    from_json_dict,
    load,
    require_integer_lengths,
    save,
    to_json_dict,
    validate,
)
from spannerkit.oracles import check_cut_lemma, enumerate_ascending_cuts, exact_optimum, restricted_subgraph
from spannerkit.rounding import gamma, solve_randomized
from test_int_core import instances


def test_example5_is_valid():
    assert validate(example5()).ok


def test_self_loop_flagged():
    inst = SpannerInstance(
        True, 2, (Edge(0, 0, Fraction(1), Fraction(1)), Edge(0, 1, Fraction(1), Fraction(1))), ()
    )
    assert "self-loop" in validate(inst).codes()


def test_unsatisfiable_demand_flagged():
    # delta(u,v)=1 but d_G(u,v)=2: no subgraph can beat the graph's own distance
    inst = SpannerInstance(
        False,
        3,
        (Edge(0, 1, Fraction(1), Fraction(1)), Edge(1, 2, Fraction(1), Fraction(1))),
        (Demand(0, 2, Fraction(1)),),
    )
    assert "unsatisfiable-demand" in validate(inst).codes()


def test_duplicate_edge_and_demand_flagged():
    inst = SpannerInstance(
        False,
        2,
        (Edge(0, 1, Fraction(1), Fraction(1)), Edge(1, 0, Fraction(2), Fraction(1))),
        (Demand(0, 1, Fraction(1)), Demand(1, 0, Fraction(1))),
    )
    codes = validate(inst).codes()
    assert "duplicate-edge" in codes
    assert "duplicate-demand" in codes


def test_disconnected_undirected_flagged():
    inst = SpannerInstance(
        False, 4, (Edge(0, 1, Fraction(1), Fraction(1)), Edge(2, 3, Fraction(1), Fraction(1))), ()
    )
    assert "not-connected" in validate(inst).codes()


def test_directed_needs_demand_reachability_not_weak_connectivity():
    # u <- v edge only; demand u -> v is unsatisfiable even though weakly connected
    inst = SpannerInstance(
        True, 2, (Edge(1, 0, Fraction(1), Fraction(1)),), (Demand(0, 1, Fraction(5)),)
    )
    assert "unsatisfiable-demand" in validate(inst).codes()


def test_oversized_demand_flagged():
    inst = SpannerInstance(
        False, 2, (Edge(0, 1, Fraction(1), Fraction(1)),), (Demand(0, 1, Fraction(100)),)
    )
    assert "oversized-demand" in validate(inst).codes()


def test_save_load_round_trip(tmp_path):
    inst = example5()
    p = tmp_path / "ex5.json"
    save(inst, str(p))
    again = load(str(p))
    assert again == inst.canonical()
    # round-trip identity on canonical form: a second save is byte-identical
    p2 = tmp_path / "ex5b.json"
    save(again, str(p2))
    assert p.read_bytes() == p2.read_bytes()


def test_example5_file_contents(tmp_path):
    p = tmp_path / "ex5.json"
    save(example5(), str(p))
    doc = json.loads(p.read_text())
    by_pair = {(e["u"], e["v"]): e for e in doc["edges"]}
    assert by_pair[(0, 1)]["w"] == "5"  # w(a,b) = 5
    assert by_pair[(0, 2)]["len"] == "2"  # len(a,c) = 2
    deltas = {(d["u"], d["v"]): d["delta"] for d in doc["demands"]}
    assert deltas[(0, 1)] == "3"


def test_canonical_serialization_deterministic(tmp_path):
    # same instance with edges listed in a different order -> identical bytes
    inst = example5()
    shuffled = SpannerInstance(
        inst.directed, inst.n, tuple(reversed(inst.edges)), tuple(reversed(inst.demands)), inst.labels
    )
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save(inst, str(p1))
    save(shuffled, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_canonical_turns_python_ints_into_fractions(tmp_path):
    ints = SpannerInstance(False, 2, (Edge(1, 0, 3, 2),), (Demand(1, 0, 4),))
    fractions = SpannerInstance(
        False, 2, (Edge(0, 1, Fraction(3), Fraction(2)),), (Demand(0, 1, Fraction(4)),)
    )
    canonical = ints.canonical()
    (e,), (d,) = canonical.edges, canonical.demands
    assert (e.u, e.v, d.u, d.v) == (0, 1, 0, 1)
    assert all(type(x) is Fraction for x in (e.weight, e.length, d.delta))
    assert canonical == fractions.canonical()
    save(ints, str(tmp_path / "ints.json"))
    save(fractions, str(tmp_path / "fractions.json"))
    assert (tmp_path / "ints.json").read_bytes() == (tmp_path / "fractions.json").read_bytes()


def test_empty_demands_is_valid_and_greedy_returns_empty(tmp_path):
    from spannerkit.greedy import greedy

    inst = SpannerInstance(False, 2, (Edge(0, 1, Fraction(1), Fraction(1)),), ())
    assert validate(inst).ok
    p = tmp_path / "nok.json"
    save(inst, str(p))
    assert load(str(p)).demands == ()
    assert greedy(inst).edge_set == frozenset()


def test_zero_denominator_in_file_is_parse_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(
        json.dumps(
            {
                "directed": False,
                "n": 2,
                "edges": [{"u": 0, "v": 1, "w": "1/0", "len": "1"}],
                "demands": [],
            }
        )
    )
    with pytest.raises(ParseError):
        load(str(p))


def test_malformed_file_errors(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("not json at all {")
    with pytest.raises(ParseError):
        load(str(p))
    p.write_text(json.dumps({"directed": False, "n": 2}))
    with pytest.raises(ParseError):
        load(str(p))


@pytest.mark.parametrize("bad", [0.9, True, "1"])
@pytest.mark.parametrize("record, key", [("edges", "u"), ("edges", "v"), ("demands", "u"), ("demands", "v")])
def test_node_ids_must_be_integers(record, key, bad):
    doc = {
        "directed": False, "n": 2,
        "edges": [{"u": 0, "v": 1, "w": "1", "len": "1"}],
        "demands": [{"u": 0, "v": 1, "delta": "1"}],
    }
    doc[record][0][key] = bad
    with pytest.raises(ParseError) as info:
        from_json_dict(doc)
    assert info.value.field == f"{record}[0].{key}"


def _with_node_id(record, key, bad):
    """The valid path 0-1-2 with demand (0, 2), its first edge's or demand's ``key`` end set to ``bad``."""
    edges = [_e(0, 1, 1, 1), _e(1, 2, 1, 1)]
    demands = [_d(0, 2, 2)]
    records = edges if record == "edges" else demands
    records[0] = records[0]._replace(**{key: bad})
    return SpannerInstance(False, 3, tuple(edges), tuple(demands))


# Each in range by value, so only the id's type can reject it.
NON_INT_IDS = [2.0, True, "1"]


@pytest.mark.parametrize("bad", NON_INT_IDS)
@pytest.mark.parametrize("record, key", [("edges", "v"), ("demands", "u")])
def test_validate_reports_a_node_id_that_is_not_an_int(record, key, bad):
    inst = _with_node_id(record, key, bad)
    u, v = (0, bad) if key == "v" else (bad, 2)
    noun = record[:-1]
    assert [(x.code, x.message) for x in validate(inst).violations] == [
        ("bad-node-id", f"{noun} 0 endpoints ({u},{v}) outside [0,3)"),
    ]


@pytest.mark.parametrize("bad", NON_INT_IDS)
@pytest.mark.parametrize("record, key", [("edges", "u"), ("edges", "v"), ("demands", "u"), ("demands", "v")])
def test_save_refuses_a_node_id_that_is_not_an_int(tmp_path, record, key, bad):
    path = tmp_path / "inst.json"
    with pytest.raises(ParseError) as info:
        save(_with_node_id(record, key, bad), str(path))
    assert info.value.field == f"{record}[0].{key}"
    assert not path.exists()


@pytest.mark.parametrize("record,key", [("edges", "w"), ("edges", "len"), ("demands", "delta")])
def test_rational_fields_reject_json_booleans(record, key):
    doc = {
        "directed": False, "n": 2,
        "edges": [{"u": 0, "v": 1, "w": "1", "len": "1"}],
        "demands": [{"u": 0, "v": 1, "delta": "1"}],
    }
    doc[record][0][key] = True
    with pytest.raises(ParseError) as info:
        from_json_dict(doc)
    assert info.value.field == f"{record}[0].{key}"


@pytest.mark.parametrize(
    "key,bad", [("directed", "false"), ("directed", 0), ("directed", None),
                ("n", 2.9), ("n", True), ("n", "2"), ("n", 2.0)]
)
def test_header_is_not_coerced(key, bad):
    doc = {
        "directed": False, "n": 2,
        "edges": [{"u": 0, "v": 1, "w": "1", "len": "1"}],
        "demands": [{"u": 0, "v": 1, "delta": "1"}],
    }
    doc[key] = bad
    with pytest.raises(ParseError) as info:
        from_json_dict(doc)
    assert info.value.field == key


def test_labels_round_trip(tmp_path):
    inst = example5()
    p = tmp_path / "ex5.json"
    save(inst, str(p))
    again = load(str(p))
    assert again.labels == ("a", "b", "c")
    assert again.node_by_label("c") == 2


def test_require_integer_lengths_example5():
    inst = example5()
    require_integer_lengths(inst)
    assert inst.delta_bar == 3
    assert inst.lengths == (1, 2, 1)


def test_require_integer_lengths_floors_demands():
    inst = SpannerInstance(
        False,
        2,
        (Edge(0, 1, Fraction(1), Fraction(1)),),
        (Demand(0, 1, Fraction(5, 2)),),
    )
    require_integer_lengths(inst)
    assert inst.bounds == (2,)
    assert inst.demands[0].delta == Fraction(5, 2)  # the record keeps the instance's bound


def test_scaled_view_scales_lengths_and_floors_bounds():
    # lengths 1/2, 2/3, 3 -> scale 6; bound 7/4 -> floor(42/4) = 10
    inst = SpannerInstance(
        False,
        3,
        (
            Edge(0, 1, Fraction(1), Fraction(1, 2)),
            Edge(1, 2, Fraction(1), Fraction(2, 3)),
            Edge(0, 2, Fraction(1), Fraction(3)),
        ),
        (Demand(0, 2, Fraction(7, 4)), Demand(1, 2, Fraction(2, 3))),
    )
    lengths = inst.lengths
    assert lengths is inst.lengths  # built once per instance
    assert inst.scale == 6
    assert lengths == (3, 4, 18)
    assert inst.bounds == (10, 4)
    assert inst.demands[0].delta == Fraction(7, 4)  # the records keep the instance's own bounds
    assert inst.delta_bar == 10
    assert inst.unscale(7) == Fraction(7, 6) and inst.unscale(None) is None
    # (0,2): 7 <= 10 via node 1, i.e. 7/6 <= 7/4 in instance units
    assert shortest_distances(graph_view(inst), 0)[2] == 7
    assert bellman_ford(fraction_view(inst), 0)[2] == Fraction(7, 6)


def test_require_integer_lengths_is_the_scale_one_view():
    inst = example5()
    assert require_integer_lengths(inst) is None
    assert inst.scale == 1
    assert inst.lengths == tuple(e.length for e in inst.edges)


def test_require_integer_lengths_rejects_fractional_edge():
    inst = SpannerInstance(False, 2, (Edge(0, 1, Fraction(1), Fraction(3, 2)),), ())
    with pytest.raises(NonIntegerLength) as info:
        require_integer_lengths(inst)
    assert info.value.edge_index == 0


def test_a_solved_instance_is_freed_without_the_cycle_collector():
    # no cached field refers back to its instance: dropping the instance
    # frees it, with its cached searches, by reference counting
    gc.collect()
    gc.disable()
    try:
        inst = random_instance("decoupled", 8, 14, 1, demand_family="freeform", integer_lengths=True)
        assert validate(inst).ok
        augmented_greedy(inst)
        solve_randomized(inst)
        exact_optimum(inst)
        assert {"view", "reach", "metric"} <= set(vars(inst))
        ref = weakref.ref(inst)
        del inst
        assert ref() is None
    finally:
        gc.enable()


def test_validated_instances_have_satisfiable_demands():
    for seed in range(40):
        inst = random_instance(
            "decoupled", 7, 11, seed, demand_family="freeform", demand_pairs="random"
        )
        assert validate(inst).ok
        view = fraction_view(inst)
        for d in inst.demands:
            assert bellman_ford(view, d.u)[d.v] <= d.delta


def test_subgraph_weight_and_size():
    inst = example5()
    sub = Subgraph(inst, frozenset({1, 2}))
    assert sub.weight == Fraction(2)
    assert sub.size == 2


# ---------------------------------------------------------------------------
# Canonical round-trips

ROUND_TRIP = settings(max_examples=100, derandomize=True, deadline=None, database=None)


@st.composite
def generated_instances(draw):
    family = draw(st.sampled_from(WEIGHT_FAMILIES))
    n = draw(st.integers(1, 6 if family == "geometric" else 8))
    return random_instance(
        family, n, draw(st.integers(0, 14)), draw(st.integers(0, 10**6)),
        demand_family=draw(st.sampled_from(DEMAND_FAMILIES)),
        demand_pairs=draw(st.sampled_from(DEMAND_PAIRS)),
        integer_lengths=draw(st.booleans()),
        directed=draw(st.booleans()),
    )


@st.composite
def presented(draw, inner):
    """An instance as a caller may build it: maybe labelled, undirected ends in any order."""
    inst = draw(inner)
    labels = tuple(f"node-{i}" for i in range(inst.n)) if draw(st.booleans()) else None
    edges, demands = inst.edges, inst.demands
    if not inst.directed:
        edges = tuple(Edge(e.v, e.u, e.weight, e.length) if draw(st.booleans()) else e for e in edges)
        demands = tuple(Demand(d.v, d.u, d.delta) if draw(st.booleans()) else d for d in demands)
    return SpannerInstance(inst.directed, inst.n, edges, demands, labels)


def assert_canonical_round_trip(inst):
    doc = json.loads(json.dumps(to_json_dict(inst)))
    canonical = inst.canonical()
    assert from_json_dict(doc) == canonical
    assert canonical.canonical() == canonical


@ROUND_TRIP
@given(presented(generated_instances()))
def test_canonical_round_trip_on_generated_instances(inst):
    assert_canonical_round_trip(inst)


@ROUND_TRIP
@given(presented(instances()))
def test_canonical_round_trip_on_drawn_instances(inst):
    assert_canonical_round_trip(inst)


@ROUND_TRIP
@given(presented(instances()), st.randoms(use_true_random=False))
def test_shuffled_documents_load_canonical(inst, rng):
    doc = json.loads(json.dumps(to_json_dict(inst)))
    for key in ("edges", "demands"):
        rng.shuffle(doc[key])
        if not inst.directed:
            for record in doc[key]:
                if rng.random() < 0.5:
                    record["u"], record["v"] = record["v"], record["u"]
    assert from_json_dict(doc) == inst.canonical()


def test_canonical_document_is_returned_as_parsed(monkeypatch):
    doc = to_json_dict(random_instance("decoupled", 8, 14, 5, demand_family="freeform"))

    def rebuilt(self):
        raise AssertionError("a canonical document was put in canonical form again")

    monkeypatch.setattr(SpannerInstance, "canonical", rebuilt)
    inst = from_json_dict(doc)
    assert [(e.u, e.v) for e in inst.edges] == [(r["u"], r["v"]) for r in doc["edges"]]
    # each distinct string is parsed once: its records share one Fraction
    by_text = {}
    for record, e in zip(doc["edges"], inst.edges):
        assert by_text.setdefault(record["w"], e.weight) is e.weight


# Pieces of labels: json escapes the first four, and ensure_ascii the non-ASCII ones.
LABEL_PIECES = ['"', "\\", "\n", "\x07", "é", "☃", "a"]


@st.composite
def saved_instances(draw):
    """Instances as a caller may hand them to ``save``: records in any order, maybe no demand, odd labels."""
    n = draw(st.integers(1, 5))
    directed = draw(st.booleans())
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    rational = st.builds(Fraction, st.integers(-3, 40), st.integers(1, 6))
    ends = st.lists(st.sampled_from(pairs), max_size=8) if pairs else st.just([])  # n = 1 has no pair
    edges = tuple(Edge(u, v, draw(rational), draw(rational)) for u, v in draw(ends))
    demands = tuple(Demand(u, v, draw(rational)) for u, v in draw(ends))
    label = st.lists(st.sampled_from(LABEL_PIECES), max_size=3).map("".join)
    labels = draw(st.none() | st.lists(label, min_size=n, max_size=n).map(tuple))
    return SpannerInstance(directed, n, edges, demands, labels)


@ROUND_TRIP
@given(saved_instances())
@example(SpannerInstance(False, 1, (), ()))
@example(SpannerInstance(True, 2, (Edge(1, 0, Fraction(3), Fraction(2)),), (), ("", '"\\\n\x01é☃')))
def test_save_writes_jsons_indented_text_byte_for_byte(inst):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "inst.json")
        save(inst, path)
        with open(path, "rb") as fh:
            written = fh.read()
    assert written == (json.dumps(to_json_dict(inst), indent=2) + "\n").encode("utf-8")


@pytest.mark.parametrize(
    "record, i, key, bad, message",
    [
        ("edges", 1, "len", "1/0", "zero denominator in '1/0' (f.json, field 'edges[1].len')"),
        ("edges", 1, "w", "x", "malformed rational 'x' (f.json, field 'edges[1].w')"),
        ("edges", 1, "w", True, "expected rational string, got True (f.json, field 'edges[1].w')"),
        ("edges", 1, "w", 1.5, "expected rational string, got float (f.json, field 'edges[1].w')"),
        ("edges", 1, "w", [1], "expected rational string, got list (f.json, field 'edges[1].w')"),
        ("demands", 0, "delta", "1/2/3", "malformed rational '1/2/3' (f.json, field 'demands[0].delta')"),
        ("edges", 1, "u", "1", "node id must be an integer, got '1' (f.json, field 'edges[1].u')"),
        ("demands", 0, "v", 2.0, "node id must be an integer, got 2.0 (f.json, field 'demands[0].v')"),
        # i None: the bad value replaces the whole list
        ("edges", None, None, 5, "must be a list of records, got 5 (f.json, field 'edges')"),
        ("demands", None, None, None, "must be a list of records, got None (f.json, field 'demands')"),
        # a key outside the format, in the document or in a record, is named, not ignored
        ("labls", None, None, ["a", "b", "c"],
         "unknown key; the keys are directed, n, edges, demands, labels (f.json, field 'labls')"),
        ("edges", 1, "lenght", "2",
         "unknown key; the keys are u, v, w, len (f.json, field 'edges[1].lenght')"),
        ("demands", 0, "weight", "1",
         "unknown key; the keys are u, v, delta (f.json, field 'demands[0].weight')"),
    ],
)
def test_parse_errors_name_the_record_and_field(record, i, key, bad, message):
    # edge 0's strings parse first: a bad value after them is still named by its own field
    doc = {
        "directed": False, "n": 3,
        "edges": [{"u": 0, "v": 1, "w": "1/2", "len": "1"}, {"u": 1, "v": 2, "w": "1/2", "len": "1"}],
        "demands": [{"u": 0, "v": 2, "delta": "2"}],
    }
    if i is None:
        doc[record] = bad
    else:
        doc[record][i][key] = bad
    with pytest.raises(ParseError) as info:
        from_json_dict(doc, path="f.json")
    assert str(info.value) == message


def test_a_length_outside_the_rational_grammar_is_named():
    # int("1_0") is 10, but "1_0" is no rational string of the format
    doc = {
        "directed": False, "n": 2,
        "edges": [{"u": 0, "v": 1, "w": "1", "len": "1_0"}],
        "demands": [{"u": 0, "v": 1, "delta": "10"}],
    }
    with pytest.raises(ParseError) as info:
        from_json_dict(doc, path="f.json")
    assert str(info.value) == "malformed rational '1_0' (f.json, field 'edges[0].len')"


@pytest.mark.parametrize(
    "record, misspelled, key, message",
    [
        ("edges", "len", "lenght",
         "unknown key; the keys are u, v, w, len (f.json, field 'edges[0].lenght')"),
        ("demands", "delta", "detla",
         "unknown key; the keys are u, v, delta (f.json, field 'demands[0].detla')"),
        ("edges", "len", None, "malformed edge record 0 (f.json)"),
    ],
)
def test_a_misspelled_record_key_is_named(record, misspelled, key, message):
    # the record has its usual number of keys, one of them wrong; with none wrong it is just short
    doc = {
        "directed": False, "n": 2,
        "edges": [{"u": 0, "v": 1, "w": "1", "len": "1"}],
        "demands": [{"u": 0, "v": 1, "delta": "1"}],
    }
    value = doc[record][0].pop(misspelled)
    if key is not None:
        doc[record][0][key] = value
    with pytest.raises(ParseError) as info:
        from_json_dict(doc, path="f.json")
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# Whole validation reports: every code, message and their order


def _e(u, v, w, length):
    return Edge(u, v, Fraction(w), Fraction(length))


def _d(u, v, delta):
    return Demand(u, v, Fraction(delta))


REPORTS = {
    "no-nodes": (
        SpannerInstance(False, 0, (_e(0, 1, 1, 1),), (_d(0, 1, 1),), ("a",)),
        [("bad-node-count", "node count must be positive, got 0")],
    ),
    # past the cap nothing else is checked or built, labels and records included
    "too-many-nodes": (
        SpannerInstance(False, MAX_NODES + 1, (_e(0, 0, 1, 0),), (_d(0, 1, 1),), ("a",)),
        [("bad-node-count", "node count 1000001 is over the cap of 1000000")],
    ),
    # the first ten unreachable nodes by name, then a count of the rest
    "many-unreachable": (
        SpannerInstance(False, 14, (_e(0, 1, 1, 1),), (_d(0, 1, 1),)),
        [("not-connected", "nodes [2, 3, 4, 5, 6, 7, 8, 9, 10, 11] and 2 more unreachable from node 0")],
    ),
    # a bad id, a self-loop or a non-positive length stops validation before the distance checks
    "undirected-records": (
        SpannerInstance(
            False, 3,
            (_e(0, 3, 1, 1), _e(1, 1, 1, 1), _e(0, 1, -1, 1), _e(1, 0, 2, 1), _e(1, 2, 1, 0)),
            (_d(0, 5, 1), _d(2, 2, 1), _d(0, 1, 0), _d(1, 0, 2)),
            ("a", "b"),
        ),
        [
            ("bad-labels", "2 labels for 3 nodes"),
            ("bad-node-id", "edge 0 endpoints (0,3) outside [0,3)"),
            ("self-loop", "edge 1 is a self-loop at node 1"),
            ("negative-weight", "edge 2 has weight -1 < 0"),
            ("duplicate-edge", "edge 3 duplicates pair (0, 1)"),
            ("nonpositive-length", "edge 4 has length 0 <= 0"),
            ("bad-node-id", "demand 0 endpoints (0,5) outside [0,3)"),
            ("self-demand", "demand 1 pairs node 2 with itself"),
            ("nonpositive-demand", "demand 2 has bound 0 <= 0"),
            ("duplicate-demand", "demand 3 duplicates pair (0, 1)"),
        ],
    ),
    "directed-records": (
        SpannerInstance(
            True, 3,
            (_e(0, 1, 1, 1), _e(1, 0, 1, -2), _e(0, 1, 3, 1), _e(2, 2, 0, 1)),
            (_d(-1, 2, 1), _d(0, 1, Fraction(-1, 2)), _d(1, 0, 1), _d(0, 1, 1)),
        ),
        [
            ("nonpositive-length", "edge 1 has length -2 <= 0"),
            ("duplicate-edge", "edge 2 duplicates pair (0, 1)"),
            ("self-loop", "edge 3 is a self-loop at node 2"),
            ("bad-node-id", "demand 0 endpoints (-1,2) outside [0,3)"),
            ("nonpositive-demand", "demand 1 has bound -1/2 <= 0"),
            ("duplicate-demand", "demand 3 duplicates pair (0, 1)"),
        ],
    ),
    # the other record faults go on to the distance checks, each demand's two in demand order
    "directed-distances": (
        SpannerInstance(
            True, 3,
            (_e(0, 1, 1, 1), _e(1, 2, Fraction(1, 2), 1)),
            (_d(0, 2, 1), _d(2, 0, 1), _d(0, 1, 100), _d(0, 1, 7), _d(1, 1, 3), _d(1, 2, 0)),
            ("a", "b"),
        ),
        [
            ("bad-labels", "2 labels for 3 nodes"),
            ("duplicate-demand", "demand 3 duplicates pair (0, 1)"),
            ("self-demand", "demand 4 pairs node 1 with itself"),
            ("nonpositive-demand", "demand 5 has bound 0 <= 0"),
            ("unsatisfiable-demand", "demand (0,2) asks for 1 but the graph only achieves 2"),
            ("unsatisfiable-demand", "demand (2,0) asks for 1 but the graph only achieves unreachable"),
            ("oversized-demand",
             "demand (0,1) bound 100 exceeds n*max_length = 3; cap it there (same feasible set)"),
            ("oversized-demand",
             "demand (0,1) bound 7 exceeds n*max_length = 3; cap it there (same feasible set)"),
            ("unsatisfiable-demand", "demand (1,2) asks for 0 but the graph only achieves 1"),
        ],
    ),
    # scale 2, n * max_length = 4, scaled 8: 17/4 scales to 8 1/2, which floors to the cap and is
    # still oversized; 4 is exactly at the cap and is not
    "undirected-distances": (
        SpannerInstance(
            False, 4,
            (_e(0, 1, 2, Fraction(1, 2)), _e(1, 2, -1, 1)),
            (
                _d(0, 2, Fraction(17, 4)), _d(2, 0, 4), _d(0, 3, 1),
                _d(1, 2, Fraction(1, 2)), _d(0, 1, 4), _d(1, 0, Fraction(17, 4)),
            ),
        ),
        [
            ("negative-weight", "edge 1 has weight -1 < 0"),
            ("duplicate-demand", "demand 1 duplicates pair (0, 2)"),
            ("duplicate-demand", "demand 5 duplicates pair (0, 1)"),
            ("not-connected", "nodes [3] unreachable from node 0"),
            ("oversized-demand",
             "demand (0,2) bound 17/4 exceeds n*max_length = 4; cap it there (same feasible set)"),
            ("unsatisfiable-demand", "demand (0,3) asks for 1 but the graph only achieves unreachable"),
            ("unsatisfiable-demand", "demand (1,2) asks for 1/2 but the graph only achieves 1"),
            ("oversized-demand",
             "demand (1,0) bound 17/4 exceeds n*max_length = 4; cap it there (same feasible set)"),
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_validation_reports_are_pinned_whole(name):
    inst, expected = REPORTS[name]
    assert [(v.code, v.message) for v in validate(inst).violations] == expected


def test_every_validation_code_is_pinned():
    codes = {code for _, expected in REPORTS.values() for code, _ in expected}
    assert codes == {
        "bad-node-count", "bad-labels", "bad-node-id", "self-loop", "duplicate-edge",
        "negative-weight", "nonpositive-length", "self-demand", "duplicate-demand",
        "nonpositive-demand", "not-connected", "unsatisfiable-demand", "oversized-demand",
    }


# ---------------------------------------------------------------------------
# Validation against an independent walk

FAULTS = settings(max_examples=300, derandomize=True, deadline=None, database=None)
STOP_CODES = {"bad-node-id", "self-loop", "nonpositive-length"}  # each ends validation before distances
positive = st.builds(Fraction, st.integers(1, 12), st.integers(1, 4))
bounds = st.builds(Fraction, st.integers(1, 80), st.integers(1, 4))  # some past n * max_length
nonpositive = st.sampled_from([Fraction(0), Fraction(-1), Fraction(-1, 2)])


def _faulted(draw, u, v, n, faults):
    """Endpoints ``(u, v)`` after the drawn id faults: flipped, self-paired, out of range at either end."""
    if "flip" in faults:
        u, v = v, u
    if "self" in faults:
        v = u
    if "bad-id" in faults:
        ends = draw(st.sampled_from(["u", "v", "uv"]))
        out_of_range = st.sampled_from([-2, -1, n, n + 1])
        u = draw(out_of_range) if "u" in ends else u
        v = draw(out_of_range) if "v" in ends else v
    return u, v


@st.composite
def faulty_instances(draw):
    """A small instance with record faults: several per record, and repeats in either orientation."""
    n = draw(st.integers(2, 5))
    directed = draw(st.booleans())
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)]
    faulty = st.integers(0, 2).map(lambda k: k == 0)  # one record in three
    id_faults = ["bad-id", "self", "flip"]
    edge_faults = st.sets(st.sampled_from([*id_faults, "negative", "nonpositive"]), min_size=1, max_size=3)
    demand_faults = st.sets(st.sampled_from([*id_faults, "nonpositive"]), min_size=1, max_size=3)
    edges = []
    for u, v in draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=7, unique=True)):
        faults = draw(edge_faults) if draw(faulty) else ()
        weight = -draw(positive) if "negative" in faults else Fraction(draw(st.integers(0, 3)))
        length = draw(nonpositive) if "nonpositive" in faults else draw(positive)
        edges.append(Edge(*_faulted(draw, u, v, n, faults), weight, length))
    demands = []
    for u, v in draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=6, unique=True)):
        faults = draw(demand_faults) if draw(faulty) else ()
        delta = draw(nonpositive) if "nonpositive" in faults else draw(bounds)
        demands.append(Demand(*_faulted(draw, u, v, n, faults), delta))
    for records in (edges, demands):
        for _ in range(draw(st.integers(0, 3))):  # a repeat of a record's pair, maybe reversed
            repeat = draw(st.sampled_from(records))
            u, v = (repeat[1], repeat[0]) if draw(st.booleans()) else repeat[:2]
            values = (draw(positive), draw(positive)) if records is edges else (draw(bounds),)
            records.insert(draw(st.integers(0, len(records))), type(repeat)(u, v, *values))
    return SpannerInstance(directed, n, tuple(edges), tuple(demands))


def reference_violations(inst):
    """What ``validate`` reports: a plain loop over the records, then Floyd-Warshall on the lengths."""
    n, directed = inst.n, inst.directed
    out = []
    seen = []
    for i, (u, v, weight, length) in enumerate(inst.edges):
        if u < 0 or v < 0 or u >= n or v >= n:
            out.append(("bad-node-id", f"edge {i} endpoints ({u},{v}) outside [0,{n})"))
            continue
        if u == v:
            out.append(("self-loop", f"edge {i} is a self-loop at node {u}"))
        key = (u, v) if directed else (min(u, v), max(u, v))
        if key in seen:
            out.append(("duplicate-edge", f"edge {i} duplicates pair {key}"))
        seen.append(key)
        if weight < 0:
            out.append(("negative-weight", f"edge {i} has weight {weight} < 0"))
        if length <= 0:
            out.append(("nonpositive-length", f"edge {i} has length {length} <= 0"))
    seen = []
    for i, (u, v, delta) in enumerate(inst.demands):
        if u < 0 or v < 0 or u >= n or v >= n:
            out.append(("bad-node-id", f"demand {i} endpoints ({u},{v}) outside [0,{n})"))
            continue
        if u == v:
            out.append(("self-demand", f"demand {i} pairs node {u} with itself"))
            continue
        key = (u, v) if directed else (min(u, v), max(u, v))
        if key in seen:
            out.append(("duplicate-demand", f"demand {i} duplicates pair {key}"))
        seen.append(key)
        if delta <= 0:
            out.append(("nonpositive-demand", f"demand {i} has bound {delta} <= 0"))
    if any(code in STOP_CODES for code, _ in out):
        return out
    dist = [[Fraction(0) if a == b else None for b in range(n)] for a in range(n)]
    for u, v, _, length in inst.edges:
        for a, b in [(u, v)] if directed else [(u, v), (v, u)]:
            if dist[a][b] is None or length < dist[a][b]:
                dist[a][b] = length
    for k in range(n):
        for a in range(n):
            for b in range(n):
                if dist[a][k] is not None and dist[k][b] is not None:
                    if dist[a][b] is None or dist[a][k] + dist[k][b] < dist[a][b]:
                        dist[a][b] = dist[a][k] + dist[k][b]
    unreachable = [q for q in range(n) if dist[0][q] is None]
    if not directed and unreachable:
        out.append(("not-connected", f"nodes {unreachable} unreachable from node 0"))
    cap = n * max(e.length for e in inst.edges)
    for u, v, delta in inst.demands:
        if u == v:
            continue
        achieved = dist[u][v]
        if achieved is None or delta < achieved:
            got = "unreachable" if achieved is None else achieved
            out.append((
                "unsatisfiable-demand", f"demand ({u},{v}) asks for {delta} but the graph only achieves {got}",
            ))
        if delta > cap:
            out.append((
                "oversized-demand",
                f"demand ({u},{v}) bound {delta} exceeds n*max_length = {cap}; cap it there (same feasible set)",
            ))
    return out


@FAULTS
@given(faulty_instances())
def test_validation_matches_an_independent_walk(inst):
    assert [(v.code, v.message) for v in validate(inst).violations] == reference_violations(inst)


@pytest.mark.parametrize(
    "edges, demands",
    [
        ((_e(0, 3, 1, 1), _e(1, 2, 1, 1)), (_d(0, 2, 2),)),  # an edge id out of range
        ((_e(0, 1, 1, 1), _e(1, 1, 1, 1)), (_d(0, 1, 2),)),  # a self-loop
        ((_e(0, 1, 1, 1), _e(1, 2, 1, 0)), (_d(0, 2, 2),)),  # a zero length
        ((_e(0, 1, 1, 1), _e(1, 2, 1, 1)), (_d(-1, 2, 2),)),  # a demand id out of range
    ],
)
def test_a_failing_record_check_builds_no_scaled_view(edges, demands):
    inst = SpannerInstance(False, 3, edges, demands)
    assert not validate(inst).ok
    assert set(vars(inst)) == {f.name for f in fields(inst)}  # no integer field or cache


# ---------------------------------------------------------------------------
# Records and the integer fields' layout


def test_records_are_immutable_hashable_and_picklable_values():
    edge, demand = Edge(0, 1, Fraction(2), Fraction(1, 2)), Demand(1, 0, Fraction(3))
    assert repr(edge) == "Edge(u=0, v=1, weight=Fraction(2, 1), length=Fraction(1, 2))"
    assert repr(demand) == "Demand(u=1, v=0, delta=Fraction(3, 1))"
    assert (demand.pair(False), demand.pair(True)) == ((0, 1), (1, 0))
    for record in (edge, demand):
        with pytest.raises(AttributeError):
            record.u = 5
        again = pickle.loads(pickle.dumps(record))
        assert again == record and hash(again) == hash(record) and type(again) is type(record)
    assert {edge, Edge(0, 1, Fraction(2), Fraction(1, 2))} == {edge}
    inst = example5()
    assert pickle.loads(pickle.dumps(inst)) == inst


def test_the_full_graph_verdict_is_computed_once_per_view(monkeypatch):
    calls = []
    graph_module = importlib.import_module("spannerkit.graph")
    greedy_module = importlib.import_module("spannerkit.greedy")  # ``spannerkit.greedy`` is the function
    original = graph_module.source_searches

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (graph_module, greedy_module):  # the pass's home and greedy's binding
        monkeypatch.setattr(module, "source_searches", counted)
    base = random_instance("decoupled", 8, 14, 1, demand_family="freeform")
    # one weight on every edge: W* is that weight and E[W*] = E, so greedy runs on the whole graph
    inst = replace(base, edges=tuple(Edge(e.u, e.v, Fraction(1), e.length) for e in base.edges))
    assert validate(inst).ok
    _, report = augmented_greedy(inst)
    assert report.restricted_edge_count == inst.m
    assert len(calls) == 1 and inst.unmet == ()


def test_floored_bound_readers_on_an_integer_length_instance():
    # bounds 7/2, 11/2 and 9/2 floor to 3, 5 and 4, the layers every reader works in
    inst = SpannerInstance(
        False,
        5,
        (
            Edge(0, 1, Fraction(1), Fraction(1)), Edge(0, 2, Fraction(5), Fraction(3)),
            Edge(1, 2, Fraction(1), Fraction(2)), Edge(1, 4, Fraction(1), Fraction(4)),
            Edge(2, 3, Fraction(1), Fraction(1)), Edge(3, 4, Fraction(2), Fraction(1)),
        ),
        (Demand(0, 2, Fraction(7, 2)), Demand(0, 3, Fraction(11, 2)), Demand(1, 4, Fraction(9, 2))),
    )
    assert inst.bounds == (3, 5, 4)
    spec = gamma(inst)
    assert spec.log_cut_bound == pytest.approx(3 * math.log(7))  # (n - 2) ln(5 + 2)
    assert spec.value == pytest.approx(math.log(5) + 3 * math.log(7) + math.log(3))
    # restricted: pair (0, 3) has four nodes within its budget, so 2 ln 7 is the largest term
    assert gamma(inst, "restricted").log_cut_bound == pytest.approx(2 * math.log(7))
    regions = [restricted_subgraph(inst, i) for i in range(3)]
    assert [(sorted(nodes), sorted(edges)) for nodes, edges in regions] == [
        ([0, 1, 2], [0, 1, 2]),
        ([0, 1, 2, 3], [0, 1, 2, 4]),
        ([1, 2, 3, 4], [2, 3, 4, 5]),
    ]
    sub = Subgraph(inst, frozenset({0, 1, 4, 5}))  # (1, 4) needs 1-0-2-3-4, of length 6 > 4
    for i, (delta, total, satisfied) in enumerate([(3, 125, 125), (5, 343, 343), (4, 216, 212)]):
        cuts = list(enumerate_ascending_cuts(sub, i))
        assert (len(cuts), sum(sat for _, sat in cuts)) == (total, satisfied)
        assert {cut.delta for cut, _ in cuts} == {delta}
        assert max(max(cut.labels) for cut, _ in cuts) == delta + 1
    report = check_cut_lemma(sub)
    assert [(p.delta, p.cut_count, p.satisfied_count, p.distance, p.within_budget) for p in report.pairs] == [
        (3, 125, 125, 3, True),
        (5, 343, 343, 4, True),
        (4, 216, 212, 6, False),
    ]
