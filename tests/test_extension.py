import random
from collections import deque
from fractions import Fraction

from spannerkit.extension import ExtArc, build_extension
from spannerkit.generators import example5, random_instance
from spannerkit.graph import graph_view, shortest_distances
from spannerkit.instance import (
    Demand,
    Edge,
    SpannerInstance,
    require_integer_lengths,
)


def test_example5_extension_structure():
    ext = build_extension(example5())
    assert ext.delta_bar == 3
    assert ext.node_count == 12
    assert len(ext.arcs) == 17  # 3 + 2 + 3 edge-arcs + 9 self-arcs
    by_kind = {}
    for arc in ext.arcs:
        by_kind.setdefault(arc.edge, []).append(arc)
    assert len(by_kind[0]) == 3  # (a,b), length 1
    assert len(by_kind[1]) == 2  # (a,c), length 2
    assert len(by_kind[2]) == 3  # (c,b), length 1
    assert len(by_kind[None]) == 9


def test_two_layer_extension():
    inst = SpannerInstance(
        True,
        3,
        (Edge(0, 1, Fraction(1), Fraction(1)), Edge(1, 2, Fraction(1), Fraction(1))),
        (Demand(0, 1, Fraction(1)),),
    )
    ext = build_extension(inst)
    assert ext.layer_count == 2
    edge_arcs = [a for a in ext.arcs if a.edge is not None]
    self_arcs = [a for a in ext.arcs if a.edge is None]
    assert len(edge_arcs) == 2  # one per edge
    assert len(self_arcs) == 3  # one per node


def test_edge_with_length_equal_to_delta_bar_gets_single_arc():
    inst = SpannerInstance(True, 2, (Edge(0, 1, Fraction(1), Fraction(4)),), (Demand(0, 1, Fraction(4)),))
    ext = build_extension(inst)
    edge_arcs = [a for a in ext.arcs if a.edge == 0]
    assert len(edge_arcs) == 1
    assert ext.node_of(edge_arcs[0].tail) == (0, 0)
    assert ext.node_of(edge_arcs[0].head) == (1, 4)


def test_overlong_edges_contribute_no_arcs():
    inst = SpannerInstance(True, 2, (Edge(0, 1, Fraction(1), Fraction(5)),), (Demand(0, 1, Fraction(3)),))
    ext = build_extension(inst)
    assert all(a.edge is None for a in ext.arcs)


def test_structure_counts_on_random_instances():
    rng = random.Random(21)
    for trial in range(200):
        directed = bool(trial % 2)
        inst = random_instance(
            "decoupled",
            rng.randint(3, 8),
            rng.randint(3, 14),
            5000 + trial,
            demand_family="freeform",
            demand_pairs="random",
            num_demands=3,
            integer_lengths=True,
            directed=directed,
        )
        ii = require_integer_lengths(inst)
        ext = build_extension(inst)
        n, db = inst.n, ext.delta_bar
        assert ext.node_count == n * (db + 1)
        m_directed = inst.m if directed else 2 * inst.m
        assert len(ext.arcs) <= (n + m_directed) * db
        # Every arc strictly ascends its layer.
        for arc in ext.arcs:
            _, li = ext.node_of(arc.tail)
            _, lj = ext.node_of(arc.head)
            assert lj > li
        # Arc shape: edge-arcs jump exactly their length, self-arcs one layer.
        for arc in ext.arcs:
            qt, li = ext.node_of(arc.tail)
            qh, lj = ext.node_of(arc.head)
            if arc.edge is None:
                assert qt == qh and lj == li + 1
            else:
                assert lj == li + ii.lengths[arc.edge]
        # Runs tile the arc ids in order, one arc per start layer, and match
        # their edge (or node, for waiting arcs).
        next_id = 0
        for g in ext.groups:
            count = db - g.length + 1
            assert g.first == next_id and count >= 1
            next_id += count
            assert ext.arcs[g.first : g.first + count] == tuple(
                ExtArc(ext.node_id(g.tail, i), ext.node_id(g.head, i + g.length), g.edge)
                for i in range(count)
            )
            if g.edge is None:
                assert g.tail == g.head and g.length == 1
            else:
                e = ii.edges[g.edge]
                assert g.length == ii.lengths[g.edge]
                assert (g.tail, g.head) in ([(e.u, e.v)] if directed else [(e.u, e.v), (e.v, e.u)])
        assert next_id == len(ext.arcs)


def test_acyclic_topological_order_by_layer():
    inst = random_instance("decoupled", 6, 10, 9, integer_lengths=True)
    ext = build_extension(inst)
    for arc in ext.arcs:
        assert ext.node_of(arc.head)[1] > ext.node_of(arc.tail)[1]


def _reaches(ext, edge_subset, source: int, target: int) -> bool:
    """BFS over the arcs of ``edge_subset``'s edges and every waiting arc."""
    out = [[] for _ in range(ext.node_count)]
    for arc in ext.arcs:
        if arc.edge is None or arc.edge in edge_subset:
            out[arc.tail].append(arc.head)
    seen, queue = {source}, deque([source])
    while queue:
        for head in out[queue.popleft()]:
            if head not in seen:
                seen.add(head)
                queue.append(head)
    return target in seen


def test_reachability_matches_budgeted_distance():
    # u_0 reaches v_d in the extension of H iff dist_H(u,v) <= d
    rng = random.Random(31)
    for trial in range(60):
        inst = random_instance(
            "decoupled",
            rng.randint(3, 6),
            rng.randint(3, 9),
            7000 + trial,
            demand_family="freeform",
            demand_pairs="random",
            num_demands=2,
            integer_lengths=True,
        )
        ii = require_integer_lengths(inst)
        if ii.delta_bar == 0:
            continue
        ext = build_extension(inst)
        subset = frozenset(i for i in range(inst.m) if rng.random() < 0.6)
        view = graph_view(ii, edge_subset=subset)
        for d in ii.demands:
            dist = shortest_distances(view, d.u)[d.v]
            reaches = _reaches(ext, subset, ext.node_id(d.u, 0), ext.node_id(d.v, d.delta))
            assert reaches == (dist is not None and dist <= d.delta)


def test_node_naming_uses_labels():
    ext = build_extension(example5())
    assert ext.node_name(ext.node_id(2, 1)) == "c_1"
