"""Greedy sparsification and its two-phase weight-thresholded variant.

``greedy`` adds shortest paths for demand pairs, cheapest-distance first,
until every bound holds; each added path is the lexicographically smallest
shortest one (:func:`~spannerkit.graph.lex_shortest_path`).
``augmented_greedy`` first binary-searches the smallest edge-weight
threshold W* whose weight-restricted subgraph is feasible (a lower bound on
the optimum), then runs ``greedy`` inside that restricted graph; the result
weighs at most ``|E[W*]| * W*``, hence at most ``m * OPT``.

Both run on the instance's scaled integer view (``instance.scaled``): lengths
times the lcm ``L`` of their denominators, bounds floored to
``floor(delta * L)``.  Every search stops past a distance and once its
targets are settled.  A threshold probe searches each source up to its
largest bound and its targets, and stops at the first violated pair.  The
greedy phase orders the pairs with one such search per source u, and caps
its distances at u's farthest target distance T, which makes them
min(d(u, x), T).  The spanner only grows inside the searched graph, so these
bound every spanner distance from u from below: the spanner's arcs are kept
reversed, and whether a pair already holds is asked by a search back from
its target, bounded at the pair's bound, stopped at u and goal-directed by
u's capped list.  For a pair that does not hold, the path is walked off the
same list; no further search is needed.
On the whole graph the searches are the instance's own: the threshold
search's probe at the largest weight (which keeps every edge) and greedy's
pair order, when ``edge_subset`` keeps every edge (plain ``greedy``, and
``augmented_greedy`` whenever E[W*] = E), read the scaled view's cached
``view``, ``reverse`` and ``reach``, which validation built or the first of
them builds.
Greedy caps into new lists; the cached ones are shared and never changed.
Distances go back to instance units, ``Fraction(d, L)``, only in
:class:`GreedyStep` and :class:`~spannerkit.errors.UnsatisfiableDemand`; the
threshold search compares the view's integer weights and reports W* as a
fraction.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DirectedInstance, InfeasibleInstance, LemmaViolation, UnsatisfiableDemand
from .graph import (
    GraphView,
    check_distances,
    graph_view,
    lex_shortest_path,
    meets_bounds,
    minimum_spanning_tree,
    shortest_distances,
    violated_pairs,
)
from .instance import SpannerInstance, Subgraph


@dataclass(frozen=True)
class GreedyStep:
    """One processed demand pair, for replay by diagnostics."""

    u: int
    v: int
    delta: Fraction
    base_distance: Fraction  # distance in the (restricted) input graph
    executed: bool
    path_nodes: tuple[int, ...]
    path_edges: tuple[int, ...]
    new_edges: tuple[int, ...]


def greedy(
    instance: SpannerInstance,
    *,
    edge_subset=None,
    trace: list | None = None,
) -> Subgraph:
    """Shortest-path greedy on the (optionally edge-restricted) graph.

    Pairs are processed by ascending (distance, u, v); the distance is taken
    in the restricted input graph, which is also where the added paths live.
    Raises :class:`UnsatisfiableDemand` for the first demand, in demand
    order, that cannot meet its bound even there.
    """
    scaled = instance.scaled
    demands, bounds, checks = instance.demands, scaled.demands, scaled.by_source
    whole = edge_subset is None or all(i in edge_subset for i in range(instance.m))
    view = scaled.view if whole else graph_view(scaled, edge_subset=edge_subset)
    # one search per source, up to its largest bound and its targets, settles every pair's
    # distance; on the whole graph those are the cached ones
    reach = scaled.reach if whole else check_distances(view, checks)
    unsatisfiable = violated_pairs(view, checks, reach, scaled.scale)
    if unsatisfiable:
        i, achieved = unsatisfiable[0]
        raise UnsatisfiableDemand(demands[i].u, demands[i].v, demands[i].delta, achieved)
    dists = {check[0]: dist for check, dist in zip(checks, reach)}
    order = sorted(
        ((dists[d.u][d.v], d.u, d.v, b.delta, d) for d, b in zip(demands, bounds) if d.u != d.v),
        key=lambda t: (t[0], t[1], t[2]),
    )
    # every target settled, the farthest at T: entries below T are exact and the
    # rest at least T, so capping them at T gives min(d(u, x), T); new lists, as
    # the cached ones are shared
    for source, _, _, nodes in checks:
        far = max(dists[source][v] for v in nodes)
        dists[source] = [far if x is None or x > far else x for x in dists[source]]

    if whole:
        reverse = scaled.reverse
    elif instance.directed:
        reverse = graph_view(scaled, edge_subset=edge_subset, reverse=True)
    else:
        reverse = view
    chosen: set[int] = set()
    spanner = GraphView(instance.n)  # grows with ``chosen``, arcs reversed
    prev = None
    for dist, _, _, bound, d in order:
        if prev is not None and dist < prev:
            raise LemmaViolation("pairs must be visited in non-decreasing distance")
        prev = dist
        # the spanner only grows inside ``view``, so min(d(u, x), T) bounds its distances from u
        from_source = dists[d.u]
        back = shortest_distances(spanner, d.v, limit=bound, targets=(d.u,), potential=from_source)
        executed = back[d.u] is None
        path_nodes: tuple[int, ...] = ()
        path_edges: tuple[int, ...] = ()
        new_edges: tuple[int, ...] = ()
        if executed:
            path_nodes, path_edges = lex_shortest_path(view, reverse, from_source, d.u, d.v)
            new_edges = tuple(e for e in path_edges if e not in chosen)
            chosen.update(new_edges)
            for e in new_edges:
                edge, length = instance.edges[e], scaled.lengths[e]
                spanner.out[edge.v].append((edge.u, length, e))
                if not instance.directed:
                    spanner.out[edge.u].append((edge.v, length, e))
        if trace is not None:
            trace.append(
                GreedyStep(
                    d.u, d.v, d.delta, scaled.unscale(dist), executed, path_nodes, path_edges, new_edges
                )
            )
    return Subgraph(instance, frozenset(chosen))


@dataclass(frozen=True)
class WeightThresholdResult:
    w_star: Fraction  # effective threshold (after an optional MST lift)
    restricted_edges: frozenset[int]  # E[W*] at the effective threshold
    mst_lifted: bool
    w_star_search: Fraction  # raw binary-search result, before any lift


def weight_threshold_search(instance: SpannerInstance, *, mst_lift: bool = False) -> WeightThresholdResult:
    """Smallest distinct edge weight whose weight-restricted graph is feasible.

    Feasibility of ``G[w']`` is monotone in w', so plain binary search over
    the sorted distinct weights applies.  With ``mst_lift`` (undirected
    instances whose problem family guarantees connected spanning solutions),
    the threshold is raised to the MST weight when larger, and the restricted
    edge set is recomputed at the lifted value.
    """
    scaled = instance.scaled
    weights = sorted(set(scaled.weights))  # in units of 1 / scaled.weight_scale
    if not weights:
        return WeightThresholdResult(Fraction(0), frozenset(), False, Fraction(0))
    checks = list(scaled.by_source)

    def edges_upto(w: int) -> frozenset[int]:
        return frozenset(i for i, x in enumerate(scaled.weights) if x <= w)

    def feasible_at(w: int) -> bool:
        return meets_bounds(graph_view(scaled, edge_subset=edges_upto(w)), checks)

    # the largest weight keeps every edge: that probe reads the scaled view's cached searches
    if violated_pairs(scaled.view, scaled.by_source, scaled.reach, scaled.scale):
        raise InfeasibleInstance("even the full graph violates some demand")
    lo, hi = 0, len(weights) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible_at(weights[mid]):
            hi = mid
        else:
            lo = mid + 1
    w_search = Fraction(weights[lo], scaled.weight_scale)
    w_star = w_search
    lifted = False
    if mst_lift:
        if instance.directed:
            raise DirectedInstance("MST lift applies only to undirected instances")
        mst_weight, _ = minimum_spanning_tree(instance)
        if mst_weight > w_star:
            w_star = mst_weight
            lifted = True
    # scaled weights are integers, so x <= w_star * unit iff x <= floor(w_star * unit)
    restricted = edges_upto(math.floor(w_star * scaled.weight_scale))
    return WeightThresholdResult(w_star, restricted, lifted, w_search)


@dataclass
class AugmentedGreedyReport:
    w_star: Fraction
    w_star_search: Fraction
    mst_lifted: bool
    restricted_edge_count: int  # |E[W*]|
    high_weight_edge_count: int  # |E^>| = m - |E[W*]|
    weight: Fraction
    size: int
    phase1_seconds: float = 0.0
    phase2_seconds: float = 0.0
    intermediate_bound: Fraction = field(default_factory=lambda: Fraction(0))  # |E[W*]| * W*


def augmented_greedy(
    instance: SpannerInstance,
    *,
    mst_lift: bool = False,
    trace: list | None = None,
) -> tuple[Subgraph, AugmentedGreedyReport]:
    """Two-phase greedy: weight-threshold search, then greedy on E[W*].

    The demand pairs, lengths, and bounds are passed through unaltered; only
    the available edge set shrinks.  Checks the per-run weight bound
    ``w(H) <= |E[W*]| * W*``.
    """
    t0 = time.perf_counter()
    threshold = weight_threshold_search(instance, mst_lift=mst_lift)
    t1 = time.perf_counter()
    spanner = greedy(instance, edge_subset=threshold.restricted_edges, trace=trace)
    t2 = time.perf_counter()

    bound = len(threshold.restricted_edges) * threshold.w_star
    weight = spanner.weight
    if weight > bound:
        raise LemmaViolation(f"weight {weight} exceeds |E[W*]|*W* = {bound}")
    if not spanner.edge_set <= threshold.restricted_edges:
        raise LemmaViolation("phase-2 output escaped E[W*]")

    report = AugmentedGreedyReport(
        w_star=threshold.w_star,
        w_star_search=threshold.w_star_search,
        mst_lifted=threshold.mst_lifted,
        restricted_edge_count=len(threshold.restricted_edges),
        high_weight_edge_count=instance.m - len(threshold.restricted_edges),
        weight=weight,
        size=spanner.size,
        phase1_seconds=t1 - t0,
        phase2_seconds=t2 - t1,
        intermediate_bound=bound,
    )
    return spanner, report
