"""Greedy sparsification and its two-phase weight-thresholded variant.

``greedy`` adds shortest paths for demand pairs, cheapest-distance first,
until every bound holds; each added path is the lexicographically smallest
shortest one (:func:`~spannerkit.graph.lex_shortest_path`).
``augmented_greedy`` first finds the smallest edge-weight threshold W* whose
weight-restricted subgraph is feasible (a lower bound on the optimum), then
runs ``greedy`` inside that restricted graph; the result weighs at most
``|E[W*]| * W*``, hence at most ``m * OPT``.  The threshold search is
described in :func:`weight_threshold_search`.

Both run on the instance's scaled integers (``instance.lengths`` and
``instance.bounds``).  The greedy phase orders the pairs with one search
per source u, bounded at its largest bound, stopped at its targets and made
with the searched graph's verdict in one pass
(:func:`~spannerkit.graph.source_searches`), which caps each list at u's
farthest target distance T once all of u's pairs hold: min(d(u, x), T).
The spanner only grows inside the searched graph, so these bound every
spanner distance from u from below: the spanner's arcs are kept reversed,
and whether a pair already holds is asked as the verifier asks it
(:func:`~spannerkit.graph._pair_holds`): by the spanner's arc from u to the
target, or by a search back from the target, bounded at the pair's bound,
stopped at u and goal-directed by u's capped list.  For a pair that does
not hold, the path is walked off the same list; no further search is needed.
The searched graph's views come from :func:`~spannerkit.graph.subgraph_views`;
on the whole graph its lists and verdict are the instance's cached ones
(:attr:`~spannerkit.instance.SpannerInstance.reach` and ``unmet``), read as
they are and never changed.
Distances go back to instance units, ``Fraction(d, L)``, only in
:class:`GreedyStep` and :class:`~spannerkit.errors.UnsatisfiableDemand`; the
threshold search compares the instance's integer weights and reports W* as
a fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DirectedInstance, InfeasibleInstance, LemmaViolation, UnsatisfiableDemand
from .graph import (
    _pair_holds,
    lex_shortest_path,
    meets_bounds,
    minimum_spanning_tree,
    source_searches,
    subgraph_views,
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
    demands, bounds, checks = instance.demands, instance.bounds, instance.by_source
    view, reverse = subgraph_views(instance, edge_subset)
    # one search per source, up to its largest bound and its targets, settles every pair's
    # distance, capped at its farthest target's; on the whole graph those, and their verdict,
    # are the cached ones
    if view is instance.view:
        reach, unsatisfiable = instance.reach, instance.unmet
    else:
        reach, unsatisfiable = source_searches(view, checks, instance.scale)
    if unsatisfiable:
        i, achieved = unsatisfiable[0]
        raise UnsatisfiableDemand(demands[i].u, demands[i].v, demands[i].delta, achieved)
    dists = {check[0]: dist for check, dist in zip(checks, reach)}
    order = sorted(
        ((dists[d.u][d.v], d.u, d.v, b, d) for d, b in zip(demands, bounds) if d.u != d.v),
        key=lambda t: (t[0], t[1], t[2]),
    )
    chosen: set[int] = set()
    spanner: list = [[] for _ in range(instance.n)]  # grows with ``chosen``, arcs reversed
    prev = None
    for dist, _, _, bound, d in order:
        if prev is not None and dist < prev:
            raise LemmaViolation("pairs must be visited in non-decreasing distance")
        prev = dist
        # the spanner only grows inside ``view``, so min(d(u, x), T) bounds its distances from u
        from_source = dists[d.u]
        executed = not _pair_holds(spanner, d.u, d.v, bound, from_source)
        path_nodes: tuple[int, ...] = ()
        path_edges: tuple[int, ...] = ()
        new_edges: tuple[int, ...] = ()
        if executed:
            path_nodes, path_edges = lex_shortest_path(view, reverse, from_source, d.u, d.v)
            new_edges = tuple(e for e in path_edges if e not in chosen)
            chosen.update(new_edges)
            for e in new_edges:
                edge, length = instance.edges[e], instance.lengths[e]
                spanner[edge.v].append((edge.u, length, e))
                if not instance.directed:
                    spanner[edge.u].append((edge.v, length, e))
        if trace is not None:
            trace.append(
                GreedyStep(
                    d.u, d.v, d.delta, instance.unscale(dist), executed, path_nodes, path_edges, new_edges
                )
            )
    return Subgraph(instance, frozenset(chosen))


# The record pass visits the demand sources in one fixed scrambled order: by
# their node id times this odd seed, modulo 2**32 (Fibonacci hashing), which
# needs no generator.  W* is unique, so the order changes only the work done.
_RECORD_ORDER_SEED = 0x9E3779B1


@dataclass(frozen=True)
class WeightThresholdResult:
    w_star: Fraction  # effective threshold (after an optional MST lift)
    restricted_edges: frozenset[int]  # E[W*] at the effective threshold
    mst_lifted: bool
    w_star_search: Fraction  # the searched threshold, before any lift
    probes: int  # G[w] views built
    searches: int  # source searches made; the cached full-graph ones are not counted


def weight_threshold_search(instance: SpannerInstance, *, mst_lift: bool = False) -> WeightThresholdResult:
    """Smallest distinct edge weight whose weight-restricted graph is feasible.

    With no demand to meet (none between two distinct nodes), W* is 0 and
    E[W*] the zero-weight edges: the empty subgraph is feasible, so the
    optimum is 0.  Otherwise feasibility of ``G[w]`` is monotone in w, and
    W* is the largest of the per-source thresholds, the smallest weight at
    which all of one source's pairs hold.  The full graph, at the largest
    weight, reads the instance's cached searches (``instance.reach``); the
    rest is decided in two steps.

    * **Guard at the second-largest weight w2.**  An arc ``a -> b`` of
      length L, read off the full view (``instance.view``, both ways round
      when undirected), is *tight* in a source's cached list when
      ``dist[a] + L == dist[b]``.  The list is capped at the source's
      farthest target distance T, min(d, T), so every node on a shortest
      path to a target has its exact distance there, and the path's arcs
      are tight.  A source with no tight top-weight arc therefore keeps a
      shortest path to each target in G[w2], and holds there without a
      search.  The other sources are searched on one view of G[w2]; if one
      fails, W* is the top weight and nothing else is built.
    * **Record pass below w2**, Chan's record-breaking technique.  The
      sources are visited in one fixed scrambled order, keeping a candidate
      c that every visited source holds at.  A source that holds in G[c]
      costs one search; one that fails raises c to its own threshold,
      bisected for that source alone on the fixed midpoints of the weights
      up to w2, probing only above c, so sources share the views they probe.
      Each view is built once per call, filtered from a built view above it.
      In the end c is the largest threshold, W*.  W* is unique, so the order
      changes only how often c rises (in expectation, about the logarithm
      of the number of sources), never the result.

    The guard needs non-negative lengths; validation requires positive ones.
    With ``mst_lift`` (undirected instances whose problem family guarantees
    connected spanning solutions), the threshold is raised to the MST weight
    when larger, and the restricted edge set is recomputed at the lifted
    value.  ``probes`` and ``searches`` of the result count the views of
    G[w] built and the source searches made; the cached full-graph searches
    are not among them.
    """
    checks = instance.by_source
    # the largest weight keeps every edge: that check is the instance's cached verdict
    if instance.unmet:
        raise InfeasibleInstance("even the full graph violates some demand")
    weights = sorted(set(instance.weights))  # in units of 1 / instance.weight_scale
    probes = searches = 0
    if not checks:
        found = 0
    elif len(weights) == 1:
        found = weights[0]
    else:
        held, below_top = True, instance.view
        top = weights[-1]
        edge_weight = instance.weights
        top_arcs = [
            (a, b, ln) for a, arcs in enumerate(instance.view) for b, ln, i in arcs if edge_weight[i] == top
        ]
        flagged = _top_tight(instance, top_arcs)
        if flagged:
            # G[w2] is the full view less its top-weight arcs; the other nodes share the cached lists
            probes = 1
            tails = {a for a, _, _ in top_arcs}
            below_top = [
                [arc for arc in arcs if edge_weight[arc[2]] < top] if a in tails else arcs
                for a, arcs in enumerate(instance.view)
            ]
            held, searches = meets_bounds(below_top, flagged)
        if held:
            found, more_probes, more_searches = _record_pass(instance, weights[:-1], below_top)
            probes += more_probes
            searches += more_searches
        else:
            found = weights[-1]
    w_search = Fraction(found, instance.weight_scale)
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
            found = math.floor(w_star * instance.weight_scale)
    restricted = frozenset(i for i, x in enumerate(instance.weights) if x <= found)
    return WeightThresholdResult(w_star, restricted, lifted, w_search, probes, searches)


def _top_tight(instance: SpannerInstance, top_arcs: list) -> list:
    """The checks whose cached full-graph list has a top-weight arc ``(a, b, length)`` tight.

    Asked only when every source holds, so each list is capped at its
    farthest target's distance T: min(d(a), T) + length == min(d(b), T).
    With positive lengths that is the arc tight in the search itself with
    its head no farther than T: the tail is then nearer than T, so settled
    and exact, and it relaxed the arc, which leaves the head's entry at
    most T and so exact or T.
    """
    return [
        check
        for check, dist in zip(instance.by_source, instance.reach)
        if any(dist[a] + length == dist[b] for a, b, length in top_arcs)
    ]


def _record_pass(instance: SpannerInstance, weights: list, base: list) -> tuple[int, int, int]:
    """``(W*, views built, sources searched)`` when every source holds at ``weights[-1]``.

    ``base`` holds at least G[weights[-1]]; views are filtered from it and
    from one another, and it is never searched.
    """
    top = len(weights) - 1
    views = {top: base}
    edge_weight = instance.weights

    def view_at(i: int, above: int) -> list:  # G[weights[i]], filtered from the built G[weights[above]]
        if i not in views:
            w = weights[i]
            views[i] = [[arc for arc in arcs if edge_weight[arc[2]] <= w] for arcs in views[above]]
        return views[i]

    rest = sorted(instance.by_source, key=lambda check: check[0] * _RECORD_ORDER_SEED & 0xFFFFFFFF)
    c = -1  # every source visited and no longer in ``rest`` holds at weights[c]
    searches = 0
    while rest and c < top:
        if c >= 0:
            held, searched = meets_bounds(views[c], rest)  # moves a failing source to the front
            searches += searched
            if held:
                break
            del rest[1:searched]  # the sources searched before it hold at c
        # rest[0] fails at and below c: bisect [0, top] for its own threshold, probing only above
        # c, so every source probes the same midpoints and shares their views
        check = rest[:1]
        lo, hi = 0, top
        while lo < hi:
            mid = (lo + hi) // 2
            held = False
            if mid > c:
                held, searched = meets_bounds(view_at(mid, hi), check)
                searches += searched
            if held:
                hi = mid
            else:
                lo = mid + 1
        c = lo
        del rest[0]
    return weights[c], len(views) - 1, searches


@dataclass
class AugmentedGreedyReport:
    w_star: Fraction
    w_star_search: Fraction
    mst_lifted: bool
    restricted_edge_count: int  # |E[W*]|
    high_weight_edge_count: int  # |E^>| = m - |E[W*]|
    weight: Fraction
    size: int
    intermediate_bound: Fraction = field(default_factory=lambda: Fraction(0))  # |E[W*]| * W*
    probes: int = 0  # the threshold search's G[w] views built
    searches: int = 0  # the threshold search's source searches, past the cached ones


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
    threshold = weight_threshold_search(instance, mst_lift=mst_lift)
    spanner = greedy(instance, edge_subset=threshold.restricted_edges, trace=trace)

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
        intermediate_bound=bound,
        probes=threshold.probes,
        searches=threshold.searches,
    )
    return spanner, report
