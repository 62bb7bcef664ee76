"""Deterministic shortest paths, spanning trees, and feasibility checks.

All arithmetic is exact.  A view is plain data, its adjacency lists
(:func:`graph_view`), built on an instance's scaled integer lengths, ``L``
times its own (:attr:`SpannerInstance.lengths`), and searched against its
floored integer bounds; the metric-pair reduction's demand graph is
weighted by those bounds too.  The search routines work in whatever units
a view carries.  Feasibility checks report distances back in instance
units, ``Fraction(d, L)``.  Unreachable is represented by ``None``, never
by a large number.

One search routine, :func:`shortest_distances`, answers every distance
question.  It stops past a distance (``limit``) and once its targets are
settled (``targets``), and it can be goal-directed (``potential``).  With
targets, only the targets and the nodes settled before them hold final
distances; every other entry may be tentative, but without a potential
never below the last settled distance, so a caller reads only the targets.
A potential is a consistent lower bound on each node's distance to the
targets, 0 at them: the search keys its heap and compares ``limit`` by
distance plus potential, and the targets' distances stay exact.
One rule gives a subgraph's views, :func:`subgraph_views`: a subgraph
that keeps every edge is the full graph, searched on the instance's cached
views (:attr:`SpannerInstance.view`, :attr:`SpannerInstance.reverse`),
whose per-source lists and verdict are cached too
(:attr:`SpannerInstance.reach`, :attr:`SpannerInstance.unmet`); any other
gets views built from its edges by :func:`graph_view`.  Greedy, the
verifier, and the cut and potential oracles take their views from it, and
no caller changes a view it is given.  :func:`source_searches` is the one
producer of per-source lists.
Two verdicts answer every "does it hold?" question.  :func:`_search` tests
a source's pairs off one bounded search from it (validation, the threshold
search, the exact oracle, which reads its witness off the search's tree,
and the verifier for a source with many targets or a pair that fails in
the full graph).  :func:`_pair_holds` tests one pair in a subgraph H, by
H's arc from source to target or by a search back from the target
goal-directed by the source's capped list (greedy's second phase, and the
verifier for every other source).  The cache only chooses the verifier's
searches: every pair that fails one is searched again, and its exact
distance decides it (:func:`verify_feasible`).
The demands checked are always the instance's own; a check of other pairs
is a check of a copy of the instance that holds them.
Tie-break contract: the path greedy adds for a pair is the one
:func:`lex_shortest_path` returns, the shortest path whose node sequence is
lexicographically smallest (between parallel arcs, the first in adjacency
order).  It is read off distances from the source, which need be exact only
up to the target's distance, so a search stopped at the target serves, and
every greedy run is reproducible without perturbing lengths.  Scaling every
length by the same ``L`` keeps every comparison, so the path is the same in
either unit.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

from .errors import DirectedInstance, SpannerError
from .instance import SpannerInstance, Subgraph


def graph_view(inst: SpannerInstance, *, edge_subset=None, reverse: bool = False) -> list:
    """View of an instance on its scaled integer lengths (:attr:`SpannerInstance.lengths`).

    The view is a list of n adjacency lists: ``view[tail]`` holds one
    ``(head, length, edge_index)`` arc per kept edge out of ``tail``, in
    edge-index order.  Undirected instances are bi-directed: each edge
    contributes one arc per direction, both carrying the edge index.
    ``reverse=True`` flips every arc (used for distances *to* a target in
    directed graphs).  A subgraph's views come from :func:`subgraph_views`,
    which reads the full graph's off the instance.
    """
    lengths = inst.lengths
    undirected = not inst.directed
    out: list = [[] for _ in range(inst.n)]
    for i, e in enumerate(inst.edges):
        if edge_subset is not None and i not in edge_subset:
            continue
        u, v, ln = e.u, e.v, lengths[i]
        if reverse:
            u, v = v, u
        out[u].append((v, ln, i))
        if undirected:
            out[v].append((u, ln, i))
    return out


def subgraph_views(instance: SpannerInstance, edge_set=None) -> tuple[list, list]:
    """``(view, reverse)``: the forward and reversed views of the instance's subgraph on ``edge_set``.

    The one rule for a subgraph's views.  With ``edge_set`` None, or holding
    every edge, they are the instance's cached ones, ``(instance.view,
    instance.reverse)``, so a caller can tell the full graph by ``view is
    instance.view``.  Otherwise both are built from the edges
    (:func:`graph_view`); the reversed view only when the instance is
    directed, and ``reverse is view`` when it is not.  Either way they are
    shared or fresh lists that no caller may change.
    """
    if edge_set is None or all(i in edge_set for i in range(instance.m)):
        return instance.view, instance.reverse
    view = graph_view(instance, edge_subset=edge_set)
    return view, graph_view(instance, edge_subset=edge_set, reverse=True) if instance.directed else view


def shortest_distances(
    view: list, source: int, *, limit=None, parent_edge=None, targets=None, potential=None
) -> list:
    """Exact Dijkstra distances from ``source`` to each node of ``view``; None marks unreachable.

    With ``limit`` the search never goes past that distance: nodes farther
    than ``limit`` read None, like unreachable ones.  Exact, because lengths
    are positive: every node on a path within the limit is within it too.

    With ``targets``, a collection of distinct nodes, the search returns as
    soon as every target is settled (popped from the heap), or when the heap
    runs dry under ``limit``.  Only the targets and the nodes settled before
    them are then final.  Any other entry may hold a tentative distance, or
    None; a tentative distance is never below the last settled one.  An
    empty collection, or one with repeats, only forgoes the early exit.

    ``potential``, a list of n lower bounds on each node's distance to the
    targets, makes the search goal-directed (A*).  It must be consistent,
    ``potential[x] <= length + potential[y]`` on every arc ``x -> y``, and 0
    at the targets.  The heap is then keyed, and ``limit`` compared, by
    distance plus potential: a node whose distance plus potential exceeds
    ``limit`` reads None.  Every settled node's distance is still exact, so
    the targets' distances are the plain search's; other entries may be
    tentative (above their distance) or None.

    ``parent_edge``, a list of n entries, receives the edge index of each
    reached node's last improving arc: a shortest-path tree, not the
    tie-broken one.  The arc's tail is the edge's other endpoint.  A settled
    node's entry is final, and so are those along its tree path to the
    source, since each of those nodes was settled before it.
    """
    dist: list = [None] * len(view)
    done = [False] * len(view)
    dist[source] = 0
    targets = targets or ()
    left = len(targets)
    if potential is not None:
        # the plain loop below on keys distance + potential, kept apart so it costs the plain search nothing
        heap = [(potential[source], source)]
        while heap:
            q = heapq.heappop(heap)[1]
            if done[q]:
                continue
            done[q] = True
            if q in targets:
                left -= 1
                if not left:
                    break
            d = dist[q]
            for head, length, edge_index in view[q]:
                nd = d + length
                key = nd + potential[head]
                if done[head] or (limit is not None and key > limit):
                    continue
                cur = dist[head]
                if cur is None or nd < cur:
                    dist[head] = nd
                    if parent_edge is not None:
                        parent_edge[head] = edge_index
                    heapq.heappush(heap, (key, head))
        return dist
    heap = [(0, source)]
    while heap:
        d, q = heapq.heappop(heap)
        if done[q]:
            continue
        done[q] = True
        if q in targets:
            left -= 1
            if not left:
                break
        for head, length, edge_index in view[q]:
            nd = d + length
            if done[head] or (limit is not None and nd > limit):
                continue
            cur = dist[head]
            if cur is None or nd < cur:
                dist[head] = nd
                if parent_edge is not None:
                    parent_edge[head] = edge_index
                heapq.heappush(heap, (nd, head))
    return dist


def lex_shortest_path(view: list, reverse: list, from_source: list, source: int, target: int):
    """``(nodes, edges)`` of the lexicographically smallest shortest source-target path.

    ``from_source[x]`` is the distance from the source to x over the view's
    arcs (``view[q]`` out of q; ``reverse[q]`` holds those into q,
    reversed).  It need be exact only at the target and the nodes nearer
    the source than it: every other entry may be any value at least the
    target's distance, or None.  A search from the
    source stopped once the target is settled gives such a list, and still
    does with every None and every entry past a cap at least the target's
    distance set to that cap.

    An arc ``x -> y`` is tight when ``from_source[x] + length ==
    from_source[y]``.  A walk back from the target over tight arcs marks
    every node of a shortest path; an entry at or past the target's distance
    is never the tail of a tight arc into a marked node.  The walk forward
    from the source then steps to the smallest marked head of a tight arc;
    between parallel arcs, the first in adjacency order.  Choosing the
    smallest next node at every position gives the smallest node sequence,
    since every choice can be completed.

    Each step must have positive length, so the walk ends.  It raises
    :class:`SpannerError` where it cannot: a zero-length arc (which
    validation rejects) or a target not reachable from the source.
    """
    marked = {target}
    stack = [target]
    while stack:
        y = stack.pop()
        at = from_source[y]
        for x, length, _ in reverse[y]:
            dx = from_source[x]
            if dx is not None and x not in marked and dx + length == at:
                marked.add(x)
                stack.append(x)
    nodes, edges = [source], []
    q = source
    while q != target:
        at, best = from_source[q], None
        for head, length, edge_index in view[q]:
            if head in marked and at + length == from_source[head] and (best is None or head < best[0]):
                best = (head, length, edge_index)
        if best is None or not best[1]:
            raise SpannerError(f"no shortest path toward {target} goes on from node {q}")
        q, _, edge_index = best
        nodes.append(q)
        edges.append(edge_index)
    return tuple(nodes), tuple(edges)


def budget_window(instance: SpannerInstance, index: int) -> tuple[list, list]:
    """``(d(u, .), d(., v))`` for the instance's demand ``index``, ``(u, v)`` with scaled bound b.

    b is ``instance.bounds[index]``.  Searches forward from u on
    ``instance.view`` and back to v on ``instance.reverse``, both stopped at b.
    Every term of a within-budget sum ``d(u,s) + ... + d(t,v) <= b`` is at
    most b, so no such test changes.
    """
    u, v, _ = instance.demands[index]
    bound = instance.bounds[index]
    return (
        shortest_distances(instance.view, u, limit=bound),
        shortest_distances(instance.reverse, v, limit=bound),
    )


# ---------------------------------------------------------------------------
# Minimum spanning tree


class _Components:
    """Weak components under union by rank, undone in reverse order; no path compression.

    Kruskal's tree and the exact search's connectivity bound both join by it.
    """

    __slots__ = ("parent", "rank", "count")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n
        self.count = n

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            x = parent[x]
        return x

    def union(self, a: int, b: int):
        """Join the components of a and b; returns what :meth:`undo` needs, None if already one."""
        a, b = self.find(a), self.find(b)
        if a == b:
            return None
        rank = self.rank
        if rank[a] < rank[b]:
            a, b = b, a
        self.parent[b] = a
        bumped = rank[a] == rank[b]
        rank[a] += bumped
        self.count -= 1
        return b, bumped

    def undo(self, joined) -> None:
        """Reverse the latest :meth:`union` not yet undone, given what it returned."""
        if joined is None:
            return
        b, bumped = joined
        self.rank[self.parent[b]] -= bumped
        self.parent[b] = b
        self.count += 1


def minimum_spanning_tree(instance: SpannerInstance) -> tuple[Fraction, frozenset[int]]:
    """Kruskal with (weight, edge index) tie-break; exact weight.

    Raises :class:`DirectedInstance` for directed input and
    :class:`SpannerError` if the graph is disconnected.
    """
    if instance.directed:
        raise DirectedInstance("minimum spanning tree requires an undirected instance")
    parts = _Components(instance.n)
    chosen: list[int] = []
    weights = instance.weights  # integers: the same order, summed exactly
    total = 0
    for i in sorted(range(instance.m), key=lambda i: (weights[i], i)):
        e = instance.edges[i]
        if parts.union(e.u, e.v) is None:
            continue
        chosen.append(i)
        total += weights[i]
        if parts.count == 1:
            break
    if parts.count != 1:
        raise SpannerError("graph is disconnected; no spanning tree exists")
    return Fraction(total, instance.weight_scale), frozenset(chosen)


# ---------------------------------------------------------------------------
# Metric terminal pairs


def metric_pairs(instance: SpannerInstance) -> tuple[int, ...]:
    """The indices of the demands not implied by a chain of other demands, in demand order.

    Works in scaled units, on the instance's floored bounds
    (``instance.bounds``, written ``delta_j`` here).  The demand graph has one
    arc per demand ``j = (w, x)``, weighted ``delta_j`` (one each way when
    undirected), and is searched once per demand source, bounded at the
    source's largest bound, which keeps it exact wherever the rule reads it.
    Demand ``i = (u, v)`` is dropped iff an in-arc ``j = (w, v)`` with ``w
    != u`` (so ``j != i``) has ``d(u, w) + delta_j <= delta_i``.
    Arcs are positive, so that walk avoids arc i and each of its demands has
    a smaller bound: a subgraph meets every demand iff it meets the kept
    ones.  The scaled integers have the instance's feasible sets, so this
    holds in instance units too.  Read it as :attr:`SpannerInstance.metric`,
    which computes it once per instance.

    Flooring can make a chain fit in scaled units only (bounds 3/2, 3/2 and
    5/2 at scale 1 floor to 1, 1 and 2), so with fractional bounds the result
    may be a strict subset of what the rule keeps on the instance's own
    bounds; it is still sound.  A pair never drops its duplicate.  A bound
    that floors to 0 is no arc, since a walk through arc i could then fit;
    no subgraph meets it, and it is never dropped.  Self-pairs always hold
    and are left out.
    """
    view: list = [[] for _ in range(instance.n)]
    into: list[list[tuple[int, int]]] = [[] for _ in range(instance.n)]  # (tail, bound) per in-arc
    for j, ((u, v, _), bound) in enumerate(zip(instance.demands, instance.bounds)):
        if bound < 1:
            continue
        view[u].append((v, bound, j))
        into[v].append((u, bound))
        if not instance.directed:
            view[v].append((u, bound, j))
            into[u].append((v, bound))
    kept = []
    for source, limit, targets, _ in instance.by_source:
        dist = shortest_distances(view, source, limit=limit)
        for v, bound, i in targets:
            if not any(
                w != source and dist[w] is not None and dist[w] + length <= bound for w, length in into[v]
            ):
                kept.append(i)
    return tuple(sorted(kept))


# ---------------------------------------------------------------------------
# Feasibility


@dataclass(frozen=True)
class PairViolation:
    u: int
    v: int
    delta: Fraction
    achieved: object  # distance | None if unreachable


@dataclass
class Verdict:
    feasible: bool
    violations: list[PairViolation]

    def describe(self) -> str:
        if self.feasible:
            return "feasible"
        lines = []
        for v in self.violations:
            got = "unreachable" if v.achieved is None else str(v.achieved)
            lines.append(f"  pair ({v.u},{v.v}): needs <= {v.delta}, achieved {got}")
        return "infeasible:\n" + "\n".join(lines)


def _search(view: list, check, parent_edge=None) -> tuple[list, list]:
    """``(dist, failed)`` of one check ``(source, limit, targets, nodes)`` on the view.

    ``dist`` is the search from ``source`` bounded at ``limit`` (the
    source's largest bound) and stopped once ``nodes`` is settled, exact at
    every target within its bound; ``failed`` lists the ``(target, bound,
    demand index)`` of each pair past its bound or unreachable there.  The
    one test of a bounded source search.  ``parent_edge``, a list of n
    entries, receives the search's shortest-path tree
    (:func:`shortest_distances`), final along every target's tree path.
    """
    source, limit, targets, nodes = check
    dist = shortest_distances(view, source, limit=limit, parent_edge=parent_edge, targets=nodes)
    return dist, [(v, bound, i) for v, bound, i in targets if dist[v] is None or dist[v] > bound]


def _pair_holds(reverse: list, source: int, target: int, bound, potential: list) -> bool:
    """Whether ``target`` is within ``bound`` of ``source`` in the view ``reverse`` holds reversed.

    The one test of a single pair: an arc from ``source`` into ``target`` no
    longer than ``bound`` (a scan of ``reverse[target]`` costs no more than a
    search's first step, where a lookup table would cost a pass over the
    view), or a search back from ``target``, bounded at ``bound``, stopped at
    ``source`` and goal-directed by ``potential``, a consistent lower bound
    on each node's distance from ``source`` in the view.
    """
    for tail, length, _ in reverse[target]:
        if tail == source and length <= bound:
            return True
    back = shortest_distances(reverse, target, limit=bound, targets=(source,), potential=potential)
    return back[source] is not None


def meets_bounds(view: list, checks: list) -> tuple[bool, int]:
    """``(whether every check holds in the view, sources searched)``, in scaled units.

    Stops at the first miss.  A failing source moves to the front of
    ``checks``, where the caller finds it: successive probes of one search
    tend to fail on the same source, so the next probe tries it first.
    """
    for k, check in enumerate(checks):
        if _search(view, check)[1]:
            checks.insert(0, checks.pop(k))
            return False, k + 1
    return True, len(checks)


def source_searches(view: list, checks, scale: int) -> tuple[tuple[list, ...], tuple]:
    """``(lists, unmet)``: one distance list per check, in check order, and the view's verdict.

    Each list is the check's bounded search (:func:`_search`).  Where every
    pair of the source holds, its targets are all settled, the farthest at
    T: entries below T are exact and the rest at least T (or None), so the
    list is capped at T, min(d(source, x), T) at every node, a consistent
    lower bound on the source's distances in any subgraph.  A source with a
    failing pair keeps its list as it is, and its failing pairs are searched
    again without the bound, after every check's search, so ``unmet`` holds
    ``(demand index, exact distance in instance units)`` of every failed
    pair, by index.  The one producer of such lists: the instance's cache
    (:attr:`SpannerInstance.reach` and :attr:`SpannerInstance.unmet`) and
    greedy on a restricted graph take them from here.
    """
    lists, suspects = [], []
    for check in checks:
        dist, failed = _search(view, check)
        source, _, _, nodes = check
        if failed:
            suspects.append((source, failed))
        else:
            far = max(dist[v] for v in nodes)
            dist = [far if x is None or x > far else x for x in dist]
        lists.append(dist)
    return tuple(lists), tuple(_exact_violations(view, suspects, scale))


def _exact_violations(view: list, suspects, scale: int) -> list[tuple[int, Fraction | None]]:
    """``(demand index, exact distance in instance units)`` of each suspect that fails, by index.

    ``suspects`` yields ``(source, [(target, bound, demand index), ...])``.
    Each source with a suspect is searched without a bound, up to its
    suspects' targets, so the reported distance is the true one, and only a
    suspect past its bound is reported.
    """
    found = []
    for source, pairs in suspects:
        if pairs:
            exact = shortest_distances(view, source, targets={v for v, _, _ in pairs})
            for v, bound, i in pairs:
                got = exact[v]
                if got is None or got > bound:
                    found.append((i, None if got is None else Fraction(got, scale)))
    found.sort(key=lambda pair: pair[0])
    return found


# A source with at most this many targets, all of whose pairs hold in the full
# graph, is verified pair by pair, each pair goal-directed by the source's
# cached full-graph distances; one with more gets one bounded search for all
# of them, as does a source with a pair that fails in the full graph.  Timed
# on verification alone of augmented greedy's outputs, at cutoffs 0, 2, 4,
# ..., 64 and none (one shared 2-core host), 16 was the fastest or near it on
# every shape tried.  Decoupled
# with freeform bounds on every edge: 0.34 / 5.0 / 16.6 ms at n = 60 / 1000 /
# 3000, against 0.83 / 30 / 120 ms at 0.  All pairs at n = 60: 3.2 ms
# decoupled (the fastest) and 3.4 ms geometric (2.7 at 4, 14.9 with no
# cutoff).  Geometric n = 150, all pairs: 20.8 ms (20.0 at 0, 200 with no
# cutoff).  Past it, pair searches on a graph where every search reaches most
# nodes cost more than one search from the source.
PAIR_SEARCH_MAX = 16


def verify_feasible(subgraph: Subgraph) -> Verdict:
    """Exact check that every demand pair of the instance meets its bound in the subgraph.

    To check a subset of the pairs (e.g. the metric pairs), check a copy of
    the instance that holds just those: ``dataclasses.replace(instance,
    demands=subset)``.  Runs on the scaled integers, on the subgraph's views
    (:func:`subgraph_views`); every violation is reported, in demand order,
    with its exact distance in instance units.

    Each source takes one of two paths.  A source with more than
    :data:`PAIR_SEARCH_MAX` targets, or with a pair that fails in the full
    graph, gets one search bounded at its largest bound and stopped at its
    targets (:func:`_search`).  Every other source is checked pair by pair,
    as greedy checks its pairs (:func:`_pair_holds` on the subgraph's
    reversed arcs): by the pair's own arc, or by a search back from the
    target goal-directed by the source's cached list (``instance.reach``,
    capped: a lower bound on the source's distances in any subgraph).
    Every suspect is searched again without a bound, and only one past its
    bound is reported: each "holds" is a path in the subgraph and each
    violation carries its true distance, whatever the cache holds.
    """
    instance = subgraph.instance
    demands = instance.demands
    view, reverse = subgraph_views(instance, subgraph.edge_set)
    suspects = []
    for check, full in zip(instance.by_source, instance.reach):
        source, _, targets, _ = check
        if len(targets) > PAIR_SEARCH_MAX or any(full[v] is None or full[v] > b for v, b, _ in targets):
            failed = _search(view, check)[1]
        else:
            failed = [(v, b, i) for v, b, i in targets if not _pair_holds(reverse, source, v, b, full)]
        suspects.append((source, failed))
    violations = [
        PairViolation(demands[i].u, demands[i].v, demands[i].delta, achieved)
        for i, achieved in _exact_violations(view, suspects, instance.scale)
    ]
    return Verdict(not violations, violations)
