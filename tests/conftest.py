"""Shared independent oracles for the test suite.

These deliberately avoid the library's own shortest-path and search code so
that tests compare against a second, dumber route to the same answer.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from itertools import combinations


def bellman_ford(view: list, source: int) -> list:
    """Textbook relaxation loop; exact arithmetic; None = unreachable."""
    dist: list = [None] * len(view)
    dist[source] = 0
    arcs = [
        (tail, head, length)
        for tail in range(len(view))
        for head, length, _ in view[tail]
    ]
    for _ in range(len(view) - 1):
        changed = False
        for tail, head, length in arcs:
            if dist[tail] is None:
                continue
            cand = dist[tail] + length
            if dist[head] is None or cand < dist[head]:
                dist[head] = cand
                changed = True
        if not changed:
            break
    return dist


def fraction_view(instance, edge_subset=None, reverse=False) -> list:
    """Adjacency lists on the instance's own ``Fraction`` lengths, in edge-index order.

    ``view[tail]`` holds one ``(head, length, edge index)`` arc per kept edge
    out of ``tail``, one each way when undirected; ``reverse`` flips every
    arc.  The layout of ``graph.graph_view``, built without it.
    """
    view = [[] for _ in range(instance.n)]
    for i, (u, v, _, length) in enumerate(instance.edges):
        if edge_subset is not None and i not in edge_subset:
            continue
        tail, head = (v, u) if reverse else (u, v)
        view[tail].append((head, length, i))
        if not instance.directed:
            view[head].append((tail, length, i))
    return view


def reference_greedy(instance, edge_subset=None) -> list[tuple]:
    """Greedy's trace, on the instance's own lengths, by Bellman-Ford alone.

    Orders the pairs by (distance, u, v) in the restricted graph, checks each
    on the spanner built so far and, for a pair that does not hold, walks
    from u to the smallest next node that still lies on a shortest path,
    read off distances to v.  One ``(u, v, delta, distance, executed,
    path_nodes, path_edges, new_edges)`` tuple per pair, as in
    ``GreedyStep``.
    """
    graph = fraction_view(instance, edge_subset)
    reverse = fraction_view(instance, edge_subset, reverse=True)
    from_source = {u: bellman_ford(graph, u) for u in {d.u for d in instance.demands}}
    to_target = {v: bellman_ford(reverse, v) for v in {d.v for d in instance.demands}}
    order = sorted(
        ((from_source[d.u][d.v], d.u, d.v, d) for d in instance.demands if d.u != d.v),
        key=lambda t: t[:3],
    )
    chosen: set[int] = set()
    spanner_from: dict = {}  # per source, on the spanner as it is now
    trace = []
    for dist, u, v, d in order:
        assert dist is not None and dist <= d.delta, "unsatisfiable pair"
        if u not in spanner_from:
            spanner_from[u] = bellman_ford(fraction_view(instance, chosen), u)
        held = spanner_from[u][v]
        executed = held is None or held > d.delta
        nodes, path, new = (), (), ()
        if executed:
            to_v, q = to_target[v], u
            nodes, path = [u], []
            while q != v:
                steps = [
                    (head, i)
                    for head, length, i in graph[q]
                    if to_v[head] is not None and length + to_v[head] == to_v[q]
                ]
                q, i = min(steps, key=lambda step: step[0])
                nodes.append(q)
                path.append(i)
            nodes, path = tuple(nodes), tuple(path)
            new = tuple(i for i in path if i not in chosen)
            chosen.update(new)
            spanner_from.clear()
        trace.append((u, v, d.delta, dist, executed, nodes, path, new))
    return trace


def all_simple_paths(view: list, source: int, target: int, limit: int = 10**6):
    """Every simple path as (length, node tuple); exponential, tiny graphs only."""
    results = []
    stack = [(source, (source,), 0)]
    while stack:
        node, path, length = stack.pop()
        if node == target:
            results.append((length, path))
            continue
        if len(results) > limit:
            raise RuntimeError("too many paths")
        for head, arc_len, _ in view[node]:
            if head not in path:
                stack.append((head, path + (head,), length + arc_len))
    return results


def brute_force_lex_shortest(view: list, source: int, target: int):
    """(distance, lexicographically smallest shortest node sequence) or None."""
    paths = all_simple_paths(view, source, target)
    if not paths:
        return None
    best = min(length for length, _ in paths)
    seqs = sorted(path for length, path in paths if length == best)
    return best, seqs[0]


def brute_force_optimum(instance, demands=None) -> tuple[Fraction, tuple[int, ...]] | None:
    """Minimum-weight feasible subset by full enumeration (m <= ~14).

    ``demands``, when given, replaces the instance's own demand list.
    """
    from spannerkit.graph import verify_feasible
    from spannerkit.instance import Subgraph

    if demands is not None:
        instance = replace(instance, demands=tuple(demands))
    m = instance.m
    best = None
    for k in range(m + 1):
        for subset in combinations(range(m), k):
            sub = Subgraph(instance, frozenset(subset))
            if verify_feasible(sub).feasible:
                key = (sub.weight, subset)
                if best is None or key < best:
                    best = key
    if best is None:
        return None
    return best
