"""Exact and brute-force reference machinery.

Everything here exists to certify the approximation algorithms at desk scale:
a branch-and-bound search for the true optimum, exhaustive ascending-cut
enumeration matching reachability in the layered extension, the per-pair
reachable subgraph used by the degree-restricted rounding factor, a fixed
reproduction of the broken subdivide-and-reuse transform for length-encoded
flow, and a step-by-step monitor for the degree-potential argument behind the
additive-spanner size bound.

The branch and bound prunes on the included weight plus a connectivity
lower bound: the lightest edges that could still join the components every
demand pair must share.  Its feasibility searches are the graph layer's
bounded source test (``graph._search``), run on one private view of the
envelope (the edges not yet excluded), edited in place as edges are
excluded and restored, never on a rebuilt view and never on the shared
``instance.view``.  Each demand source's witness, the edges of the search
tree's paths that last met its bounds, stays a subset of the envelope, so
an exclusion re-searches only the sources whose witness holds the excluded
edge.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    InfeasibleInstance,
    LemmaViolation,
    MonotonicityViolation,
    SolverFailure,
    SpannerError,
    TooLarge,
    TooManyCuts,
)
from .extension import build_extension
from .graph import _Components, _search, budget_window, shortest_distances, subgraph_views
from .greedy import GreedyStep
from .instance import Demand, Edge, SpannerInstance, Subgraph, require_integer_lengths
from .mcf import build_mcf, solve_lp


# ---------------------------------------------------------------------------
# Exact optimum via branch and bound


@dataclass
class ExactResult:
    """The optimum and what the search that found it did.

    ``nodes_explored`` counts the search nodes entered, pruned ones
    included.  ``bound_prunes`` counts those of them cut by the connectivity
    bound alone: their included weight was still within the incumbent's.
    ``witness_skips`` counts the sources not re-searched after an exclusion
    because the excluded edge was off their witness.
    """

    weight: Fraction
    edge_set: frozenset[int]
    nodes_explored: int
    bound_prunes: int
    witness_skips: int

    def edge_tuple(self) -> tuple[int, ...]:
        return tuple(sorted(self.edge_set))


# The most edges exact_optimum searches, whatever its ``max_edges``: over it, it
# raises TooLarge before any search.  The search recurses once per edge, and
# its deepest search call adds four frames more, under Python's default limit
# of 1,000 frames; the caller's own frames (four for the CLI, a few more in a
# ``bench`` worker, 33 to 48 under pytest and Hypothesis) count too.  A path
# of 995 edges raised RecursionError from a bare script; this cap leaves 200
# frames over.
MAX_EXACT_DEPTH = 800


def exact_optimum(instance: SpannerInstance, *, max_edges: int = 22) -> ExactResult:
    """Global minimum-weight feasible subgraph by subset branch and bound.

    Branches on edges in descending weight order, exclusion first, one
    recursion level per edge: past ``max_edges`` or :data:`MAX_EXACT_DEPTH`
    edges it raises :class:`TooLarge` before any search.  The envelope is
    the set of edges not yet excluded: the included ones and the undecided
    ones, ``order[idx:]``.  An exclusion is followed only when
    the envelope still meets every bound.  Among equal-weight optima the
    lexicographically smallest sorted edge-index tuple wins, which makes the
    result deterministic.  Exact integer arithmetic throughout: feasibility
    runs on the scaled integer lengths against floored bounds, and the search
    adds the instance's scaled weights.

    A node is pruned when its included weight plus a lower bound on what a
    completion adds exceeds the incumbent.  The bound counts weak
    components (after Sigurd and Zachariasen, "Construction of
    minimum-weight spanners", ESA 2004).  Every demand pair must end up in
    one component.  With c1 components of the included edges, and c2 once
    every demand pair is joined as well, any completion adds at least
    ``c1 - c2`` undecided edges.  Those weigh at least the ``c1 - c2``
    lightest weights of the whole instance, the tail of ``order``.  Two
    union-finds, by rank with rollback and no path compression, follow the
    include path.  The test is strict, so every optimal-weight leaf is still
    visited and the tie-break holds.  It holds on directed instances too,
    since a directed path joins its endpoints' weak components.

    The searches (``graph._search``, which also gives the tree the witness
    is read from) run on one private view of the envelope, a copy of each of
    ``instance.view``'s adjacency lists made once per call.  Excluding an
    edge deletes its arcs from their lists, and the backtrack puts each back
    at its old index.  So every search sees the lists
    ``subgraph_views(instance, envelope)`` would give, in the same order.
    The shared ``instance.view`` is never changed.

    Each demand source keeps a witness: the edges of the shortest-path tree
    paths that met its bounds when it was last searched.  Every stored
    witness is a subset of the current envelope: it was found inside the
    envelope of its moment, excluding an edge removes only that edge, and
    the edge comes back on return.  Each search stops once the source's
    targets are settled; every node on a target's tree path was settled
    before it, so the witness reads only final tree edges.  Excluding edge
    ``e`` then re-searches only the sources whose witness holds ``e``; every
    other source still meets its bounds along its witness.  The verdicts,
    and so the search tree, are those of re-searching every source.
    """
    m = instance.m
    if m > max_edges:
        raise TooLarge(f"{m} edges exceeds the exact-search cap of {max_edges}")
    if m > MAX_EXACT_DEPTH:
        raise TooLarge(f"{m} edges is over the cap of {MAX_EXACT_DEPTH}, the exact search's depth")
    edges = instance.edges
    checks = list(instance.by_source)
    weights = instance.weights
    witness: dict[int, set[int]] = {}
    view = [list(arcs) for arcs in instance.view]
    arcs_of: list[list] = [[] for _ in range(m)]  # each edge's arcs, with the private list that holds each
    for out in view:
        for arc in out:
            arcs_of[arc[2]].append((out, arc))
    skips = 0

    def meets(check) -> bool:
        """One source's bounded search (:func:`_search`); on success its witness is replaced."""
        parent = [None] * instance.n
        if _search(view, check, parent)[1]:
            return False
        source = check[0]
        found: set[int] = set()
        for v in check[3]:
            while v != source and parent[v] not in found:
                e = edges[parent[v]]
                found.add(parent[v])
                v = e.u if v == e.v else e.v
        witness[source] = found
        return True

    def feasible(removed: int | None = None) -> bool:
        """Whether the envelope meets every bound; a failing source moves to the front."""
        nonlocal skips
        for k, check in enumerate(checks):
            if removed is not None and removed not in witness[check[0]]:
                skips += 1
                continue
            if not meets(check):
                checks.insert(0, checks.pop(k))
                return False
        return True

    if not feasible():
        raise InfeasibleInstance("the full edge set violates some demand")

    order = sorted(range(m), key=lambda i: (-weights[i], i))
    cheapest = [0]  # cheapest[k]: the k lightest weights, the last k of order
    for e in reversed(order):
        cheapest.append(cheapest[-1] + weights[e])
    included_parts = _Components(instance.n)
    joined_parts = _Components(instance.n)  # the included edges and every demand pair
    for d in instance.demands:
        joined_parts.union(d.u, d.v)
    best_weight = sum(weights)
    best_tuple = tuple(range(m))
    explored = 0
    prunes = 0

    def consider(included: list[int], weight: int) -> None:
        nonlocal best_weight, best_tuple
        candidate = tuple(sorted(included))
        if weight < best_weight or (weight == best_weight and candidate < best_tuple):
            best_weight = weight
            best_tuple = candidate

    def dfs(idx: int, included: list[int], weight: int) -> None:
        nonlocal explored, prunes
        explored += 1
        if weight + cheapest[included_parts.count - joined_parts.count] > best_weight:
            prunes += weight <= best_weight  # cut by the bound alone
            return
        if idx == m:
            consider(included, weight)
            return
        e = order[idx]
        # Exclude e: its arcs leave the view, so the sources that used e are re-checked.
        removed = []
        for out, arc in arcs_of[e]:
            k = out.index(arc)
            del out[k]
            removed.append((out, k, arc))
        if feasible(e):
            dfs(idx + 1, included, weight)
        for out, k, arc in reversed(removed):
            out.insert(k, arc)
        # Include e: envelope unchanged, still feasible.
        u, v = edges[e].u, edges[e].v
        undo_included = included_parts.union(u, v)
        undo_joined = joined_parts.union(u, v)
        included.append(e)
        dfs(idx + 1, included, weight + weights[e])
        included.pop()
        joined_parts.undo(undo_joined)
        included_parts.undo(undo_included)

    dfs(0, [], 0)
    del dfs  # a recursive closure is a reference cycle; this frees it, and the private view, at once
    return ExactResult(
        Fraction(best_weight, instance.weight_scale), frozenset(best_tuple), explored, prunes, skips
    )


# ---------------------------------------------------------------------------
# Ascending cuts


@dataclass(frozen=True)
class CutLabeling:
    """A per-node layer threshold inducing an ascending source/sink cut.

    Node copies q_i with i < labels[q] fall on the sink side B; the rest on
    the source side A.  The demand's endpoints are pinned: labels[u] = 0 and
    labels[v] = delta + 1.
    """

    u: int
    v: int
    delta: int
    labels: tuple[int, ...]


def ascending_cut_count(n: int, delta: int) -> int:
    return (delta + 2) ** (n - 2)


def crossing_arc(labels, view, delta: int):
    """An extension arc of the subgraph's view crossing the cut A -> B, if any.

    An arc copy (s_i, t_{i+L}) crosses iff i >= labels[s] and i+L < labels[t];
    such an i exists iff labels[s] <= min(delta - L, labels[t] - L - 1).
    """
    for s, out in enumerate(view):
        i = labels[s]
        for t, length, e in out:
            if i <= delta - length and i <= labels[t] - length - 1:
                return (s, i, t, i + length, e)
    return None


def _ascending_cuts(view, u: int, v: int, delta: int, cap: int):
    """Every ascending cut labeling on ``view`` with its satisfaction.

    For the pair ``(u, v)`` at its scaled bound ``delta``.
    """
    n = len(view)
    total = ascending_cut_count(n, delta)
    if total > cap:
        raise TooManyCuts(f"{total} ascending cuts exceeds the cap of {cap}")
    free_nodes = [q for q in range(n) if q not in (u, v)]
    labels = [0] * n
    labels[v] = delta + 1
    for assignment in itertools.product(range(delta + 2), repeat=len(free_nodes)):
        for q, val in zip(free_nodes, assignment):
            labels[q] = val
        satisfied = crossing_arc(labels, view, delta) is not None
        yield CutLabeling(u, v, delta, tuple(labels)), satisfied


def enumerate_ascending_cuts(subgraph: Subgraph, index: int, *, cap: int = 10**6):
    """Yield every ascending cut labeling for the instance's demand ``index``, with its satisfaction.

    The demand is ``instance.demands[index]`` with its bound in the scaled
    integer units, ``delta = instance.bounds[index]``.  Exactly
    ``(delta + 2)^(n-2)`` labelings are produced.  A cut is satisfied when
    some arc of the subgraph's extension crosses from the source side to the
    sink side; self-arcs never cross an ascending cut.
    """
    instance = subgraph.instance
    require_integer_lengths(instance)
    view, _ = subgraph_views(instance, subgraph.edge_set)
    u, v, _ = instance.demands[index]
    return _ascending_cuts(view, u, v, instance.bounds[index], cap)


@dataclass
class PairCutReport:
    u: int
    v: int
    delta: int
    cut_count: int
    satisfied_count: int
    all_satisfied: bool
    distance: object  # int | None
    within_budget: bool


@dataclass
class CutLemmaReport:
    pairs: list[PairCutReport] = field(default_factory=list)
    nonascending_sampled: int = 0

    @property
    def ok(self) -> bool:
        return all(p.all_satisfied == p.within_budget for p in self.pairs)


NONASCENDING_SAMPLES = 25  # random non-ascending cuts drawn per pair by check_cut_lemma


def check_cut_lemma(subgraph: Subgraph, *, cap: int = 10**6, seed: int = 0) -> CutLemmaReport:
    """Certify, for each demand pair: all ascending cuts satisfied <=> the pair meets its bound.

    One view of the subgraph serves every pair's cuts and distance, in the
    scaled integer units.  Also spot-checks
    :data:`NONASCENDING_SAMPLES` random non-ascending cuts per pair, which
    must always be crossed by a waiting self-arc.  Any mismatch raises
    :class:`LemmaViolation` -- that would mean the extension or the cut
    machinery is wrong.
    """
    instance = subgraph.instance
    require_integer_lengths(instance)
    view, _ = subgraph_views(instance, subgraph.edge_set)
    ext = build_extension(instance)
    waiting = {g.tail: g for g in ext.groups if g.edge is None}
    rng = random.Random(seed)
    report = CutLemmaReport()
    for (u, v, _), delta in zip(instance.demands, instance.bounds):
        total = 0
        satisfied = 0
        for _, sat in _ascending_cuts(view, u, v, delta, cap):
            total += 1
            satisfied += sat
        dist = shortest_distances(view, u)[v]
        within = dist is not None and dist <= delta
        all_sat = satisfied == total
        if total != ascending_cut_count(instance.n, delta):
            raise LemmaViolation(
                f"pair ({u},{v}): enumerated {total} cuts, "
                f"expected {ascending_cut_count(instance.n, delta)}"
            )
        if all_sat != within:
            raise LemmaViolation(
                f"pair ({u},{v}): all-cuts-satisfied={all_sat} but "
                f"distance {dist} vs bound {delta}"
            )
        report.pairs.append(PairCutReport(u, v, delta, total, satisfied, all_sat, dist, within))

        # Sampled non-ascending cuts: some node column has A below B, and the
        # extension's waiting arc on that column crosses regardless of the subgraph.
        layers = delta + 1
        for _ in range(NONASCENDING_SAMPLES):
            side = {
                (q, i): rng.random() < 0.5
                for q in range(instance.n)
                for i in range(layers)
            }  # True = source side A
            side[(u, 0)] = True
            side[(v, delta)] = False
            breaks = [
                (q, i)
                for q in range(instance.n)
                for i in range(layers - 1)
                if side[(q, i)] and not side[(q, i + 1)]
            ]
            if not breaks:
                continue  # ascending; covered exhaustively above
            q, i = breaks[0]
            run = waiting.get(q)  # q_i -> q_{i+1} is arc i of q's waiting run
            crosses = run is not None and run.tail == run.head == q and run.length == 1
            if not (crosses and i <= ext.delta_bar - run.length):
                raise LemmaViolation("self-arc fails to cross a non-ascending cut")
            report.nonascending_sampled += 1
    return report


# ---------------------------------------------------------------------------
# Per-pair reachable subgraph


def restricted_subgraph(instance: SpannerInstance, index: int):
    """Nodes and edges that can lie on some within-budget path for the instance's demand ``index``.

    For the demand ``(u, v) = instance.demands[index]`` with scaled bound
    ``delta = instance.bounds[index]``,
    ``V_uv = {z : d(u,z) + d(z,v) <= delta}`` and
    ``E_uv = {(s,t) : d(u,s) + len(s,t) + d(t,v) <= delta}``, from the
    pair's bounded forward and reverse searches (:func:`graph.budget_window`).
    """
    require_integer_lengths(instance)
    delta = instance.bounds[index]
    from_u, to_v = budget_window(instance, index)

    def fits(s: int, length: int, t: int) -> bool:
        ds, dt = from_u[s], to_v[t]
        return ds is not None and dt is not None and ds + length + dt <= delta

    nodes = frozenset(z for z in range(instance.n) if fits(z, 0, z))
    edges = frozenset(
        e for s, out in enumerate(instance.view) for t, length, e in out if fits(s, length, t)
    )
    return nodes, edges


# ---------------------------------------------------------------------------
# Length-encoded flow vs. edge subdivision: the fixed counterexample


# The longest edge dodis_khanna_demo subdivides: over it, it raises TooLarge
# before building anything.  The demo builds ``length`` edges and nodes, their
# extension and its flow LP, and names every weight.  Measured at the cap on a
# 2-core host: 1.5 s and 164 MB, numpy's and the HiGHS extension's imports
# included.
MAX_DEMO_LENGTH = 100_000
# The largest alpha dodis_khanna_demo takes: over it, it raises TooLarge
# before building anything.  The subdivided path's flow LP has about
# (2L + 1)(alpha - L + 1) columns when L <= alpha (none otherwise), at most
# about alpha^2 / 2, and HiGHS's time grows faster than the columns.
# Measured on a 2-core host: at the cap, every length took at most 1 s and
# 164 MB (lengths 100 to 200: about 1 s and 100 MB); at length 3, alpha
# 3,000 took 2 s and alpha 10,000 13 s, and length 300 at alpha 1,000 ran
# past 100 s.
MAX_DEMO_ALPHA = 300


@dataclass
class DemoReport:
    edge_length: int
    alpha: int
    original_optimum: Fraction
    transformed_reachable: bool
    lp_status: str
    narrative: list[str]

    def to_text(self) -> str:
        return "\n".join(self.narrative)

    def to_json(self) -> str:
        return json.dumps(
            {
                "edge_length": self.edge_length,
                "alpha": self.alpha,
                "original_optimum": str(self.original_optimum),
                "transformed_reachable": self.transformed_reachable,
                "lp_status": self.lp_status,
            },
            indent=2,
        )


def dodis_khanna_demo(edge_length: int = 3, alpha: int = 2) -> DemoReport:
    """Why subdividing long edges breaks layered-flow spanner rounding.

    The original instance is a single directed edge s->t with weight 1 and
    the given length; its stretch-alpha demand is trivially met by the edge
    itself, so the optimum is 1.  The subdivision transform replaces the edge
    by a unit-length path (weights 0,...,0,1) but keeps the demand between
    the endpoint copies at alpha.  Whenever length > alpha, the endpoint
    copies are farther apart than the demand allows, so the alpha-extension
    has no source-to-sink path at all and the flow model is infeasible --
    even though the untransformed instance is perfectly solvable.  A length
    over :data:`MAX_DEMO_LENGTH` or an alpha over :data:`MAX_DEMO_ALPHA`
    raises :class:`TooLarge`.
    """
    if edge_length < 1 or alpha < 1:
        raise ValueError("edge_length and alpha must be positive")
    if edge_length > MAX_DEMO_LENGTH:
        raise TooLarge(f"length {edge_length} is over the cap of {MAX_DEMO_LENGTH}")
    if alpha > MAX_DEMO_ALPHA:
        raise TooLarge(f"alpha {alpha} is over the cap of {MAX_DEMO_ALPHA}")
    original = SpannerInstance(
        directed=True,
        n=2,
        edges=(Edge(0, 1, Fraction(1), Fraction(edge_length)),),
        demands=(Demand(0, 1, Fraction(alpha * edge_length)),),
        labels=("s", "t"),
    )
    original_opt = exact_optimum(original).weight

    # Subdivision: s=0, interior 1..L-1, t=L; unit lengths; weight on the last arc.
    path_n = edge_length + 1
    edges = []
    for i in range(edge_length):
        w = Fraction(1) if i == edge_length - 1 else Fraction(0)
        edges.append(Edge(i, i + 1, w, Fraction(1)))
    labels = tuple(
        "s+" if i == 0 else ("t+" if i == edge_length else f"q{i}") for i in range(path_n)
    )
    transformed = SpannerInstance(
        directed=True,
        n=path_n,
        edges=tuple(edges),
        demands=(Demand(0, edge_length, Fraction(alpha)),),
        labels=labels,
    )
    ext = build_extension(transformed)
    source = ext.node_id(0, 0)
    sink = ext.node_id(edge_length, alpha)
    # The extension's lemma: s+_0 reaches t+_alpha iff d(s+, t+) = L <= alpha.
    dist = shortest_distances(transformed.view, 0)[edge_length]
    reachable = dist is not None and dist <= alpha

    model = build_mcf(ext)
    try:
        solve_lp(model)
        lp_status = "optimal"
    except SolverFailure as exc:
        lp_status = exc.status

    narrative = [
        f"original: single edge s->t, weight 1, length {edge_length}, "
        f"stretch bound {alpha} x {edge_length} = {alpha * edge_length}",
        f"original optimum weight: {original_opt} (the edge itself)",
        f"transform: unit-length path of {edge_length} arcs, weights "
        f"{[str(e.weight) for e in edges]}, demand {alpha} between endpoint copies",
        f"{alpha}-extension of the transformed graph: "
        f"{ext.node_count} nodes, {sum(ext.delta_bar - g.length + 1 for g in ext.groups)} arcs",
    ]
    if reachable:
        # Along the path, node i at layer i, then t+'s waiting arcs up to layer alpha.
        path = [ext.node_id(i, i) for i in range(edge_length)] + [
            ext.node_id(edge_length, i) for i in range(edge_length, alpha + 1)
        ]
        narrative.append(f"feasible: path {' -> '.join(map(ext.node_name, path))}")
    else:
        narrative.append(
            f"infeasible: no {ext.node_name(source)} -> {ext.node_name(sink)} path exists"
        )
    narrative.append(f"flow-model status: {lp_status}")
    return DemoReport(edge_length, alpha, original_opt, reachable, lp_status, narrative)


# ---------------------------------------------------------------------------
# Degree-potential monitor for unit-length additive demands


@dataclass
class MonitorStep:
    u: int
    v: int
    executed: bool
    delta_degree_cost: int  # change of sum of squared degrees
    delta_slack: int  # change of the distance-slack potential
    delta_potential: int  # change of (degree cost - 12 * slack)


@dataclass
class MonitorReport:
    beta: int
    steps: list[MonitorStep]
    final_degree_cost: int
    final_size: int
    size_reference: float  # n^(3/2), the target growth curve

    @property
    def max_delta_potential(self) -> int:
        return max((s.delta_potential for s in self.steps), default=0)

    def to_text(self) -> str:
        lines = [
            f"steps: {len(self.steps)} ({sum(s.executed for s in self.steps)} executed)",
            f"max potential step: {self.max_delta_potential} (must be <= 0)",
            f"final sum of squared degrees: {self.final_degree_cost}",
            f"final size: {self.final_size} vs n^1.5 = {self.size_reference:.1f}",
        ]
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "beta": self.beta,
                "executed_steps": sum(s.executed for s in self.steps),
                "max_delta_potential": self.max_delta_potential,
                "final_degree_cost": self.final_degree_cost,
                "final_size": self.final_size,
                "size_reference": self.size_reference,
            },
            indent=2,
        )


def _slack_potential(instance: SpannerInstance, d_base, d_current, beta: int) -> int:
    """Sum over ordered node pairs of max(0, d_G - d_H + beta + 3).

    Unreachable pairs in H contribute nothing (their slack is -infinity).
    """
    n = instance.n
    total = 0
    bonus = beta + 3
    for u in range(n):
        row_g = d_base[u]
        row_h = d_current[u]
        for v in range(n):
            if u == v:
                continue
            dh = row_h[v]
            if dh is None:
                continue
            term = row_g[v] - dh + bonus
            if term > 0:
                total += term
    return total


def potential_monitor(
    instance: SpannerInstance,
    trace: list[GreedyStep],
    beta: int,
) -> MonitorReport:
    """Replay greedy path additions, asserting the potential never increases.

    Requires an undirected unit-length instance whose demands are exactly
    d_G(u,v) + beta for every node pair, with integer beta >= 2.  For each
    executed step the change of (sum of squared degrees) - 12 * (distance
    slack) must be non-positive; a violation raises
    :class:`MonotonicityViolation` and indicates a bug in the greedy phase.
    """
    if instance.directed:
        raise SpannerError("potential monitor requires an undirected instance")
    if beta < 2:
        raise SpannerError("potential monitor requires integer beta >= 2")
    if any(e.length != 1 for e in instance.edges):
        raise SpannerError("potential monitor requires unit lengths")
    def all_pairs(edge_set=None) -> list[list]:  # unit lengths: scale 1, integer distances
        view, _ = subgraph_views(instance, edge_set)
        return [shortest_distances(view, s) for s in range(instance.n)]

    d_base = all_pairs()
    if any(d is None for row in d_base for d in row):
        raise SpannerError("potential monitor requires a connected instance")
    pairs = {d.pair(False) for d in instance.demands}
    expected_pairs = {(u, v) for u in range(instance.n) for v in range(u + 1, instance.n)}
    if pairs != expected_pairs:
        raise SpannerError("potential monitor requires demands on all node pairs")
    for d in instance.demands:
        if d.delta != d_base[d.u][d.v] + beta:
            raise SpannerError(
                f"demand ({d.u},{d.v}) is {d.delta}, expected d_G + beta = "
                f"{d_base[d.u][d.v] + beta}"
            )

    chosen: set[int] = set()
    degree = [0] * instance.n
    degree_cost = 0
    slack = 0  # the empty spanner joins no two nodes, so no pair adds slack

    steps: list[MonitorStep] = []
    for step in trace:
        if not step.executed or not step.new_edges:
            steps.append(MonitorStep(step.u, step.v, step.executed, 0, 0, 0))
            continue
        new_cost = degree_cost
        for e in step.new_edges:
            edge = instance.edges[e]
            for q in (edge.u, edge.v):
                new_cost += 2 * degree[q] + 1
                degree[q] += 1
            chosen.add(e)
        new_slack = _slack_potential(instance, d_base, all_pairs(chosen), beta)
        delta_pot = (new_cost - 12 * new_slack) - (degree_cost - 12 * slack)
        if delta_pot > 0:
            raise MonotonicityViolation(
                f"step ({step.u},{step.v}) raised the potential by {delta_pot}"
            )
        steps.append(
            MonitorStep(
                step.u,
                step.v,
                True,
                new_cost - degree_cost,
                new_slack - slack,
                delta_pot,
            )
        )
        degree_cost, slack = new_cost, new_slack
    return MonitorReport(
        beta,
        steps,
        degree_cost,
        len(chosen),
        instance.n ** 1.5,
    )
