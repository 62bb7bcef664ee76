"""Problem instances, validation, and the on-disk interchange format.

An instance is a simple connected graph (directed or undirected) whose edges
carry an independent non-negative weight and positive length, plus a list of
terminal pairs with positive distance demands.  A candidate solution is a
:class:`Subgraph`: a subset of the instance's edges.

Interchange format (JSON, one document per file)::

    {
      "directed": false,
      "n": 3,
      "edges":   [{"u": 0, "v": 1, "w": "5", "len": "1"}, ...],
      "demands": [{"u": 0, "v": 1, "delta": "3"}, ...],
      "labels":  ["a", "b", "c"]          # optional
    }

Rationals are serialized as ``"p/q"`` strings (``"p"`` alone means
denominator 1).  Canonical form sorts edges and demands by ``(u, v)`` with
undirected endpoints normalized to ``u < v``; two equal instances therefore
produce byte-identical files.

Every instance also has one exact integer view, :attr:`SpannerInstance.scaled`
(an :class:`IntegerInstance`), built on first use and kept: each length times
``scale``, the lcm ``L`` of the length denominators, and each bound floored to
``floor(delta * L)`` in :attr:`IntegerInstance.bounds`, one int per demand.
Scaled distances are integers, so a scaled distance meets its floored bound
exactly when the true distance meets the true bound.  Weights are scaled the
same way by the lcm of their own denominators.  Validation, verification,
greedy, the threshold search and the exact search run on this view;
fractions come back only in reports.  With ``L = 1`` it is the integer-length
view that the layered extension requires (:func:`require_integer_lengths`).
The view is a plain value cached on the instance: it shares the edge and
demand tuples, whose records keep their ``Fraction`` values, and builds no
record of its own; it holds no reference back, so a dropped instance is
freed with its view at once.  Every solver takes the instance.

The scaled view also holds the instance's full graph search, built once on
first use and kept for the instance's life: :attr:`IntegerInstance.view`,
the forward graph view of every edge, :attr:`IntegerInstance.reverse`, the
same reversed (the forward view itself when undirected), and one pass of
:func:`~spannerkit.graph.source_searches` on the forward view, read as two
values: :attr:`IntegerInstance.reach`, each demand source's search, bounded
at its largest bound and stopped at its targets, and capped at its
farthest target's distance where all of the source's pairs hold, and
:attr:`IntegerInstance.unmet`, the full graph's verdict on those searches,
each demand it misses with its exact distance.  Validation, the threshold
search's probe at the largest weight (the full graph) and greedy's pair
order and verdict on the full graph read them instead of searching or
deciding again, and greedy's and the verifier's per-pair searches are
goal-directed by the capped lists; the connectivity check and the exact
search's root check read the forward view, and the flow LP and the
restricted gamma read both views for their budget windows.  The flow LP
also reads :attr:`IntegerInstance.metric`, the indices of the demands no
chain of other demands implies, its commodities.  All are shared, so no
reader may change them.  They travel with a pickled instance.

An instance's demands are the only ones its solvers and checks answer for,
through :attr:`IntegerInstance.by_source` and ``reach``.  To ask about a
subset of them, make a copy that holds just those,
``dataclasses.replace(instance, demands=subset)``: the copy has its own
scaled view and its own cached checks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import eq
from typing import NamedTuple

from .errors import InvalidInstance, NonIntegerLength, ParseError
from .rational import as_fraction, format_rational, is_integer, parse_rational


class Edge(NamedTuple):
    u: int
    v: int
    weight: Fraction
    length: Fraction


class Demand(NamedTuple):
    u: int
    v: int
    delta: Fraction  # always in instance units; the scaled view floors it into ``scaled.bounds``

    def pair(self, directed: bool) -> tuple[int, int]:
        """The pair key; undirected demands are unordered."""
        if directed or self.u <= self.v:
            return (self.u, self.v)
        return (self.v, self.u)


@dataclass(frozen=True)
class SpannerInstance:
    """Immutable problem instance. Safe for concurrent reads once built."""

    directed: bool
    n: int
    edges: tuple[Edge, ...]
    demands: tuple[Demand, ...]
    labels: tuple[str, ...] | None = None

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def lengths(self) -> tuple[Fraction, ...]:
        return tuple(e.length for e in self.edges)

    def label(self, node: int) -> str:
        if self.labels is not None and 0 <= node < len(self.labels):
            return self.labels[node]
        return str(node)

    def node_by_label(self, label: str) -> int:
        if self.labels is None:
            raise KeyError(label)
        return self.labels.index(label)

    @cached_property
    def scaled(self) -> "IntegerInstance":
        """The exact integer view, built once per instance (see the module docstring)."""
        scale = math.lcm(*(e.length.denominator for e in self.edges))
        lengths = tuple(e.length.numerator * (scale // e.length.denominator) for e in self.edges)
        bounds = tuple(d.delta.numerator * scale // d.delta.denominator for d in self.demands)
        weight_scale = math.lcm(*(e.weight.denominator for e in self.edges))
        weights = tuple(e.weight.numerator * (weight_scale // e.weight.denominator) for e in self.edges)
        return IntegerInstance(
            self.directed,
            self.n,
            self.edges,
            lengths,
            self.demands,
            bounds,
            max(bounds, default=0),
            scale,
            weights,
            weight_scale,
        )

    def canonical(self) -> "SpannerInstance":
        """Sorted edges/demands with undirected endpoints normalized u < v."""
        edges = []
        for e in self.edges:
            u, v = e.u, e.v
            if not self.directed and u > v:
                u, v = v, u
            edges.append(Edge(u, v, as_fraction(e.weight), as_fraction(e.length)))
        edges.sort(key=lambda e: (e.u, e.v))
        demands = []
        for d in self.demands:
            u, v = d.pair(self.directed)
            demands.append(Demand(u, v, as_fraction(d.delta)))
        demands.sort(key=lambda d: (d.u, d.v))
        return SpannerInstance(self.directed, self.n, tuple(edges), tuple(demands), self.labels)

    def is_canonical(self) -> bool:
        """Whether :meth:`canonical` leaves every edge and demand in its place and orientation."""
        for records in (self.edges, self.demands):
            keys = [(r.u, r.v) for r in records]
            oriented = self.directed or all(u <= v for u, v in keys)
            if not oriented or any(a > b for a, b in zip(keys, keys[1:])):
                return False
        return True


@dataclass(frozen=True)
class Subgraph:
    """An edge subset of an instance: a candidate spanner."""

    instance: SpannerInstance
    edge_set: frozenset[int]

    @property
    def weight(self) -> Fraction:
        scaled = self.instance.scaled
        return Fraction(sum(scaled.weights[i] for i in self.edge_set), scaled.weight_scale)

    @property
    def size(self) -> int:
        return len(self.edge_set)

    def edge_pairs(self) -> list[tuple[int, int]]:
        return sorted((self.instance.edges[i].u, self.instance.edges[i].v) for i in self.edge_set)


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class Violation:
    code: str
    message: str


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, code: str, message: str) -> None:
        self.violations.append(Violation(code, message))

    def codes(self) -> set[str]:
        return {v.code for v in self.violations}

    def describe(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join(f"  [{v.code}] {v.message}" for v in self.violations)

    def raise_if_invalid(self) -> None:
        if not self.ok:
            raise InvalidInstance(self)


def validate(instance: SpannerInstance) -> ValidationReport:
    """Check every instance invariant and report all violations found.

    An instance with an empty report is accepted by every solver.  Demands
    whose bound is below the shortest achievable distance are rejected here
    (rather than silently dropped), as are demands beyond ``n * max_length``
    (those are equivalent to plain reachability and would blow up the layered
    extension for no benefit).

    The record checks run in bulk on the scaled view's integers; only a list
    that fails one is walked record by record, to name each offender.
    """
    report = ValidationReport()
    n = instance.n
    if n <= 0:
        report.add("bad-node-count", f"node count must be positive, got {n}")
        return report
    if instance.labels is not None and len(instance.labels) != n:
        report.add("bad-labels", f"{len(instance.labels)} labels for {n} nodes")

    scaled = instance.scaled  # the scale is positive: scaled weights, lengths and bounds keep their signs
    ids_ok = True
    signs_ok = min(scaled.weights, default=0) >= 0 and min(scaled.lengths, default=1) > 0
    if not _records_ok(instance.edges, n, instance.directed, signs_ok):
        ids_ok &= _walk_edges(instance, report)
    if not _records_ok(instance.demands, n, instance.directed, min(scaled.bounds, default=1) >= 1):
        ids_ok &= _walk_demands(instance, report)
    if not ids_ok or report.codes() & {"nonpositive-length", "self-loop"}:
        return report  # distance checks below would be meaningless

    # Structural connectivity, then per-demand satisfiability (delta >= d_G),
    # both on the scaled integer view.
    if not instance.directed:
        from .graph import shortest_distances

        dist0 = shortest_distances(scaled.view, 0)
        unreachable = [q for q in range(n) if dist0[q] is None]
        if unreachable:
            report.add("not-connected", f"nodes {unreachable} unreachable from node 0")

    budget_cap = n * max(scaled.lengths, default=0)  # n * max_length, scaled
    achieved = dict(scaled.unmet)
    # delta * scale past the cap has its floor, the scaled bound, at or past it: no other is oversized
    if not achieved and scaled.delta_bar < budget_cap:
        return report
    for i, (d, bound) in enumerate(zip(instance.demands, scaled.bounds)):
        if d.u == d.v:
            continue
        if i in achieved:
            dist = achieved[i]
            got = "unreachable" if dist is None else format_rational(dist)
            report.add(
                "unsatisfiable-demand",
                f"demand ({d.u},{d.v}) asks for {format_rational(d.delta)} "
                f"but the graph only achieves {got}",
            )
        if bound >= budget_cap and d.delta.numerator * scaled.scale > budget_cap * d.delta.denominator:
            report.add(
                "oversized-demand",
                f"demand ({d.u},{d.v}) bound {format_rational(d.delta)} exceeds "
                f"n*max_length = {format_rational(scaled.unscale(budget_cap))}; "
                "cap it there (same feasible set)",
            )
    return report


def _records_ok(records, n: int, directed: bool, signs_ok: bool) -> bool:
    """Whether edge or demand ``records`` pass every per-record check: ids, self-pairs, repeats, signs.

    One bulk pass: endpoint ranges from min/max, self-pairs from one
    comparison of the endpoint columns, repeats from the size of the set of
    ordered pairs and, when undirected, from its meeting the reversed pairs.
    ``signs_ok`` is the caller's sign check.
    """
    if not records:
        return True
    us, vs = list(zip(*records))[:2]
    if not (signs_ok and 0 <= min(us) and 0 <= min(vs) and max(us) < n and max(vs) < n):
        return False
    if any(map(eq, us, vs)):
        return False
    pairs = set(zip(us, vs))
    return len(pairs) == len(records) and (directed or pairs.isdisjoint(zip(vs, us)))


def _walk_edges(instance: SpannerInstance, report: ValidationReport) -> bool:
    """Report each edge that fails a record check, in edge order; whether every id is in range."""
    seen_pairs: set[tuple[int, int]] = set()
    ids_ok = True
    for i, e in enumerate(instance.edges):
        if not (0 <= e.u < instance.n and 0 <= e.v < instance.n):
            report.add("bad-node-id", f"edge {i} endpoints ({e.u},{e.v}) outside [0,{instance.n})")
            ids_ok = False
            continue
        if e.u == e.v:
            report.add("self-loop", f"edge {i} is a self-loop at node {e.u}")
        key = (e.u, e.v) if instance.directed or e.u <= e.v else (e.v, e.u)
        if key in seen_pairs:
            report.add("duplicate-edge", f"edge {i} duplicates pair {key}")
        seen_pairs.add(key)
        if e.weight.numerator < 0:  # a Fraction's sign is its numerator's
            report.add("negative-weight", f"edge {i} has weight {format_rational(e.weight)} < 0")
        if e.length.numerator <= 0:
            report.add("nonpositive-length", f"edge {i} has length {format_rational(e.length)} <= 0")
    return ids_ok


def _walk_demands(instance: SpannerInstance, report: ValidationReport) -> bool:
    """Report each demand that fails a record check, in demand order; whether every id is in range."""
    seen_demands: set[tuple[int, int]] = set()
    ids_ok = True
    for i, d in enumerate(instance.demands):
        if not (0 <= d.u < instance.n and 0 <= d.v < instance.n):
            report.add("bad-node-id", f"demand {i} endpoints ({d.u},{d.v}) outside [0,{instance.n})")
            ids_ok = False
            continue
        if d.u == d.v:
            report.add("self-demand", f"demand {i} pairs node {d.u} with itself")
            continue
        key = d.pair(instance.directed)
        if key in seen_demands:
            report.add("duplicate-demand", f"demand {i} duplicates pair {key}")
        seen_demands.add(key)
        if d.delta.numerator <= 0:
            report.add("nonpositive-demand", f"demand {i} has bound {format_rational(d.delta)} <= 0")
    return ids_ok


# ---------------------------------------------------------------------------
# The scaled integer view


@dataclass(frozen=True)
class IntegerInstance:
    """An instance in exact integer units: lengths times ``scale``, bounds floored.

    ``scale`` is the lcm of the length denominators, so every scaled length,
    and therefore every scaled distance, is an integer; flooring a scaled
    bound then loses nothing.  A scaled distance ``d`` is ``Fraction(d,
    scale)`` in instance units (:meth:`unscale`).  Weights are scaled on
    their own, by the lcm ``weight_scale`` of their denominators, so weight
    sums and comparisons are integer too.  Built once per instance as
    :attr:`SpannerInstance.scaled`; with ``scale == 1`` it is the
    integer-length view the layered-extension LP requires.  A value cached on
    its instance with no reference back: ``n`` and ``directed`` are its own,
    and ``edges`` and ``demands`` are the instance's own tuples, shared.  The
    demands keep their ``Fraction`` bounds; their scaled bounds are
    :attr:`bounds`, ``floor(delta * scale)`` per demand, in demand order.

    :attr:`view`, :attr:`reverse`, :attr:`reach`, :attr:`unmet` and
    :attr:`metric` (see the module docstring) are built on first use and
    kept, like :attr:`by_source`; :attr:`reach` and :attr:`unmet` are the
    two results of one search pass, made when either is first read.
    They are shared by every reader and read-only: a reader that needs other
    values builds new lists.
    """

    directed: bool
    n: int
    edges: tuple[Edge, ...]  # the instance's own tuple, shared
    lengths: tuple[int, ...]
    demands: tuple[Demand, ...]  # the instance's own tuple, shared
    bounds: tuple[int, ...]  # floor(delta * scale), one per demand
    delta_bar: int
    scale: int
    weights: tuple[int, ...]
    weight_scale: int

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def by_source(self) -> tuple:
        """Checks per source: ``(source, largest bound, ((target, bound, demand index), ...), nodes)``.

        Sources keep their first-appearance order; self-pairs are left out.
        One search from each source, bounded at its largest bound and
        stopped once ``nodes`` (the frozenset of its target nodes) is
        settled, settles all of that source's pairs.
        """
        targets: dict[int, list[tuple[int, int, int]]] = {}
        for i, ((u, v, _), bound) in enumerate(zip(self.demands, self.bounds)):
            if u != v:
                targets.setdefault(u, []).append((v, bound, i))
        return tuple(
            (u, max(b for _, b, _ in ts), tuple(ts), frozenset(v for v, _, _ in ts))
            for u, ts in targets.items()
        )

    @cached_property
    def view(self):
        """The full forward :func:`~spannerkit.graph.graph_view`: every edge, in edge-index order."""
        from .graph import graph_view

        return graph_view(self)

    @cached_property
    def reverse(self):
        """The full reversed view, for distances *to* a node: :attr:`view` itself when undirected.

        An undirected instance's reversed view has the same lists as its
        forward view, both in edge-index order.
        """
        from .graph import graph_view

        return graph_view(self, reverse=True) if self.directed else self.view

    @cached_property
    def _searches(self) -> tuple:
        """:func:`~spannerkit.graph.source_searches` of :attr:`view` and :attr:`by_source`, made once."""
        from .graph import source_searches

        return source_searches(self.view, self.by_source, self.scale)

    @cached_property
    def reach(self) -> tuple[list, ...]:
        """One distance list per :attr:`by_source` check, in check order, searched on :attr:`view`.

        Each is that source's search bounded at its largest bound and
        stopped once its targets are settled: exact at every target within
        its bound, None past it.  Where every pair of the source holds, the
        list is capped at the distance T of its farthest target:
        min(d(source, x), T) at every node x, a consistent lower bound on the
        source's distances in every subgraph, which greedy and the verifier
        search by.  The lists of :func:`~spannerkit.graph.source_searches`.
        """
        return self._searches[0]

    @cached_property
    def unmet(self) -> tuple[tuple[int, Fraction | None], ...]:
        """The full graph's verdict: ``(demand index, exact distance)`` of each demand it misses, by index.

        The verdict of the same pass as :attr:`reach`
        (:func:`~spannerkit.graph.source_searches`), the distance in
        instance units (None: unreachable).  Validation, the threshold
        search and greedy on the whole graph read it; empty for every valid
        instance.
        """
        return self._searches[1]

    @cached_property
    def metric(self) -> tuple[int, ...]:
        """The indices of the demands no chain of other demands implies, in demand order.

        :func:`~spannerkit.graph.metric_pairs` of this view: a subgraph
        meets every demand iff it meets these.  The flow LP ships one
        commodity per kept pair; nothing else reads it, so it is built only
        when an LP is.
        """
        from .graph import metric_pairs

        return metric_pairs(self)

    def unscale(self, dist: int | None) -> Fraction | None:
        """A scaled distance in instance units; None (unreachable) stays None."""
        return None if dist is None else Fraction(dist, self.scale)


def require_integer_lengths(instance: SpannerInstance) -> IntegerInstance:
    """The scaled view of an instance whose lengths are all integers (scale 1).

    Raises :class:`NonIntegerLength` naming the first offending edge.
    """
    scaled = instance.scaled
    if scaled.scale != 1:  # the lcm of the length denominators
        i = next(i for i, e in enumerate(instance.edges) if not is_integer(e.length))
        raise NonIntegerLength(i, format_rational(instance.edges[i].length))
    return scaled


# ---------------------------------------------------------------------------
# Interchange format


def to_json_dict(instance: SpannerInstance) -> dict:
    """The document of the instance's canonical form, the one builder of instance files.

    A canonical instance (every loaded or generated one) is written as it is,
    with no second canonical pass; any other is put in canonical form first.
    """
    inst = instance if instance.is_canonical() else instance.canonical()
    doc: dict = {
        "directed": inst.directed,
        "n": inst.n,
        "edges": [
            {"u": e.u, "v": e.v, "w": format_rational(e.weight), "len": format_rational(e.length)}
            for e in inst.edges
        ],
        "demands": [
            {"u": d.u, "v": d.v, "delta": format_rational(d.delta)} for d in inst.demands
        ],
    }
    if inst.labels is not None:
        doc["labels"] = list(inst.labels)
    return doc


_TOP_KEYS = ("directed", "n", "edges", "demands", "labels")
_EDGE_KEYS = ("u", "v", "w", "len")
_DEMAND_KEYS = ("u", "v", "delta")


def _node_id(value, record: str, i: int, key: str, path: str | None) -> int:
    # bool is a subclass of int, but `true` is not a node id; floats are not truncated
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"node id must be an integer, got {value!r}", path=path, field=f"{record}[{i}].{key}")
    return value


def _unknown_key(record, keys: tuple[str, ...], where: str, path: str | None) -> ParseError | None:
    """The error naming ``record``'s first key outside ``keys``, or None when it has none."""
    if isinstance(record, dict):
        for key in record:
            if key not in keys:
                return ParseError(
                    f"unknown key; the keys are {', '.join(keys)}", path=path, field=f"{where}{key}"
                )
    return None


def from_json_dict(doc: dict, *, path: str | None = None) -> SpannerInstance:
    """The canonical instance a document describes; a malformed one raises :class:`ParseError`.

    One pass builds each record once and tells whether the records are
    already in canonical order and orientation: such a document (every saved
    file) is returned as parsed, any other is put in canonical form.  Each
    distinct rational string is parsed once per document.  A key outside the
    format, in the document or in a record, is an error, never ignored.
    """
    try:
        directed = doc["directed"]
        n = doc["n"]
        raw_edges = doc["edges"]
        raw_demands = doc["demands"]
    except KeyError as exc:
        raise ParseError(f"missing required key {exc.args[0]!r}", path=path) from None
    if len(doc) != 4 + ("labels" in doc):
        raise _unknown_key(doc, _TOP_KEYS, "", path)
    if not isinstance(directed, bool):
        raise ParseError(f"must be true or false, got {directed!r}", path=path, field="directed")
    if isinstance(n, bool) or not isinstance(n, int):
        raise ParseError(f"node count must be an integer, got {n!r}", path=path, field="n")
    for key, records in (("edges", raw_edges), ("demands", raw_demands)):
        if not isinstance(records, list):
            raise ParseError(f"must be a list of records, got {records!r}", path=path, field=key)
    parsed: dict[str, Fraction] = {}  # each distinct rational string, once it has parsed

    def rational(text, record: str, i: int, key: str) -> Fraction:
        # a string not parsed yet, or any other value: parse_rational accepts or names it
        try:
            value = parse_rational(text)
        except ParseError as exc:
            raise ParseError(exc.reason, path=path, field=f"{record}[{i}].{key}") from None
        if type(text) is str:
            parsed[text] = value
        return value

    def malformed(record, keys: tuple[str, ...], name: str, i: int) -> ParseError:
        where = f"{name}[{i}]."
        return _unknown_key(record, keys, where, path) or ParseError(
            f"malformed {name[:-1]} record {i}", path=path
        )

    canonical = True  # every record so far in canonical order and orientation
    edges = []
    prev: tuple = ()
    for i, e in enumerate(raw_edges):
        try:
            if len(e) != 4:
                raise KeyError
            u, v, w, ln = e["u"], e["v"], e["w"], e["len"]
        except (KeyError, TypeError):
            raise malformed(e, _EDGE_KEYS, "edges", i) from None
        if type(u) is not int:
            u = _node_id(u, "edges", i, "u", path)
        if type(v) is not int:
            v = _node_id(v, "edges", i, "v", path)
        weight = parsed.get(w) if type(w) is str else None
        if weight is None:
            weight = rational(w, "edges", i, "w")
        length = parsed.get(ln) if type(ln) is str else None
        if length is None:
            length = rational(ln, "edges", i, "len")
        edges.append(Edge(u, v, weight, length))
        key = (u, v)
        if key < prev or u > v and not directed:
            canonical = False
        prev = key
    demands = []
    prev = ()
    for i, d in enumerate(raw_demands):
        try:
            if len(d) != 3:
                raise KeyError
            u, v, text = d["u"], d["v"], d["delta"]
        except (KeyError, TypeError):
            raise malformed(d, _DEMAND_KEYS, "demands", i) from None
        if type(u) is not int:
            u = _node_id(u, "demands", i, "u", path)
        if type(v) is not int:
            v = _node_id(v, "demands", i, "v", path)
        delta = parsed.get(text) if type(text) is str else None
        if delta is None:
            delta = rational(text, "demands", i, "delta")
        demands.append(Demand(u, v, delta))
        key = (u, v)
        if key < prev or u > v and not directed:
            canonical = False
        prev = key
    labels = doc.get("labels")
    if not (labels is None or isinstance(labels, list) and all(isinstance(x, str) for x in labels)):
        raise ParseError(f"must be null or a list of strings, got {labels!r}", path=path, field="labels")
    labels = None if labels is None else tuple(labels)
    instance = SpannerInstance(directed, n, tuple(edges), tuple(demands), labels)
    return instance if canonical else instance.canonical()


def save(instance: SpannerInstance, path: str) -> None:
    """Write :func:`to_json_dict`'s document, indented by ``json``, in one write.

    Deterministic byte-for-byte: equal instances give equal files.
    """
    text = json.dumps(to_json_dict(instance), indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_json_object(path: str) -> dict:
    """Parse a JSON file whose top-level value must be an object."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad syntax or UTF-8, too many digits, too deep
            raise ParseError(f"not valid JSON: {exc}", path=path) from None
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object", path=path)
    return doc


def load(path: str) -> SpannerInstance:
    return from_json_dict(read_json_object(path), path=path)
