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

Every instance also carries its exact integer form, each field built on
first read and kept: :attr:`SpannerInstance.lengths`, each length times
:attr:`~SpannerInstance.scale`, the lcm ``L`` of the length denominators, and
:attr:`~SpannerInstance.bounds`, each bound floored to ``floor(delta * L)``,
one int per demand.  Scaled distances are integers, so a scaled distance
meets its floored bound exactly when the true distance meets the true bound.
Weights are scaled the same way by the lcm of their own denominators
(:attr:`~SpannerInstance.weights`).  Validation, verification, greedy, the
threshold search and the exact search run on these integers; fractions come
back only in reports.  With ``L = 1`` they are the integer lengths that the
layered extension requires (:func:`require_integer_lengths`).  The records
keep their ``Fraction`` values.

The instance also keeps its full graph's views and searches, each built on
first read, shared by every reader, never changed and kept for the
instance's life (they travel with a pickled instance): see
:attr:`~SpannerInstance.view`, :attr:`~SpannerInstance.reverse`,
:attr:`~SpannerInstance.reach`, :attr:`~SpannerInstance.unmet` and
:attr:`~SpannerInstance.metric`.

An instance's demands are the only ones its solvers and checks answer for,
through :attr:`~SpannerInstance.by_source` and ``reach``.  To ask about a
subset of them, make a copy that holds just those,
``dataclasses.replace(instance, demands=subset)``: the copy builds its own
integer fields and its own cached checks, as :meth:`~SpannerInstance.canonical`'s
result does.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
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
    delta: Fraction  # always in instance units; ``SpannerInstance.bounds`` holds it floored in scaled units

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

    def label(self, node: int) -> str:
        if self.labels is not None and 0 <= node < len(self.labels):
            return self.labels[node]
        return str(node)

    def node_by_label(self, label: str) -> int:
        if self.labels is None:
            raise KeyError(label)
        return self.labels.index(label)

    # The exact integer form (see the module docstring), each field built on first read and kept.

    @cached_property
    def scale(self) -> int:
        """The lcm ``L`` of the length denominators: every scaled length and distance is an integer."""
        return math.lcm(*(e.length.denominator for e in self.edges))

    @cached_property
    def lengths(self) -> tuple[int, ...]:
        """Each edge's length times :attr:`scale`, in edge order."""
        scale = self.scale
        return tuple(e.length.numerator * (scale // e.length.denominator) for e in self.edges)

    @cached_property
    def bounds(self) -> tuple[int, ...]:
        """Each demand's bound floored in scaled units, ``floor(delta * scale)``, in demand order."""
        scale = self.scale
        return tuple(d.delta.numerator * scale // d.delta.denominator for d in self.demands)

    @cached_property
    def delta_bar(self) -> int:
        """The largest scaled bound, 0 with no demand."""
        return max(self.bounds, default=0)

    @cached_property
    def weight_scale(self) -> int:
        """The lcm of the weight denominators, so weight sums and comparisons are integer."""
        return math.lcm(*(e.weight.denominator for e in self.edges))

    @cached_property
    def weights(self) -> tuple[int, ...]:
        """Each edge's weight times :attr:`weight_scale`, in edge order."""
        scale = self.weight_scale
        return tuple(e.weight.numerator * (scale // e.weight.denominator) for e in self.edges)

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
        """The full forward :func:`~spannerkit.graph.graph_view`: every edge, in edge-index order.

        :func:`~spannerkit.graph.subgraph_views` hands it to every reader of
        a subgraph that keeps every edge.  Validation's connectivity check,
        the exact search's private copy, the threshold search's top-weight
        arcs and the flow LP's and restricted gamma's budget windows read it
        too.  Shared: no reader may change it.
        """
        from .graph import graph_view

        return graph_view(self)

    @cached_property
    def reverse(self):
        """The full reversed view, for distances *to* a node: :attr:`view` itself when undirected.

        An undirected instance's reversed view has the same lists as its
        forward view, both in edge-index order.  Greedy's paths and the
        verifier's per-pair checks read it on the full graph, and the budget
        windows search back on it.  Shared: no reader may change it.
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
        Validation, the threshold search's check at the largest weight and
        its guard at the second-largest, and greedy's pair order on the full
        graph read them instead of searching again.  Shared: no reader may
        change them.
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

        :func:`~spannerkit.graph.metric_pairs` of this instance: a subgraph
        meets every demand iff it meets these.  The flow LP ships one
        commodity per kept pair; nothing else reads it, so it is built only
        when an LP is.
        """
        from .graph import metric_pairs

        return metric_pairs(self)

    def unscale(self, dist: int | None) -> Fraction | None:
        """A scaled distance in instance units; None (unreachable) stays None."""
        return None if dist is None else Fraction(dist, self.scale)

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
        instance = self.instance
        return Fraction(sum(instance.weights[i] for i in self.edge_set), instance.weight_scale)

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


# The most nodes an instance may have.  The view holds n adjacency lists and
# every search two n-long lists, so memory grows with n whatever the edges:
# ``n`` over the cap is reported before any record walk or integer field.
# Measured at the cap on a 2-core host, ``spannerkit verify`` of one edge and
# one demand: undirected, 0.7 s and 158 MB to report every other node
# unreachable; directed (accepted), 1.9 s and 234 MB.
MAX_NODES = 1_000_000


def validate(instance: SpannerInstance) -> ValidationReport:
    """Check every instance invariant and report all violations found.

    An instance with an empty report is accepted by every solver.  Demands
    whose bound is below the shortest achievable distance are rejected here
    (rather than silently dropped), as are demands beyond ``n * max_length``
    (those are equivalent to plain reachability and would blow up the layered
    extension for no benefit).

    A node count past :data:`MAX_NODES` is reported before anything else.
    The record checks walk each edge, then each demand, once, naming every
    offender in record order.  Only an instance whose records all pass builds
    its integer fields and searches for the distance checks.
    """
    report = ValidationReport()
    n = instance.n
    if n <= 0:
        report.add("bad-node-count", f"node count must be positive, got {n}")
        return report
    if n > MAX_NODES:
        report.add("bad-node-count", f"node count {n} is over the cap of {MAX_NODES}")
        return report
    if instance.labels is not None and len(instance.labels) != n:
        report.add("bad-labels", f"{len(instance.labels)} labels for {n} nodes")

    ids_ok = _walk_edges(instance, report) & _walk_demands(instance, report)
    if not ids_ok or report.codes() & {"nonpositive-length", "self-loop"}:
        return report  # distance checks below would be meaningless

    # Structural connectivity, then per-demand satisfiability (delta >= d_G),
    # both on the scaled integers.
    if not instance.directed:
        from .graph import shortest_distances

        dist0 = shortest_distances(instance.view, 0)
        unreachable = [q for q in range(n) if dist0[q] is None]
        if unreachable:  # the first ten by name, then a count
            more = f" and {len(unreachable) - 10} more" if len(unreachable) > 10 else ""
            report.add("not-connected", f"nodes {unreachable[:10]}{more} unreachable from node 0")

    budget_cap = n * max(instance.lengths, default=0)  # n * max_length, scaled
    achieved = dict(instance.unmet)
    # delta * scale past the cap has its floor, the scaled bound, at or past it: no other is oversized
    if not achieved and instance.delta_bar < budget_cap:
        return report
    for i, (d, bound) in enumerate(zip(instance.demands, instance.bounds)):
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
        if bound >= budget_cap and d.delta.numerator * instance.scale > budget_cap * d.delta.denominator:
            report.add(
                "oversized-demand",
                f"demand ({d.u},{d.v}) bound {format_rational(d.delta)} exceeds "
                f"n*max_length = {format_rational(instance.unscale(budget_cap))}; "
                "cap it there (same feasible set)",
            )
    return report


def _walk_edges(instance: SpannerInstance, report: ValidationReport) -> bool:
    """Report each edge that fails a record check, in edge order; whether every id is in range."""
    n, directed = instance.n, instance.directed
    seen_pairs: set[tuple[int, int]] = set()
    ids_ok = True
    for i, (u, v, weight, length) in enumerate(instance.edges):
        if not (0 <= u < n and 0 <= v < n):
            report.add("bad-node-id", f"edge {i} endpoints ({u},{v}) outside [0,{n})")
            ids_ok = False
            continue
        if u == v:
            report.add("self-loop", f"edge {i} is a self-loop at node {u}")
        key = (u, v) if directed or u <= v else (v, u)
        size = len(seen_pairs)
        seen_pairs.add(key)
        if len(seen_pairs) == size:
            report.add("duplicate-edge", f"edge {i} duplicates pair {key}")
        if weight.numerator < 0 or length.numerator <= 0:  # a Fraction's sign is its numerator's
            if weight.numerator < 0:
                report.add("negative-weight", f"edge {i} has weight {format_rational(weight)} < 0")
            if length.numerator <= 0:
                report.add("nonpositive-length", f"edge {i} has length {format_rational(length)} <= 0")
    return ids_ok


def _walk_demands(instance: SpannerInstance, report: ValidationReport) -> bool:
    """Report each demand that fails a record check, in demand order; whether every id is in range."""
    n, directed = instance.n, instance.directed
    seen_demands: set[tuple[int, int]] = set()
    ids_ok = True
    for i, (u, v, delta) in enumerate(instance.demands):
        if not (0 <= u < n and 0 <= v < n):
            report.add("bad-node-id", f"demand {i} endpoints ({u},{v}) outside [0,{n})")
            ids_ok = False
            continue
        if u == v:
            report.add("self-demand", f"demand {i} pairs node {u} with itself")
            continue
        key = (u, v) if directed or u <= v else (v, u)
        size = len(seen_demands)
        seen_demands.add(key)
        if len(seen_demands) == size:
            report.add("duplicate-demand", f"demand {i} duplicates pair {key}")
        if delta.numerator <= 0:
            report.add("nonpositive-demand", f"demand {i} has bound {format_rational(delta)} <= 0")
    return ids_ok


def require_integer_lengths(instance: SpannerInstance) -> None:
    """Check that every length is an integer (scale 1), so the scaled integers are the instance's own.

    Raises :class:`NonIntegerLength` naming the first offending edge.
    """
    if instance.scale != 1:  # the lcm of the length denominators
        i = next(i for i, e in enumerate(instance.edges) if not is_integer(e.length))
        raise NonIntegerLength(i, format_rational(instance.edges[i].length))


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
