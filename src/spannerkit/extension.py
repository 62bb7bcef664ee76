"""Layered graph extension encoding integer edge lengths as layer jumps.

The extension's depth ``delta_bar`` is the instance's largest demand bound;
it has ``delta_bar + 1`` node layers, each a copy of V.  An edge (s,t) of
length L yields arcs ``s_i -> t_{i+L}`` for every layer i where the head
still exists; every node additionally gets waiting self-arcs
``q_i -> q_{i+1}``.  All arcs strictly increase the layer, so the extension
is acyclic.  A pair (u,v) can be connected within budget d in the base
graph iff ``u_0`` reaches ``v_d`` here.

The arcs are stored as runs (:class:`ArcGroup`): one per edge direction and
one per node's waiting arcs, each a block of consecutive arc ids, one arc per
start layer.  Undirected instances are bi-directed first, so an undirected
edge gives two runs with the same edge index.  Edges longer than
``delta_bar`` can satisfy no bound and give no run.  The per-arc objects of
:attr:`DeltaExtension.arcs` are built from the runs on first use.  An
extension holds the instance it was built from and reads its integer
lengths and floored bounds off it (scale 1: the instance's own lengths).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .instance import SpannerInstance, require_integer_lengths


@dataclass(frozen=True)
class ExtArc:
    tail: int  # extension node id
    head: int
    edge: int | None  # originating edge index; None for self-arcs


@dataclass(frozen=True)
class ArcGroup:
    """The arcs ``tail_i -> head_{i+length}``, ``i = 0 .. delta_bar - length``, with ids ``first + i``."""

    edge: int | None  # originating edge index; None for a node's waiting arcs
    tail: int  # base node
    head: int  # base node; equal to tail for waiting arcs
    length: int  # layers each arc jumps; 1 for waiting arcs
    first: int  # arc id of the layer-0 arc


@dataclass(frozen=True)
class DeltaExtension:
    instance: SpannerInstance
    delta_bar: int
    groups: tuple[ArcGroup, ...]  # in arc-id order: edge runs, then waiting runs by node

    @cached_property
    def arcs(self) -> tuple[ExtArc, ...]:
        """Every arc, indexed by arc id.

        No function of the library reads it: the flow LP, the cut-lemma
        check and the subdivision demo all read :attr:`groups`.  It stays for
        the benchmark tracer's arc count (``perfbench/tracer.py``), demo 03
        and the tests, and goes with :class:`ExtArc` once the tracer counts
        the runs instead.
        """
        layers = self.delta_bar + 1
        return tuple(
            ExtArc(g.tail * layers + i, g.head * layers + i + g.length, g.edge)
            for g in self.groups
            for i in range(layers - g.length)
        )

    @property
    def layer_count(self) -> int:
        return self.delta_bar + 1

    @property
    def node_count(self) -> int:
        return self.instance.n * (self.delta_bar + 1)

    def node_id(self, q: int, layer: int) -> int:
        return q * (self.delta_bar + 1) + layer

    def node_of(self, ext_id: int) -> tuple[int, int]:
        return divmod(ext_id, self.delta_bar + 1)

    def node_name(self, ext_id: int) -> str:
        q, i = self.node_of(ext_id)
        return f"{self.instance.label(q)}_{i}"


def build_extension(instance: SpannerInstance) -> DeltaExtension:
    """Construct the layered extension of an integer-length instance.

    Its depth ``delta_bar`` is the instance's largest (floored) demand,
    ``instance.delta_bar``, so every demand's sink layer exists.
    Raises :class:`~spannerkit.errors.NonIntegerLength` on a fractional length.
    """
    require_integer_lengths(instance)
    delta_bar = instance.delta_bar
    runs = []  # (edge, tail, head, length)
    for idx, (e, length) in enumerate(zip(instance.edges, instance.lengths)):
        runs.append((idx, e.u, e.v, length))
        if not instance.directed:
            runs.append((idx, e.v, e.u, length))
    runs += [(None, q, q, 1) for q in range(instance.n)]
    groups = []
    first = 0
    for edge, tail, head, length in runs:
        if length <= delta_bar:
            groups.append(ArcGroup(edge, tail, head, length, first))
            first += delta_bar - length + 1
    return DeltaExtension(instance, delta_bar, tuple(groups))

