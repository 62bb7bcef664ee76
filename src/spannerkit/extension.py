"""Layered graph extension encoding integer edge lengths as layer jumps.

For a maximum distance bound ``delta_bar`` the extension has ``delta_bar + 1``
node layers, each a copy of V.  An edge (s,t) of length L yields arcs
``s_i -> t_{i+L}`` for every layer i where the head still exists; every node
additionally gets waiting self-arcs ``q_i -> q_{i+1}``.  All arcs strictly
increase the layer, so the extension is acyclic.  A pair (u,v) can be
connected within budget d in the base graph iff ``u_0`` reaches ``v_d`` here.

Edges longer than ``delta_bar`` can satisfy no bound and contribute no arcs.
Undirected instances are bi-directed first; both arc directions remember the
originating undirected edge.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .instance import IntegerInstance


@dataclass(frozen=True)
class ExtArc:
    tail: int  # extension node id
    head: int
    edge: int | None  # originating edge index; None for self-arcs
    forward: bool  # arc follows the stored edge orientation (always True if directed)


@dataclass(frozen=True)
class DeltaExtension:
    base: IntegerInstance
    delta_bar: int
    arcs: tuple[ExtArc, ...]
    # (edge index, forward) -> tuple of arc indices, one per start layer
    arcs_by_edge: dict
    # per node q: the arc index of its waiting arc q_i -> q_{i+1}, one per start layer i
    waiting_arcs: tuple[tuple[int, ...], ...]

    @property
    def layer_count(self) -> int:
        return self.delta_bar + 1

    @property
    def node_count(self) -> int:
        return self.base.n * (self.delta_bar + 1)

    def node_id(self, q: int, layer: int) -> int:
        return q * (self.delta_bar + 1) + layer

    def node_of(self, ext_id: int) -> tuple[int, int]:
        return divmod(ext_id, self.delta_bar + 1)

    def node_name(self, ext_id: int) -> str:
        q, i = self.node_of(ext_id)
        return f"{self.base.base.label(q)}_{i}"


def build_extension(instance: IntegerInstance, delta_bar: int | None = None) -> DeltaExtension:
    """Construct the layered extension of an integer-length instance.

    ``delta_bar`` defaults to the instance's maximum (floored) demand.
    """
    if delta_bar is None:
        delta_bar = instance.delta_bar
    if delta_bar < 0:
        raise ValueError("delta_bar must be non-negative")
    arcs: list[ExtArc] = []
    arcs_by_edge: dict = {}
    directions = (True,) if instance.directed else (True, False)
    for idx, e in enumerate(instance.edges):
        length = instance.lengths[idx]
        for forward in directions:
            s, t = (e.u, e.v) if forward else (e.v, e.u)
            ids = []
            for i in range(delta_bar - length + 1):
                arc_id = len(arcs)
                arcs.append(
                    ExtArc(
                        tail=s * (delta_bar + 1) + i,
                        head=t * (delta_bar + 1) + i + length,
                        edge=idx,
                        forward=forward,
                    )
                )
                ids.append(arc_id)
            arcs_by_edge[(idx, forward)] = tuple(ids)
    waiting_arcs = []
    for q in range(instance.n):
        waiting_arcs.append(tuple(range(len(arcs), len(arcs) + delta_bar)))
        for i in range(delta_bar):
            arcs.append(
                ExtArc(
                    tail=q * (delta_bar + 1) + i,
                    head=q * (delta_bar + 1) + i + 1,
                    edge=None,
                    forward=True,
                )
            )
    return DeltaExtension(instance, delta_bar, tuple(arcs), arcs_by_edge, tuple(waiting_arcs))


def reachable_path(
    extension: DeltaExtension,
    edge_subset,
    source_ext: int,
    target_ext: int,
) -> tuple[int, ...] | None:
    """BFS path (as arc indices) from one extension node to another.

    Only arcs whose originating edge lies in ``edge_subset`` are usable;
    self-arcs are always available.  Returns None when unreachable.
    """
    out: list[list[int]] = [[] for _ in range(extension.node_count)]
    for arc_id, arc in enumerate(extension.arcs):
        if arc.edge is None or arc.edge in edge_subset:
            out[arc.tail].append(arc_id)
    parent: dict[int, int] = {source_ext: -1}
    dq = deque([source_ext])
    while dq:
        q = dq.popleft()
        if q == target_ext:
            path = []
            while parent[q] != -1:
                arc_id = parent[q]
                path.append(arc_id)
                q = extension.arcs[arc_id].tail
            return tuple(reversed(path))
        for arc_id in out[q]:
            head = extension.arcs[arc_id].head
            if head not in parent:
                parent[head] = arc_id
                dq.append(head)
    return None
