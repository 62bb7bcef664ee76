"""Seeded instance generators: weight/length families, demand families, and
the fixed hand-built instances used throughout the docs and tests.

All randomness flows through one ``random.Random(seed)``, so a (family,
params, seed) triple always produces the same instance, byte for byte after
canonical serialization.  Demand bounds are built in the instance's scaled
integer units (``instance.lengths``): from a scaled distance ``d``,
which is ``d / L`` in instance units, each bound's formula, the
``n * max_length`` cap and the floor are integer arithmetic on one
numerator/denominator pair, made a ``Fraction`` once.  That is the value
the formula gives in Fractions.  Undirected instances come out in canonical
form and are returned as built.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .errors import TooLarge
from .graph import shortest_distances
from .instance import Demand, Edge, SpannerInstance

WEIGHT_FAMILIES = ("decoupled", "coupled", "unit-length", "basic", "geometric", "anti-correlated")
DEMAND_FAMILIES = ("multiplicative", "additive", "freeform")
DEMAND_PAIRS = ("edges", "all", "random")
FIXED_INSTANCES = ("example5", "triangle", "dk-edge")

GEO_DENOM = 2**20  # geometric coordinates/lengths are rounded to this grid

# The most edges one generated instance may have, and the most node pairs it
# may list as demand candidates; both are known from n and m before anything
# is built.  Geometric n=400 (79,800 edges, each pair also a demand) took 34 s
# and 294 MB to generate on a 2-core host, about 1.8 KB per edge with its
# demand, so the cap keeps one generation near 1 GB and a few minutes.
MAX_GENERATED_PAIRS = 250_000


def example5() -> SpannerInstance:
    """Directed 3-node instance whose optimum spanner has weight exactly 2."""
    return SpannerInstance(
        directed=True,
        n=3,
        edges=(
            Edge(0, 1, Fraction(5), Fraction(1)),
            Edge(0, 2, Fraction(1), Fraction(2)),
            Edge(2, 1, Fraction(1), Fraction(1)),
        ),
        demands=(Demand(0, 1, Fraction(3)), Demand(0, 2, Fraction(2)), Demand(2, 1, Fraction(2))),
        labels=("a", "b", "c"),
    ).canonical()


def nonmetric_triangle() -> SpannerInstance:
    """Undirected triangle with a cheap non-metric edge; stretch-4 demands.

    The optimum keeps the non-metric edge (weight 3/2); dropping that edge
    from the instance forces weight 2.  Shows why non-metric edges cannot be
    discarded when weights and lengths are independent.
    """
    return SpannerInstance(
        directed=False,
        n=3,
        edges=(
            Edge(0, 1, Fraction(1), Fraction(1)),
            Edge(0, 2, Fraction(1, 2), Fraction(3)),
            Edge(1, 2, Fraction(1), Fraction(1)),
        ),
        demands=(
            Demand(0, 1, Fraction(4)),  # 4 * d(x,y) = 4
            Demand(0, 2, Fraction(8)),  # 4 * d(x,z) = 8 (via y, not the length-3 edge)
            Demand(1, 2, Fraction(4)),
        ),
        labels=("x", "y", "z"),
    ).canonical()


def dk_edge() -> SpannerInstance:
    """Single directed edge (weight 1, length 3) with a stretch-2 demand."""
    return SpannerInstance(
        directed=True,
        n=2,
        edges=(Edge(0, 1, Fraction(1), Fraction(3)),),
        demands=(Demand(0, 1, Fraction(6)),),
        labels=("s", "t"),
    ).canonical()


def fixed_instance(name: str) -> SpannerInstance:
    table = {"example5": example5, "triangle": nonmetric_triangle, "dk-edge": dk_edge}
    if name not in table:
        raise ValueError(f"unknown fixed instance {name!r}; have {sorted(table)}")
    return table[name]()


# ---------------------------------------------------------------------------
# Random topology


def _random_connected_edges(
    rng: random.Random, n: int, m: int
) -> tuple[list[tuple[int, int]], set[tuple[int, int]]]:
    """Random spanning tree plus extra distinct non-tree edges, u < v.

    Returns the sorted edge list and the subset forming the tree.
    """
    max_m = n * (n - 1) // 2
    m = max(n - 1, min(m, max_m))
    tree: set[tuple[int, int]] = set()
    nodes = list(range(n))
    rng.shuffle(nodes)
    for i in range(1, n):
        other = nodes[rng.randrange(i)]
        tree.add((min(nodes[i], other), max(nodes[i], other)))
    pairs = set(tree)
    while len(pairs) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        pairs.add((min(u, v), max(u, v)))
    return sorted(pairs), tree


def _rational(rng: random.Random, lo: int, hi: int, max_den: int) -> Fraction:
    den = rng.randint(1, max_den)
    num = rng.randint(lo * den, hi * den)
    return Fraction(num, den)


def random_instance(
    family: str,
    n: int,
    m: int,
    seed: int,
    *,
    demand_family: str = "multiplicative",
    demand_pairs: str = "edges",  # one of DEMAND_PAIRS
    num_demands: int | None = None,
    alpha: Fraction | int = 2,
    beta: int = 2,
    freeform_factor: Fraction | int = 2,
    integer_lengths: bool = False,
    max_length: int = 3,
    directed: bool = False,
) -> SpannerInstance:
    """Generate a seeded random instance of the requested families.

    Raises :class:`TooLarge`, before allocating, when the instance would
    have more than :data:`MAX_GENERATED_PAIRS` edges or list more node pairs
    as demand candidates.
    """
    if family not in WEIGHT_FAMILIES:
        raise ValueError(f"unknown family {family!r}; have {WEIGHT_FAMILIES}")
    if demand_family not in DEMAND_FAMILIES:
        raise ValueError(f"unknown demand family {demand_family!r}; have {DEMAND_FAMILIES}")
    if num_demands is not None and num_demands < 0:
        raise ValueError(f"num_demands must be at least 0, got {num_demands}")
    node_pairs = n * (n - 1) // 2
    edge_count = node_pairs if family == "geometric" else max(n - 1, min(m, node_pairs))
    size = max(edge_count, node_pairs if demand_pairs in ("all", "random") else 0)
    if size > MAX_GENERATED_PAIRS:
        raise TooLarge(
            f"n={n}, m={m} needs {size} edges or listed demand pairs, over the cap of {MAX_GENERATED_PAIRS}"
        )
    rng = random.Random(seed)

    if family == "geometric":
        points = [
            (
                Fraction(rng.randrange(GEO_DENOM), GEO_DENOM),
                Fraction(rng.randrange(GEO_DENOM), GEO_DENOM),
            )
            for _ in range(n)
        ]
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = []
        for u, v in pairs:
            dx = float(points[u][0] - points[v][0])
            dy = float(points[u][1] - points[v][1])
            dist = Fraction(max(1, round(math.hypot(dx, dy) * GEO_DENOM)), GEO_DENOM)
            edges.append(Edge(u, v, dist, dist))  # coupled by construction
        directed = False
        tree_pairs: set[tuple[int, int]] = set()
    else:

        def length() -> Fraction:
            if integer_lengths:
                return Fraction(rng.randint(1, max_length))
            return _rational(rng, 1, max_length, 4)

        pairs, tree_pairs = _random_connected_edges(rng, n, m)
        edges = []
        for u, v in pairs:
            if family == "basic":
                w = ln = Fraction(1)
            elif family == "coupled":
                w = ln = length()
            elif family == "unit-length":
                ln = Fraction(1)
                w = _rational(rng, 0, 10, 8)
            elif family == "anti-correlated":
                ln = length()
                w = Fraction(10) / ln  # expensive when fast
            else:  # decoupled: independent draws
                ln = length()
                w = _rational(rng, 0, 10, 8)
            edges.append(Edge(u, v, w, ln))

    instance = SpannerInstance(directed, n, tuple(edges), (), None)
    if directed:
        # Bi-direct the tree edges so every pair stays reachable, then keep
        # the remaining edges in a random single orientation.
        directed_edges = []
        for e in instance.edges:
            if (e.u, e.v) in tree_pairs:
                directed_edges.append(e)
                directed_edges.append(Edge(e.v, e.u, e.weight, e.length))
            elif rng.random() < 0.5:
                directed_edges.append(e)
            else:
                directed_edges.append(Edge(e.v, e.u, e.weight, e.length))
        instance = SpannerInstance(True, n, tuple(directed_edges), (), None)

    if demand_pairs == "edges":
        pair_list = sorted({(min(e.u, e.v), max(e.u, e.v)) for e in instance.edges})
    elif demand_pairs == "all":
        pair_list = [(u, v) for u in range(n) for v in range(u + 1, n)]
    elif demand_pairs == "random":
        count = num_demands if num_demands is not None else max(1, n // 2)
        all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(all_pairs)
        pair_list = sorted(all_pairs[:count])
    else:
        raise ValueError(f"unknown demand_pairs {demand_pairs!r}; have {DEMAND_PAIRS}")

    view, L = instance.view, instance.scale
    partners: dict[int, set[int]] = {}
    for u, v in pair_list:
        partners.setdefault(u, set()).add(v)
    dist_cache: dict[int, list] = {}
    alpha = Fraction(alpha)
    p, q = Fraction(freeform_factor).as_integer_ratio()
    cap = instance.n * max(instance.lengths, default=0)  # n * max_length is cap / L; n = 1 has no edges
    # Flooring keeps integer-length instances in the LP's domain; with any
    # fractional length (the geometric family) it would zero most bounds.
    floor_bounds = integer_lengths and L == 1
    demands = []
    for u, v in pair_list:
        if u not in dist_cache:  # one search per source, up to its pair partners
            dist_cache[u] = shortest_distances(view, u, targets=partners[u])
        d = dist_cache[u][v]
        if d is None:
            continue
        if demand_family == "multiplicative":
            num, den = alpha.numerator * d, alpha.denominator * L
        elif demand_family == "additive":
            num, den = d + beta * L, L
        else:  # freeform: a random stretch 1 + (p/q - 1) * r/16 in [1, p/q]
            num, den = (16 * q + (p - q) * rng.randint(0, 16)) * d, 16 * q * L
        if num * L > cap * den:  # same feasible set; keeps extensions small
            num, den = cap, L
        delta = Fraction(num // den) if floor_bounds else Fraction(num, den)
        demands.append(Demand(u, v, delta))
    instance = SpannerInstance(instance.directed, n, instance.edges, tuple(demands), None)
    return instance if instance.is_canonical() else instance.canonical()
