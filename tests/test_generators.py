import hashlib
import json
import math
import random
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bellman_ford, fraction_view
from spannerkit import generators
from spannerkit.generators import (
    DEMAND_FAMILIES,
    DEMAND_PAIRS,
    GEO_DENOM,
    WEIGHT_FAMILIES,
    dk_edge,
    example5,
    fixed_instance,
    nonmetric_triangle,
    random_instance,
)
from spannerkit.graph import shortest_distances
from spannerkit.instance import Edge, SpannerInstance, load, save, to_json_dict, validate


def test_fixed_instances_valid():
    for name in ("example5", "triangle", "dk-edge"):
        assert validate(fixed_instance(name)).ok


def test_fixed_instance_unknown_name():
    with pytest.raises(ValueError):
        fixed_instance("nope")


def test_example5_fields():
    inst = example5()
    assert inst.directed and inst.n == 3 and inst.m == 3
    weights = {(e.u, e.v): e.weight for e in inst.edges}
    assert weights[(0, 1)] == 5


def test_triangle_demands_are_four_times_distance():
    tri = nonmetric_triangle()
    view = fraction_view(tri)
    for d in tri.demands:
        assert d.delta == 4 * shortest_distances(view, d.u)[d.v]


def test_dk_edge_shape():
    inst = dk_edge()
    assert inst.directed and inst.m == 1
    assert inst.edges[0].length == 3
    assert inst.demands[0].delta == 6


def test_generation_deterministic(tmp_path):
    a = random_instance("decoupled", 8, 14, 7, demand_family="freeform")
    b = random_instance("decoupled", 8, 14, 7, demand_family="freeform")
    assert a == b
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save(a, str(pa))
    save(b, str(pb))
    assert pa.read_bytes() == pb.read_bytes()


def test_basic_family_all_unit():
    inst = random_instance("basic", 8, 14, 3, demand_family="multiplicative", alpha=3)
    assert all(e.weight == 1 and e.length == 1 for e in inst.edges)
    view = fraction_view(inst)
    for d in inst.demands:
        assert d.delta == 3 * shortest_distances(view, d.u)[d.v]
    # demands on adjacent pairs
    pairs = {(min(e.u, e.v), max(e.u, e.v)) for e in inst.edges}
    assert {(d.u, d.v) for d in inst.demands} == pairs


def test_coupled_family_weight_equals_length():
    inst = random_instance("coupled", 8, 14, 4)
    assert all(e.weight == e.length > 0 for e in inst.edges)


def test_unit_length_family():
    inst = random_instance("unit-length", 8, 14, 5)
    assert all(e.length == 1 for e in inst.edges)


def test_anti_correlated_family():
    inst = random_instance("anti-correlated", 8, 14, 6)
    assert all(e.weight * e.length == 10 for e in inst.edges)


def test_geometric_family_complete_coupled_rounded():
    inst = random_instance("geometric", 6, 0, 8)
    assert inst.m == 15  # complete graph
    for e in inst.edges:
        assert e.weight == e.length
        assert (e.length * GEO_DENOM).denominator == 1  # on the rounding grid
    assert validate(inst).ok


def test_decoupled_integer_lengths_flag():
    inst = random_instance("decoupled", 8, 14, 9, integer_lengths=True)
    assert all(e.length.denominator == 1 for e in inst.edges)
    for d in inst.demands:
        assert d.delta.denominator == 1


def test_directed_instances_validate():
    for seed in range(10):
        inst = random_instance(
            "decoupled", 6, 9, seed, directed=True, demand_family="freeform",
            demand_pairs="random", num_demands=3,
        )
        assert inst.directed
        assert validate(inst).ok


def test_additive_all_pairs_demands():
    inst = random_instance("basic", 7, 12, 10, demand_family="additive",
                           demand_pairs="all", beta=2)
    assert len(inst.demands) == 7 * 6 // 2
    view = fraction_view(inst)
    for d in inst.demands:
        assert d.delta == shortest_distances(view, d.u)[d.v] + 2


def test_freeform_demands_within_budget():
    inst = random_instance("decoupled", 8, 13, 11, demand_family="freeform",
                           demand_pairs="random", num_demands=5, freeform_factor=3)
    view = fraction_view(inst)
    max_len = max(e.length for e in inst.edges)
    for d in inst.demands:
        dist = shortest_distances(view, d.u)[d.v]
        assert dist <= d.delta <= inst.n * max_len


def test_generated_instances_always_validate():
    for family in ("decoupled", "coupled", "unit-length", "basic", "anti-correlated"):
        for seed in range(8):
            inst = random_instance(family, 7, 11, seed, demand_family="freeform",
                                   demand_pairs="random")
            report = validate(inst)
            assert report.ok, f"{family} seed {seed}: {report.describe()}"


def test_bad_family_rejected():
    with pytest.raises(ValueError):
        random_instance("weird", 5, 5, 0)
    with pytest.raises(ValueError):
        random_instance("basic", 5, 5, 0, demand_family="weird")
    with pytest.raises(ValueError):
        random_instance("basic", 5, 5, 0, demand_pairs="weird")


def test_negative_demand_count_rejected():
    # read as a slice bound, -1 would keep every pair but the last
    with pytest.raises(ValueError, match="num_demands"):
        random_instance("basic", 5, 5, 0, demand_pairs="random", num_demands=-1)
    assert random_instance("basic", 5, 5, 0, demand_pairs="random", num_demands=0).demands == ()


# First 16 hex digits of the sha256 of each instance's sorted to_json_dict,
# keyed by (family, directed, demand family, integer_lengths, demand pairs,
# seed), for random_instance(family, n, 12, seed, ...) with n = 6 for
# geometric and 7 otherwise.  Recorded while bounds came from Fraction
# distances on the unscaled view.
GENERATED_PINNED = {
    ("decoupled", False, "multiplicative", False, "edges", 0): "ed28f3fe2aac54b5",
    ("decoupled", False, "multiplicative", True, "all", 1): "030c95d7293eaa7b",
    ("decoupled", False, "additive", False, "random", 2): "e8d508c7a4b9664a",
    ("decoupled", False, "additive", True, "edges", 3): "4e54950d4fbc2340",
    ("decoupled", False, "freeform", False, "all", 4): "002c79e632404db0",
    ("decoupled", False, "freeform", True, "random", 5): "d102582f9908efa8",
    ("decoupled", True, "multiplicative", False, "edges", 6): "66e08777297bb69b",
    ("decoupled", True, "multiplicative", True, "all", 7): "b78c1bcda584ae42",
    ("decoupled", True, "additive", False, "random", 8): "34aeba37853e1aa3",
    ("decoupled", True, "additive", True, "edges", 9): "35e15f3a0c79a757",
    ("decoupled", True, "freeform", False, "all", 10): "207b027c5f6559a1",
    ("decoupled", True, "freeform", True, "random", 11): "37ff851a560660d9",
    ("coupled", False, "multiplicative", False, "edges", 12): "ae65422ad49fb1f2",
    ("coupled", False, "multiplicative", True, "all", 13): "6d62f0ee9488866a",
    ("coupled", False, "additive", False, "random", 14): "94059c0809281a09",
    ("coupled", False, "additive", True, "edges", 15): "ca4fc2c0c2817480",
    ("coupled", False, "freeform", False, "all", 16): "933d71a0f834d187",
    ("coupled", False, "freeform", True, "random", 17): "3f36926d5b86823f",
    ("coupled", True, "multiplicative", False, "edges", 18): "af5049ff26a88ac0",
    ("coupled", True, "multiplicative", True, "all", 19): "88bd8e7291d5d669",
    ("coupled", True, "additive", False, "random", 20): "f7b2ad24d686c8c1",
    ("coupled", True, "additive", True, "edges", 21): "02e99f3e84e95a9f",
    ("coupled", True, "freeform", False, "all", 22): "615a8ac5d9ffaead",
    ("coupled", True, "freeform", True, "random", 23): "e0d4a2d6c9641586",
    ("unit-length", False, "multiplicative", False, "edges", 24): "0c4e175fd9e0b785",
    ("unit-length", False, "multiplicative", True, "all", 25): "eb37daac4a2d2101",
    ("unit-length", False, "additive", False, "random", 26): "e39fa476951a5315",
    ("unit-length", False, "additive", True, "edges", 27): "47c05a554188227b",
    ("unit-length", False, "freeform", False, "all", 28): "5a201627c2d0c522",
    ("unit-length", False, "freeform", True, "random", 29): "e7dfac8ebdf2f4af",
    ("unit-length", True, "multiplicative", False, "edges", 30): "adb33e1715d37013",
    ("unit-length", True, "multiplicative", True, "all", 31): "88a4f1a13837de0c",
    ("unit-length", True, "additive", False, "random", 32): "55265c1d1d8932cd",
    ("unit-length", True, "additive", True, "edges", 33): "1266eb5bb0235b38",
    ("unit-length", True, "freeform", False, "all", 34): "355bd69e5a638fee",
    ("unit-length", True, "freeform", True, "random", 35): "16d529c562a7768c",
    ("basic", False, "multiplicative", False, "edges", 36): "d9956c997d6a2f4f",
    ("basic", False, "multiplicative", True, "all", 37): "da0feb41ff2cf674",
    ("basic", False, "additive", False, "random", 38): "a3fd12cf41ec5e81",
    ("basic", False, "additive", True, "edges", 39): "3651d462e37bdce8",
    ("basic", False, "freeform", False, "all", 40): "a88c0e49fca4b29f",
    ("basic", False, "freeform", True, "random", 41): "52e242d6750a3c72",
    ("basic", True, "multiplicative", False, "edges", 42): "03160cadfe6bd4ff",
    ("basic", True, "multiplicative", True, "all", 43): "d96a9ffe86bdc359",
    ("basic", True, "additive", False, "random", 44): "d0fb6823a1b5d994",
    ("basic", True, "additive", True, "edges", 45): "7eb554abe1258e21",
    ("basic", True, "freeform", False, "all", 46): "1891c2f48defe9c2",
    ("basic", True, "freeform", True, "random", 47): "acb0dcc8b0b924fe",
    ("geometric", False, "multiplicative", False, "edges", 48): "8d750eb571f09560",
    ("geometric", False, "multiplicative", True, "all", 49): "b3dddbf655e89b47",
    ("geometric", False, "additive", False, "random", 50): "88a6fe58bef34e08",
    ("geometric", False, "additive", True, "edges", 51): "bc668914f4a01c7b",
    ("geometric", False, "freeform", False, "all", 52): "0ee68ac2d84f2240",
    ("geometric", False, "freeform", True, "random", 53): "e61446d83ce5e96c",
    ("geometric", True, "multiplicative", False, "edges", 54): "7186bbef826d48a7",
    ("geometric", True, "multiplicative", True, "all", 55): "a70462b148b6980b",
    ("geometric", True, "additive", False, "random", 56): "e3b49b7aab5adcb5",
    ("geometric", True, "additive", True, "edges", 57): "841bf86b58072f74",
    ("geometric", True, "freeform", False, "all", 58): "607c9da2e1a6500d",
    ("geometric", True, "freeform", True, "random", 59): "30c50a27ef974016",
    ("anti-correlated", False, "multiplicative", False, "edges", 60): "bde4d7da263bd3b0",
    ("anti-correlated", False, "multiplicative", True, "all", 61): "cbf7857686e45954",
    ("anti-correlated", False, "additive", False, "random", 62): "222943c9e31a1b40",
    ("anti-correlated", False, "additive", True, "edges", 63): "d9c4dfd735fdadba",
    ("anti-correlated", False, "freeform", False, "all", 64): "6e0c9c3b7067f367",
    ("anti-correlated", False, "freeform", True, "random", 65): "4d2c34970a226147",
    ("anti-correlated", True, "multiplicative", False, "edges", 66): "e3286f9e7e71a268",
    ("anti-correlated", True, "multiplicative", True, "all", 67): "df0fa6670c33dc80",
    ("anti-correlated", True, "additive", False, "random", 68): "bdb2dc54f88ab398",
    ("anti-correlated", True, "additive", True, "edges", 69): "ceaf259a64de74e2",
    ("anti-correlated", True, "freeform", False, "all", 70): "0762b7e2b7b9ef83",
    ("anti-correlated", True, "freeform", True, "random", 71): "acc89990ce8701e0",
}


@pytest.mark.parametrize("key", sorted(GENERATED_PINNED))
def test_generated_bytes_pinned(key):
    family, directed, demand_family, integer_lengths, pairs, seed = key
    inst = random_instance(
        family, 6 if family == "geometric" else 7, 12, seed, demand_family=demand_family,
        demand_pairs=pairs, integer_lengths=integer_lengths, directed=directed,
    )
    text = json.dumps(to_json_dict(inst), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == GENERATED_PINNED[key]


def _saved_instance(name):
    """The instance behind each SAVE_PINNED key."""
    fixed = {"example5": example5, "triangle": nonmetric_triangle, "dk-edge": dk_edge}
    if name in fixed:
        return fixed[name]()
    if name == "n60-m180":
        return random_instance("decoupled", 60, 180, 3, demand_family="freeform")
    if name == "no-demands":
        return random_instance("decoupled", 6, 9, 4, demand_pairs="random", num_demands=0)
    if name == "n1":
        return random_instance("basic", 1, 0, 0)
    family, orientation = name.rsplit("-", 1)
    i = WEIGHT_FAMILIES.index(family)
    return random_instance(
        family, 7, 12, 100 + i, demand_family=DEMAND_FAMILIES[i % 3],
        demand_pairs=DEMAND_PAIRS[i % 3], alpha=Fraction(5, 2), beta=3,
        freeform_factor=Fraction(7, 3), integer_lengths=i % 2 == 1,
        directed=orientation == "directed",
    )


# sha256 of the bytes save writes for each _saved_instance, recorded while
# every bound was built in Fractions and save streamed json.dump's chunks.
SAVE_PINNED = {
    "anti-correlated-directed": "7d804c0b041d51fd784cfb0740f6f7a41a1329cc25895f28d0df443756ae8b63",
    "anti-correlated-undirected": "bd4e771cb6324be827e55cb625fd0a8b8e5899c09a44a633d5ac58002653aed7",
    "basic-directed": "60e51f8186e8499607f682bf140c9e6c90fd835d2efe57ac3284a40b486bca6c",
    "basic-undirected": "27aa1cf6ce6271da08563a3bbba64ebbd9c3e34dde9079d78078f1412f332365",
    "coupled-directed": "fa7689225f641199dee70fa7150008a893b7ab1860ed797cc9fb9b62f48e1639",
    "coupled-undirected": "f4981b5815b7520e0410bfaeff5517e9f09302c00d5384ca2c9b1f085e8e4afc",
    "decoupled-directed": "b9a1034495141a50131df1fec0321d4213904c9990af10380b896224002d5f8e",
    "decoupled-undirected": "564475652433ea20fb3f03bb586884cb8bcfd35272c0810b14537e629a49c453",
    "dk-edge": "6060a7c406d3a941560769c113e4c8e459f45ea5c33d5c12970e154f4059e69e",
    "example5": "6fbf9193707ae363e5b3c3fa3f67ea262e110997d868134648e1aa371d54a960",
    "geometric-directed": "fa4de5585c1d216b2e6d5c558fc613d251496e83596e95dc33d5b6c4206b0b06",
    "geometric-undirected": "fa4de5585c1d216b2e6d5c558fc613d251496e83596e95dc33d5b6c4206b0b06",
    "n1": "9635ae984023e0cb24c09bcc7595d33d707f1b11b47236412a12aaa0c77e0658",
    "n60-m180": "640667361667bb507bdf6c09ec0c4939a3d5b0c3292c42ee262ca708f7476790",
    "no-demands": "789417cd55ef0d36942b96b2485f126bb98c606193706d00ccfd570b6d677c5a",
    "triangle": "7368eb77a0a9348e60468b7d9e604d20886be43a5ac82dfb13b3a70b26cdaad1",
    "unit-length-directed": "9972df2974d04b6e0b22bdda9f55362b222716ecde6e039ce6434d38a416de8e",
    "unit-length-undirected": "fa1f7b85f5798cc38aa22805a68c29047b7152bbddad24f79d195de5872b764b",
}


@pytest.mark.parametrize("name", sorted(SAVE_PINNED))
def test_saved_bytes_pinned(tmp_path, name):
    path = tmp_path / "inst.json"
    save(_saved_instance(name), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SAVE_PINNED[name]


# p/q in [1, 12] with q up to 3: a stretch factor or alpha that is not an integer
ratios = st.integers(1, 3).flatmap(lambda q: st.builds(Fraction, st.integers(q, 12 * q), st.just(q)))


@st.composite
def generator_calls(draw):
    """random_instance arguments over every family, orientation and pair mode, with
    bounds large enough that the n * max_length cap binds, on fractional lengths too."""
    kwargs = dict(
        demand_family=draw(st.sampled_from(DEMAND_FAMILIES)),
        demand_pairs=draw(st.sampled_from(DEMAND_PAIRS)),
        num_demands=draw(st.none() | st.integers(0, 12)),
        alpha=draw(st.integers(1, 12) | ratios),
        beta=draw(st.integers(0, 12)),
        freeform_factor=draw(st.integers(1, 12) | ratios),
        integer_lengths=draw(st.booleans()),
        directed=draw(st.booleans()),
    )
    family = draw(st.sampled_from(WEIGHT_FAMILIES))
    return family, draw(st.integers(1, 7)), draw(st.integers(0, 14)), draw(st.integers(0, 10**6)), kwargs


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(call=generator_calls())
def test_bounds_match_fraction_arithmetic(call):
    # The reference builds each bound the way the generator once did: Fraction
    # distances by Bellman-Ford, then the family's formula, the cap and the floor.
    family, n, m, seed, kw = call
    rngs = []

    class Recorded(random.Random):
        """The generator's rng, keeping every randint draw."""

        def __init__(self, seed):
            super().__init__(seed)
            self.draws = []
            rngs.append(self)

        def randint(self, a, b):
            self.draws.append(super().randint(a, b))
            return self.draws[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(generators, "random", types.SimpleNamespace(Random=Recorded))
        inst = random_instance(family, n, m, seed, **kw)
    view = fraction_view(inst)
    cap = inst.n * max((e.length for e in inst.edges), default=0)
    floor = kw["integer_lengths"] and all(e.length.denominator == 1 for e in inst.edges)
    # every pair is reachable, so each draws its stretch once, last and in pair order
    stretches = rngs[0].draws[len(rngs[0].draws) - len(inst.demands):]
    for d, r in zip(inst.demands, stretches):
        dist = bellman_ford(view, d.u)[d.v]
        if kw["demand_family"] == "multiplicative":
            delta = Fraction(kw["alpha"]) * dist
        elif kw["demand_family"] == "additive":
            delta = dist + kw["beta"]
        else:
            delta = (1 + (Fraction(kw["freeform_factor"]) - 1) * Fraction(r, 16)) * dist
        delta = min(delta, cap)
        if floor:
            delta = Fraction(math.floor(delta))
        assert type(d.delta) is Fraction and d.delta == delta, (d, delta)
    pairs = [(d.u, d.v) for d in inst.demands]
    if kw["demand_pairs"] == "edges":
        assert pairs == sorted({(min(e.u, e.v), max(e.u, e.v)) for e in inst.edges})
    elif kw["demand_pairs"] == "all":
        assert pairs == [(u, v) for u in range(n) for v in range(u + 1, n)]
    else:
        count = max(1, n // 2) if kw["num_demands"] is None else kw["num_demands"]
        assert len(pairs) == min(count, n * (n - 1) // 2)


def test_generation_and_save_make_no_canonical_pass(tmp_path, monkeypatch):
    directed = random_instance("decoupled", 8, 14, 5, demand_family="freeform", directed=True)
    loaded = tmp_path / "loaded.json"
    save(directed, str(loaded))
    fixed = example5()  # directed, and built in canonical form

    def rebuilt(self):
        raise AssertionError("a canonical instance was put in canonical form again")

    monkeypatch.setattr(SpannerInstance, "canonical", rebuilt)
    path = str(tmp_path / "inst.json")
    for family in WEIGHT_FAMILIES:
        save(random_instance(family, 8, 14, 5, demand_family="freeform", demand_pairs="all"), path)
    for inst in (directed, load(str(loaded)), fixed):
        save(inst, path)
    with pytest.raises(AssertionError, match="canonical form again"):  # (1, 0) is not
        save(SpannerInstance(False, 2, (Edge(1, 0, Fraction(1), Fraction(1)),), ()), path)
