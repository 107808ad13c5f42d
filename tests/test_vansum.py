"""Six-term vanishing sums: classification, skew products, enumerations."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectile import vansum
from spectile.cli import main
from spectile.cyclotomic import RootOfUnity, cyclotomic_poly, vanishes
from spectile.errors import ClassificationError, WorkLimitError
from spectile.intervals import IntervalUnion
from spectile.vansum import (
    _POSITION_SYMMETRIES,
    _difference_exponents,
    _power_rows,
    _shape,
    SignedRootVector,
    TypeTag,
    classify,
    enumerate_type2_type2,
    enumerate_type3_type2,
    enumerate_type3_type3,
    g_product,
    sdp,
    verify_weight6_classification,
    Weight6Report,
)

F = Fraction
W = F(1, 3)
GOLDEN = Path(__file__).resolve().parent / "golden"


def vec(*exps):
    return SignedRootVector.from_value_exponents([F(e) if not isinstance(e, F) else e for e in exps])


def test_zero_frequency_vector_is_type1():
    v0 = SignedRootVector.zero_frequency()
    assert [s for s, _ in v0.terms] == [1, -1, 1, -1, 1, -1]
    tag = classify(v0)
    assert tag.tag == "type1"
    assert len(tag.witness) == 3


def test_two_block_vector_is_type2():
    x = F(1, 7)
    tag = classify(vec(0, W, 2 * W, x, x + W, x + 2 * W))
    assert tag.tag == "type2"
    left, right = tag.witness
    assert set(left) | set(right) == set(range(6))


def test_irreducible_vector_is_type3():
    tag = classify(
        vec(F(1, 5), F(2, 5), F(3, 5), F(4, 5), F(1, 2) + W, F(1, 2) + 2 * W)
    )
    assert tag.tag == "type3"
    x, quad, pair = tag.witness
    assert x.exponent == 0
    assert len(quad) == 4 and len(pair) == 2


def test_type1_takes_precedence_over_type2():
    # all powers of omega with three half-turn flips: splits both ways
    v = vec(0, W, 2 * W, F(1, 2), F(1, 2) + W, F(1, 2) + 2 * W)
    assert classify(v).tag == "type1"


def test_not_vanishing():
    assert classify(vec(0, 0, W, 2 * W, F(1, 5), F(4, 5))).tag == "not-vanishing"


def test_classify_matches_kernel():
    rng = random.Random(41)
    for _ in range(400):
        n = rng.choice([6, 12, 30])
        v = SignedRootVector(
            tuple(
                (rng.choice([1, -1]), RootOfUnity(F(rng.randrange(n), n)))
                for _ in range(6)
            )
        )
        assert (classify(v).tag != "not-vanishing") == v.value().is_zero()


def test_classify_rotation_invariance():
    rng = random.Random(43)
    for _ in range(200):
        n = rng.choice([6, 30])
        exps = [F(rng.randrange(n), n) for _ in range(6)]
        v = SignedRootVector.from_value_exponents(exps)
        rot = F(rng.randrange(n), n)
        w = SignedRootVector.from_value_exponents([e + rot for e in exps])
        assert classify(v).tag == classify(w).tag


def test_from_frequency_second_component():
    om = IntervalUnion.from_unit_cells([0, 4, 2]).scaled(W)
    v = SignedRootVector.from_frequency(om, F(7, 5))
    sign, root = v.terms[1]
    assert sign == -1 and root.exponent == 0  # leftmost piece starts at 0


def test_g_product_frequency_identity():
    om = IntervalUnion.from_unit_cells([0, 4, 2]).scaled(W)
    rng = random.Random(47)
    for _ in range(100):
        a = F(rng.randint(-12, 12), rng.randint(1, 6))
        b = F(rng.randint(-12, 12), rng.randint(1, 6))
        c = F(rng.randint(-12, 12), rng.randint(1, 6))
        va = SignedRootVector.from_frequency(om, a)
        vb = SignedRootVector.from_frequency(om, b)
        vc = SignedRootVector.from_frequency(om, c)
        lhs = g_product(va, g_product(vb, vc))
        rhs = SignedRootVector.from_frequency(om, a - b + c)
        assert lhs.value_exponents() == rhs.value_exponents()


def test_g_product_with_zero_vector():
    om = IntervalUnion.from_unit_cells([0, 4, 2]).scaled(W)
    v = SignedRootVector.from_frequency(om, F(1, 3))
    v0 = SignedRootVector.zero_frequency()
    assert g_product(v, v).value_exponents() == v0.value_exponents()
    assert g_product(v, v0).value_exponents() == v.value_exponents()


def test_sdp_identities():
    om = IntervalUnion.from_unit_cells([0, 4, 2]).scaled(W)
    v0 = SignedRootVector.zero_frequency()
    # first factor in the zero set makes the skew product vanish
    for lam in (1, 2, 4, 5):
        v = SignedRootVector.from_frequency(om, lam)
        assert sdp(v, v0).is_zero()
    # the value always equals the total of the g-product terms
    rng = random.Random(53)
    for _ in range(50):
        a = F(rng.randint(-9, 9), rng.randint(1, 4))
        b = F(rng.randint(-9, 9), rng.randint(1, 4))
        va = SignedRootVector.from_frequency(om, a)
        vb = SignedRootVector.from_frequency(om, b)
        assert (sdp(va, vb) - g_product(va, vb).value()).is_zero()


def test_no_two_cube_ratio_pairs_in_type3_vectors():
    # among the six values of an irreducible vector, at most one disjoint
    # pair has a ratio that is a power of -omega (checked exhaustively)
    sixth = {F(k, 6) for k in range(6)}
    for x_num in range(30):
        x = F(x_num, 30)
        exps = [x + F(1, 5), x + F(2, 5), x + F(3, 5), x + F(4, 5),
                x + F(1, 2) + W, x + F(1, 2) + 2 * W]
        v = SignedRootVector.from_value_exponents(exps)
        if classify(v).tag != "type3":
            continue
        pairs_with_ratio = [
            (i, j)
            for i, j in itertools.combinations(range(6), 2)
            if (exps[i] - exps[j]) % 1 in sixth
        ]
        # no two disjoint such pairs
        for (i, j), (k, l) in itertools.combinations(pairs_with_ratio, 2):
            assert {i, j} & {k, l}, (x, (i, j), (k, l))


def test_interactions_at_small_order():
    r = enumerate_type2_type2(6)
    assert r.max_family <= 3
    assert r.vertex_count > 0


def test_degenerate_self_pair_is_filtered():
    # the twin vector (all values in the negated cube-root block twice)
    # never pairs with itself: its self-difference is type1
    twin = vec(F(1, 2), F(1, 2) + W, F(1, 2) + 2 * W, F(1, 2), F(1, 2) + W, F(1, 2) + 2 * W)
    assert classify(twin).tag == "type2"
    d = g_product(twin, twin)
    assert classify(d).tag == "type1"


def test_interaction_reports_are_deterministic():
    r1 = enumerate_type2_type2(30)
    r2 = enumerate_type2_type2(30)
    assert r1 == r2
    assert r1.to_json_dict() == r2.to_json_dict()


def test_interaction_witness_families_are_valid():
    r = enumerate_type2_type2(30)
    # the witness family contains the zero-class vector plus a clique
    assert len(r.family_witness) == r.max_family
    zero = r.family_witness[0]
    assert zero == ("0", "1/2", "0", "1/2", "0", "1/2")
    # pairwise differences of the witness vectors vanish and avoid type1
    vecs = [
        SignedRootVector.from_value_exponents([F(e) for e in map(F, w)])
        for w in r.family_witness
    ]
    for v1, v2 in itertools.combinations(vecs, 2):
        d = g_product(v1, v2)
        tag = classify(d)
        assert tag.tag in ("type2", "type3")


def test_enumeration_order_validation():
    with pytest.raises(ValueError):
        enumerate_type2_type2(10)
    with pytest.raises(ValueError):
        enumerate_type3_type3(6)


def test_weight6_small_orders():
    rep = verify_weight6_classification(6)
    assert rep.ok and rep.counterexample is None
    rep = verify_weight6_classification(2)
    assert rep.ok
    too_large = vansum.MAX_WEIGHT6_ORDER + 1
    with pytest.raises(WorkLimitError, match=f"order bound {too_large} exceeds the limit 60"):
        verify_weight6_classification(too_large)


def test_weight6_counts_known_families():
    rep = verify_weight6_classification(6)
    # at order 6 the vanishing multisets are pair partitions and the two
    # cube-root blocks; every one of them classified
    assert rep.vanishing > 0
    assert rep.checked == sum(1 for _ in itertools.combinations_with_replacement(range(6), 5))


# ---------------------------------------------------------------------------
# the orbit-scan interaction graph against the all-pairs scan it replaced
# ---------------------------------------------------------------------------


class _TagMemo:
    """Rotation-canonical memo of tags by the kernel route, which the
    interaction graphs used before the packed-row test: `vanishes` decides
    every pair, and `_shape` only names the shape of a vanishing one."""

    def __init__(self, scale):
        self.scale = scale
        self._cache = {}

    def tag(self, exps):
        s = sorted(exps)
        key = min(
            tuple((e - s[i]) % self.scale for e in s[i:] + s[:i]) for i in range(6)
        )
        if key not in self._cache:
            if vanishes(Counter(key), self.scale):
                self._cache[key] = _shape(key, self.scale)[0]
            else:
                self._cache[key] = "not-vanishing"
        return self._cache[key]


def _all_pairs_tags(vertices, scale):
    """Reference: tag every pair i < j; keep the vanishing ones."""
    memo = _TagMemo(scale)
    half = scale // 2
    n = len(vertices)
    tags = {}
    for i in range(n):
        vi = vertices[i]
        for j in range(i + 1, n):
            d = _difference_exponents(vi, vertices[j], scale, half)
            tag = memo.tag(d)
            if tag != "not-vanishing":
                tags[i, j] = tag
    return tags


def _all_pairs_adjacency(tags, n, allowed):
    adj = [0] * n
    edge_count = 0
    for (i, j), tag in tags.items():
        if tag in allowed:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
            edge_count += 1
    return adj, edge_count


_ENUMERATIONS = {
    "type2-type2": enumerate_type2_type2,
    "type3-type3": enumerate_type3_type3,
    "type3-type2": enumerate_type3_type2,
}


@pytest.fixture(scope="module")
def reference_tags():
    """All-pairs tags per vertex list, shared by both assumption settings."""
    return {}


@pytest.mark.parametrize("assumption_filter", [True, False])
@pytest.mark.parametrize(
    "kind, order",
    [
        ("type2-type2", 6),
        ("type2-type2", 12),
        ("type2-type2", 18),
        ("type2-type2", 30),
        ("type3-type3", 30),
        ("type3-type2", 30),
    ],
)
def test_orbit_scan_matches_all_pairs_reference(
    kind, order, assumption_filter, reference_tags, monkeypatch
):
    enumerate_pair = _ENUMERATIONS[kind]
    fast = enumerate_pair(order, assumption_filter)
    orbit_scan = vansum._adjacency
    reference_edges = []

    def checked_adjacency(vertices, scale, allowed):
        key = (scale, tuple(vertices))
        if key not in reference_tags:
            reference_tags[key] = _all_pairs_tags(vertices, scale)
        adj, edge_count = _all_pairs_adjacency(
            reference_tags[key], len(vertices), allowed
        )
        assert orbit_scan(vertices, scale, allowed) == adj
        reference_edges.append(edge_count)
        return adj

    monkeypatch.setattr(vansum, "_adjacency", checked_adjacency)
    reference = enumerate_pair(order, assumption_filter)
    assert reference_edges == [fast.edge_count]
    assert reference == fast
    assert reference.to_json_dict() == fast.to_json_dict()


@st.composite
def _exponent_tuples(draw):
    """Six exponents mod L: random, or laid out in one of the three shapes."""
    scale = draw(st.sampled_from([6, 12, 30, 60]))
    half, third, fifth = scale // 2, scale // 3, scale // 5
    x, y, z = (draw(st.integers(0, scale - 1)) for _ in range(3))
    shapes = {
        "type1": (x, x + half, y, y + half, z, z + half),
        "type2": (x, x + third, x + 2 * third, y, y + third, y + 2 * third),
        "random": tuple(draw(st.integers(0, scale - 1)) for _ in range(6)),
    }
    if scale % 30 == 0:
        shapes["type3"] = tuple(x + k * fifth for k in range(1, 5)) + (
            x + half + third,
            x + half + 2 * third,
        )
    exps = draw(st.sampled_from(sorted(shapes.items())))[1]
    layout = draw(st.permutations(range(6)))
    return scale, tuple(exps[k] % scale for k in layout)


@settings(deadline=None)
@given(
    _exponent_tuples(),
    st.sampled_from(_POSITION_SYMMETRIES),
    st.integers(0, 59),
)
def test_tag_is_invariant_under_g_rotation_and_negation(case, g, rotation):
    scale, exps = case
    variants = [
        tuple(exps[k] for k in g),
        tuple((e + rotation) % scale for e in exps),
        tuple(-e % scale for e in exps),
    ]
    expected = _shape(exps, scale)[0]
    for variant in variants:
        assert _shape(variant, scale)[0] == expected


# ---------------------------------------------------------------------------
# witness first: the kernel decides only the sums that no shape fits
# ---------------------------------------------------------------------------


@pytest.fixture
def kernel_calls(monkeypatch):
    """The orders of the kernel calls `vansum` makes, through a wrapper."""
    calls = []

    def counting_vanishes(coeffs, n):
        calls.append(n)
        return vanishes(coeffs, n)

    monkeypatch.setattr(vansum, "vanishes", counting_vanishes)
    return calls


def test_shaped_sums_never_reach_the_kernel(kernel_calls):
    assert verify_weight6_classification(30).ok
    for enumerate_pair in _ENUMERATIONS.values():
        enumerate_pair(30)
    assert vansum._canonical_array_pairs(18)[0] > 0
    assert kernel_calls == []
    assert classify(vec(0, 0, W, 2 * W, F(1, 5), F(4, 5))).tag == "not-vanishing"
    assert kernel_calls == [30]


def test_a_sum_no_shape_fits_is_decided_by_the_kernel(monkeypatch, kernel_calls):
    monkeypatch.setattr(vansum, "_PAIR_PARTITIONS", ())
    monkeypatch.setattr(vansum, "_TRIPLE_SPLITS", ())
    monkeypatch.setattr(vansum, "_TYPE3_OFFSETS", ())
    shaped = {
        "type1": (0, 15, 4, 19, 7, 22),
        "type2": (1, 11, 21, 3, 13, 23),
        "type3": (6, 12, 18, 24, 5, 25),
    }
    for exps in shaped.values():
        with pytest.raises(ClassificationError):
            _shape(exps, 30)
    rng = random.Random(71)
    randoms = [[rng.randrange(30) for _ in range(6)] for _ in range(50)]
    randoms = [exps for exps in randoms if not vanishes(Counter(exps), 30)]
    assert len(randoms) > 40
    for exps in randoms:
        assert _shape(exps, 30) == ("not-vanishing", None)
    assert kernel_calls == [30] * (3 + len(randoms))
    monkeypatch.undo()
    assert {tag: _shape(exps, 30)[0] for tag, exps in shaped.items()} == {
        tag: tag for tag in shaped
    }


def test_vansum_enum_all_30_matches_golden_report(tmp_path):
    out = tmp_path / "report.json"
    code = main(["--output", str(out), "vansum-enum", "--pair", "all", "--order", "30"])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / "vansum_enum_all_30.json").read_bytes()


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["vansum-enum", "--pair", "all"], "vansum_enum_all_60.json"),
        (["verify-weight6"], "verify_weight6_60.json"),
    ],
)
def test_default_order_60_matches_golden_report(argv, golden, tmp_path):
    out = tmp_path / "report.json"
    assert main(["--output", str(out)] + argv) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


def test_interaction_order_above_the_limit_raises():
    assert vansum.MAX_INTERACTION_ORDER >= 60
    too_large = vansum.MAX_INTERACTION_ORDER + 30
    for enumerate_pair in _ENUMERATIONS.values():
        with pytest.raises(WorkLimitError):
            enumerate_pair(too_large)


# ---------------------------------------------------------------------------
# packed residue rows and the four-loop sweep against the five-loop sweep
# ---------------------------------------------------------------------------


def _reference_weight6(order_bound):
    """The five-loop sweep with coefficient-tuple rows that the packed-row
    sweep replaced (a sum vanishes when the first five rows add up to the
    negated sixth); it calls `vansum._shape`, so a patch reaches it."""
    m = order_bound if order_bound % 2 == 0 else 2 * order_bound
    phi = cyclotomic_poly(m)
    deg = len(phi) - 1
    rows = []
    cur = [0] * deg
    cur[0] = 1
    for _ in range(m):
        rows.append(tuple(cur))
        carry = cur[deg - 1]
        cur = [0] + cur[:-1]
        if carry:
            for i in range(deg):
                cur[i] -= carry * phi[i]

    def add(vec, row):
        return tuple(a + b for a, b in zip(vec, row))

    negated = [tuple(-c for c in row) for row in rows]

    checked = 0
    vanishing = 0
    for e2 in range(m):
        p2 = add(rows[0], rows[e2])
        for e3 in range(e2, m):
            p3 = add(p2, rows[e3])
            for e4 in range(e3, m):
                p4 = add(p3, rows[e4])
                for e5 in range(e4, m):
                    p5 = add(p4, rows[e5])
                    for e6 in range(e5, m):
                        checked += 1
                        if p5 != negated[e6]:
                            continue
                        vanishing += 1
                        exps = (0, e2, e3, e4, e5, e6)
                        try:
                            tag = vansum._shape(exps, m)[0]
                        except ClassificationError:
                            tag = None
                        if tag not in ("type1", "type2", "type3"):
                            counterexample = tuple(
                                vansum.fraction_to_str(F(e, m)) for e in exps
                            )
                            return Weight6Report(
                                False, order_bound, checked, vanishing, counterexample
                            )
    return Weight6Report(True, order_bound, checked, vanishing, None)


def test_weight6_sweep_matches_five_loop_reference():
    for order in range(1, 31):
        assert verify_weight6_classification(order) == _reference_weight6(order)


@pytest.mark.parametrize("order, which", [(12, 2), (6, 0), (10, -1)])
def test_weight6_counterexample_matches_five_loop_reference(order, which, monkeypatch):
    # make `_shape` refuse one chosen vanishing tuple, as if it were a sum
    # outside the three shapes
    seen = []
    shape = vansum._shape

    def recording_shape(exps, n):
        seen.append(tuple(exps))
        return shape(exps, n)

    monkeypatch.setattr(vansum, "_shape", recording_shape)
    verify_weight6_classification(order)
    target = seen[which]

    def refusing_shape(exps, n):
        if tuple(exps) == target:
            raise ClassificationError("planted")
        return shape(exps, n)

    monkeypatch.setattr(vansum, "_shape", refusing_shape)
    report = verify_weight6_classification(order)
    assert not report.ok
    assert report.counterexample == tuple(
        vansum.fraction_to_str(F(e, 2 * order if order % 2 else order)) for e in target
    )
    assert report == _reference_weight6(order)


def test_packed_rows_decide_vanishing_like_the_kernel():
    rng = random.Random(67)
    for n in (6, 12, 18, 30, 60, 105, 210, 330, 385):
        rows = _power_rows(n)
        assert len(set(rows)) == n
        half, third, fifth = n // 2, n // 3, n // 5
        planted = []
        if n % 2 == 0:
            # the interaction graphs read a half turn as a minus sign
            assert all(rows[e + half] == -rows[e] for e in range(half))
            planted.append(lambda x, y, z: (x, x + half, y, y + half, z, z + half))
        if n % 3 == 0:
            planted.append(
                lambda x, y, z: (x, x + third, x + 2 * third, y, y + third, y + 2 * third)
            )
        if n % 30 == 0:
            planted.append(
                lambda x, y, z: tuple(x + k * fifth for k in range(1, 5))
                + (x + half + third, x + half + 2 * third)
            )
        hits = 0
        for i in range(600):
            if planted and i % 2:
                exps = list(rng.choice(planted)(*(rng.randrange(n) for _ in range(3))))
                if rng.random() < 0.3:
                    exps[rng.randrange(6)] += rng.randrange(1, n)
            else:
                exps = [rng.randrange(n) for _ in range(6)]
            exps = [e % n for e in exps]
            zero = sum(rows[e] for e in exps) == 0
            assert zero == vanishes(Counter(exps), n), (n, exps)
            hits += zero
        assert hits > 0 or not planted


# ---------------------------------------------------------------------------
# the integer classifier against the Fraction classifier it replaced
# ---------------------------------------------------------------------------

_HALF = F(1, 2)


def _reference_is_zero_pair(e1, e2):
    return (e1 - e2) % 1 == _HALF


def _reference_is_zero_triple(e1, e2, e3):
    return {(e2 - e1) % 1, (e3 - e1) % 1} == {W, 2 * W}


def _reference_type3_normal_form(exps):
    for pair in itertools.combinations(range(6), 2):
        quad = tuple(i for i in range(6) if i not in pair)
        e0 = exps[quad[0]]
        for j in range(1, 5):
            x = (e0 - F(j, 5)) % 1
            want = {(x + F(i, 5)) % 1 for i in range(1, 5)}
            if {exps[i] for i in quad} != want:
                continue
            pair_want = {(x + F(5, 6)) % 1, (x + F(1, 6)) % 1}
            if {exps[i] for i in pair} == pair_want:
                return RootOfUnity(x), quad, pair
    return None


def _reference_classify(v):
    """The Fraction classifier that `_shape` replaced."""
    exps = v.value_exponents()
    if not v.value().is_zero():
        return TypeTag("not-vanishing")
    for partition in vansum._PAIR_PARTITIONS:
        if all(_reference_is_zero_pair(exps[i], exps[j]) for i, j in partition):
            return TypeTag("type1", partition)
    for left, right in vansum._TRIPLE_SPLITS:
        if _reference_is_zero_triple(*(exps[i] for i in left)) and _reference_is_zero_triple(
            *(exps[i] for i in right)
        ):
            return TypeTag("type2", (left, right))
    normal = _reference_type3_normal_form(exps)
    assert normal is not None, "vanishing sum outside the three shapes"
    return TypeTag("type3", normal)


def _assert_witness_vanishes(exps, n, result):
    """A sum `_shape` gives a witness for vanishes by the kernel too."""
    if result[0] != "not-vanishing":
        L = math.lcm(n, 30)
        assert vanishes(Counter(k * (L // n) % L for k in exps), L), (exps, n, result)


def _assert_matches_reference(v):
    expected = _reference_classify(v)
    assert classify(v) == expected
    exps = v.value_exponents()
    n = math.lcm(*(e.denominator for e in exps))
    ints = tuple(e.numerator * (n // e.denominator) for e in exps)
    # the exponents at the vector's own order, which need not be a multiple of 30
    result = _shape(ints, n)
    assert result[0] == expected.tag
    _assert_witness_vanishes(ints, n, result)


@pytest.mark.parametrize("order", [6, 10, 12, 18, 24, 30])
def test_shape_matches_reference_on_weight6_sweep(order, monkeypatch):
    calls = []
    shape = vansum._shape

    def recording_shape(exps, n):
        result = shape(exps, n)
        calls.append((exps, n, result))
        return result

    monkeypatch.setattr(vansum, "_shape", recording_shape)
    report = verify_weight6_classification(order)
    monkeypatch.undo()
    assert report.ok and len(calls) == report.vanishing > 0
    for exps, n, result in calls:
        _assert_witness_vanishes(exps, n, result)
        v = SignedRootVector.from_value_exponents([F(e, n) for e in exps])
        assert TypeTag(*result) == _reference_classify(v)
        _assert_matches_reference(v)


def _planted(kind, d, x, y, z):
    """Six value exponents of one shape, with x, y, z in (1/d)Z."""
    if kind == "type1":
        return [x, x + _HALF, y, y + _HALF, z, z + _HALF]
    if kind == "type2":
        return [x, x + W, x + 2 * W, y, y + W, y + 2 * W]
    return [x + F(k, 5) for k in range(1, 5)] + [x + _HALF + W, x + _HALF + 2 * W]


def _signed(values, signs):
    """Vector with the given value exponents; a minus sign takes a half turn."""
    return SignedRootVector(
        tuple((s, RootOfUnity(e if s == 1 else e + _HALF)) for e, s in zip(values, signs))
    )


def test_classify_matches_reference_on_seeded_vectors():
    rng = random.Random(61)
    for i in range(2000):
        d = rng.randint(1, 60)
        kind = ("type1", "type2", "type3", "random")[i % 4]
        if kind == "random":
            values = [F(rng.randrange(d), d) for _ in range(6)]
        else:
            x, y, z = (F(rng.randrange(d), d) for _ in range(3))
            values = _planted(kind, d, x, y, z)
            if rng.random() < 0.5:
                values[rng.randrange(6)] += F(rng.randrange(1, d + 1), d)
        rng.shuffle(values)
        _assert_matches_reference(_signed(values, [rng.choice((1, -1)) for _ in range(6)]))


@settings(deadline=None, max_examples=200)
@given(
    st.sampled_from(["type1", "type2", "type3"]),
    st.integers(1, 60),
    st.lists(st.integers(0, 59), min_size=3, max_size=3),
    st.integers(0, 5),
    st.integers(0, 59),
    st.permutations(range(6)),
    st.lists(st.sampled_from([1, -1]), min_size=6, max_size=6),
)
def test_classify_matches_reference_on_perturbed_shapes(
    kind, d, xyz, index, shift, layout, signs
):
    values = _planted(kind, d, *(F(k % d, d) for k in xyz))
    values[index] += F(shift % d, d)
    _assert_matches_reference(_signed([values[k] for k in layout], signs))
