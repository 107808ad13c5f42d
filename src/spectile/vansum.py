"""Signed six-term vanishing sums of roots of unity.

A six-component vector of signed roots vanishes in exactly three ways: a
partition into three antipodal pairs (type1), a partition into two rotated
cube-root triples (type2), or the irreducible shape
x*(five special fifth roots) plus -x*(two primitive cube roots) (type3).

One classifier, `_shape`, decides the shape of six integer exponents mod n.
It lifts them to L = lcm(n, 30), so that half, third, fifth and sixth turns
are integers, and looks for the witness of each shape in turn.  Each witness
is a vanishing sum by itself, so a witness proves vanishing, and the exact
kernel decides only the sums that no witness fits.  `classify` is its
adapter for vectors with Fraction exponents, at L = lcm(30, denominators).

The interaction graphs, the array-pair scan and the weight-6 sweep first
decide vanishing by one integer test on packed residue rows (`_power_rows`):
R[e] is x^e mod Phi_n, packed into one int, and a sum of at most six roots
zeta_n^e vanishes exactly when the sum of their rows is 0.  Most sums fail
this test; `_shape` runs only on the few that pass.

The interaction enumerations bound how many residue classes of a candidate
spectrum can pairwise differ by type2/type3 vectors, via an exact clique
computation on explicitly laid-out candidate vectors.

The interaction graph is built from one row per vertex orbit.  Let G be the
12 position permutations that fix index 1 and map {0, 2, 4} and {3, 5} to
themselves.  Every candidate list holds all layouts of its multisets with
the half turn pinned at index 1, so it is closed under G; the difference of
two vertices commutes with G, because G fixes the zero-class shift
(0, h, 0, h, 0, h); and the tag of a difference depends only on its
multiset.  The tag is also unchanged by negation (complex conjugation keeps
a sum vanishing and keeps each of the three shapes), so a pair read in the
other orientation keeps its tag.  Hence the edge set is G-invariant, and the
rows of one representative per G-orbit, with their G-images, give every
edge.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

from .cyclotomic import CycloSum, RootOfUnity, as_fraction, cyclotomic_poly, vanishes
from .errors import ClassificationError, WorkLimitError
from .intervals import IntervalUnion
from .jsonio import fraction_to_str

_HALF = Fraction(1, 2)


def _pair_partitions() -> tuple[tuple[tuple[int, int], ...], ...]:
    """The 15 partitions of {0..5} into three pairs."""
    out = []
    items = list(range(6))

    def rec(rest: list[int], acc: list[tuple[int, int]]) -> None:
        if not rest:
            out.append(tuple(acc))
            return
        first = rest[0]
        for other in rest[1:]:
            nxt = [x for x in rest if x not in (first, other)]
            rec(nxt, acc + [(first, other)])

    rec(items, [])
    return tuple(out)


_PAIR_PARTITIONS = _pair_partitions()

# splits of {0..5} into two triples, first one containing 0
_TRIPLE_SPLITS: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] = tuple(
    (
        (0,) + rest,
        tuple(x for x in range(1, 6) if x not in rest),
    )
    for rest in itertools.combinations(range(1, 6), 2)
)

# type3 normal form x + (L/30)*offset: the four fifths, then the two sixths
_TYPE3_OFFSETS = (6, 12, 18, 24, 5, 25)


@dataclass(frozen=True)
class SignedRootVector:
    """Six (sign, root) components; the value of component i is sign_i*root_i."""

    terms: tuple[tuple[int, RootOfUnity], ...]

    def __post_init__(self) -> None:
        if len(self.terms) != 6:
            raise ValueError("exactly six components required")
        norm = []
        for sign, root in self.terms:
            if sign not in (1, -1):
                raise ValueError("signs must be +1 or -1")
            norm.append((sign, root))
        object.__setattr__(self, "terms", tuple(norm))

    @staticmethod
    def from_frequency(omega: IntervalUnion, lam: object) -> "SignedRootVector":
        """(e(lam*(a1+r1)), -e(lam*a1), ..., -e(lam*a3)) for a three-piece set."""
        lam = as_fraction(lam)
        if len(omega.pieces) != 3:
            raise ValueError("need exactly three pieces")
        terms = []
        for a, r in omega.pieces:
            terms.append((1, RootOfUnity(lam * (a + r))))
            terms.append((-1, RootOfUnity(lam * a)))
        return SignedRootVector(tuple(terms))

    @staticmethod
    def zero_frequency() -> "SignedRootVector":
        one = RootOfUnity(Fraction(0))
        return SignedRootVector(tuple((1 if i % 2 == 0 else -1, one) for i in range(6)))

    @staticmethod
    def from_value_exponents(exponents: Sequence[object]) -> "SignedRootVector":
        """All-plus vector whose component values have the given exponents."""
        return SignedRootVector(
            tuple((1, RootOfUnity(as_fraction(e))) for e in exponents)
        )

    def value_exponents(self) -> tuple[Fraction, ...]:
        """Exponents of the component values, signs absorbed as half turns."""
        return tuple(
            (root.exponent + (0 if sign == 1 else _HALF)) % 1
            for sign, root in self.terms
        )

    def value(self) -> CycloSum:
        return CycloSum.from_exponents(self.value_exponents())


@dataclass(frozen=True)
class TypeTag:
    """Classification tag plus the structural witness.

    type1 witness: three index pairs with cancelling values;
    type2 witness: two index triples, each a rotated cube-root triple;
    type3 witness: (x root, quad indices, pair indices) in the normal form
    x*(fifth roots 1..4) plus -x*(omega, omega^2);
    not-vanishing carries no witness.
    """

    tag: str
    witness: object = None


def _shape(exps: Sequence[int], n: int) -> tuple[str, object]:
    """Tag and witness of sum_i zeta_n^(exps[i]) for six integer exponents.

    The exponents are lifted to L = lcm(n, 30), where half, third, fifth and
    sixth turns are integers.  Pair partitions are tried before triple
    splits, then the type3 normal form; the first witness found is returned.
    Each witness vanishes by itself: antipodal pairs cancel, a rotated
    cube-root triple sums to 0, and x*(z5 + z5^2 + z5^3 + z5^4) = -x while
    x*(z6 + z6^5) = x.  So a non-vanishing sum fits no witness, a vanishing
    one gets the same first witness as under a kernel-first order, and the
    kernel decides only sums with no witness: not-vanishing, or
    ClassificationError.  A pair partition needs the multiset closed under
    +L/2, a triple split under +L/3.  Lifted type3 exponents e are distinct
    and congruent mod u = L/30, and x is e[0] - offset*u for one offset; the
    witness is unique, as x's fifth coset is the only one with four terms.
    """
    L = math.lcm(n, 30)
    step = L // n
    e = [k * step % L for k in exps]
    half, third, u = L // 2, L // 3, L // 30
    s = sorted(e)
    if s == sorted((k + half) % L for k in e):
        for partition in _PAIR_PARTITIONS:
            if all((e[i] - e[j]) % L == half for i, j in partition):
                return "type1", partition
    if s == sorted((k + third) % L for k in e):
        turns = {third, 2 * third}
        for left, right in _TRIPLE_SPLITS:
            if all(
                {(e[b] - e[a]) % L, (e[c] - e[a]) % L} == turns
                for a, b, c in (left, right)
            ):
                return "type2", (left, right)
    if len(set(e)) == 6 and all((k - e[0]) % u == 0 for k in e):
        for offset in _TYPE3_OFFSETS:
            x = (e[0] - offset * u) % L
            place = [(k - x) % L // u for k in e]
            if sorted(place) == sorted(_TYPE3_OFFSETS):
                quad = tuple(i for i in range(6) if place[i] in _TYPE3_OFFSETS[:4])
                pair = tuple(i for i in range(6) if i not in quad)
                return "type3", (RootOfUnity(Fraction(x, L)), quad, pair)
    if not vanishes(Counter(e), L):
        return "not-vanishing", None
    raise ClassificationError("vanishing six-term sum outside the three known shapes")


def classify(v: SignedRootVector) -> TypeTag:
    """Trichotomy tag for the vector's total, with structural witness.

    With L = lcm(30, root denominators) each component is the integer
    exponent num*(L/den), plus L/2 for a minus sign, and `_shape` tags the
    sum; the kernel runs only when no shape fits.  The pair partition is
    preferred over the triple split when both exist.
    """
    L = math.lcm(30, *(r.exponent.denominator for _, r in v.terms))
    exps = [r.exponent.numerator * (L // r.exponent.denominator) for _, r in v.terms]
    flips = [0 if sign == 1 else L // 2 for sign, _ in v.terms]
    return TypeTag(*_shape([e + f for e, f in zip(exps, flips)], L))


def g_product(v: SignedRootVector, w: SignedRootVector) -> SignedRootVector:
    """Componentwise conjugate product with alternating position signs.

    For vectors built from frequencies over one set this realizes frequency
    subtraction: g_product(v_a, v_b) = v_(a-b).
    """
    out = []
    for i, ((sv, rv), (sw, rw)) in enumerate(zip(v.terms, w.terms)):
        pos_sign = 1 if i % 2 == 0 else -1
        out.append((pos_sign * sv * sw, rv * rw.conjugate()))
    return SignedRootVector(tuple(out))


def sdp(v: SignedRootVector, w: SignedRootVector) -> CycloSum:
    """Skew dot product: alternating-sign sum of componentwise v_i * conj(w_i).

    This is the total of the g_product term vector; it vanishes exactly when
    the two underlying frequencies differ by a zero-set member.
    """
    return g_product(v, w).value()


# ---------------------------------------------------------------------------
# interaction enumerations
# ---------------------------------------------------------------------------


def _root_numerators(order: int, scale: int) -> list[int]:
    step = scale // order
    return [k * step for k in range(order)]


def _power_rows(n: int) -> list[int]:
    """Rows R[e] = x^e mod Phi_n for e < n, each packed into one int.

    A row's coefficient vector (c_0, ..., c_{phi(n)-1}) is packed as its
    value at x = 2^w, with w = (6 * max|c|).bit_length() + 1.  A signed sum
    of at most six rows has coefficients with |c| < 2^(w-1), and a nonzero
    integer polynomial with such coefficients does not vanish at 2^w: if c_k
    is its lowest nonzero coefficient, its value is 2^(wk) * (c_k + 2^w * M)
    for an integer M, and 2^w does not divide c_k.  So the packed sum is 0
    exactly when the coefficient sum is 0, that is when Phi_n divides
    sum x^e, that is when sum zeta_n^e = 0.  The rows are distinct, because
    the zeta_n^e for e < n are.  For even n, R[e + n/2] = -R[e], and
    R[-e] = R[n - e] indexes negative exponents.  The coefficients reach 2 at
    n = 105 and 3 at n = 385, so w is read off the table.
    """
    phi = cyclotomic_poly(n)
    deg = len(phi) - 1
    rows = []
    cur = [1] + [0] * (deg - 1)
    for _ in range(n):
        rows.append(cur)
        carry = cur[-1]
        cur = [0] + cur[:-1]
        if carry:
            for i in range(deg):
                cur[i] -= carry * phi[i]
    w = (6 * max(abs(c) for row in rows for c in row)).bit_length() + 1
    return [sum(c << (w * i) for i, c in enumerate(row)) for row in rows]


def _distinct_layouts(multiset: tuple[int, ...], half: int) -> list[tuple[int, ...]]:
    """All position assignments with one half-turn value pinned at index 1."""
    rest = list(multiset)
    rest.remove(half)
    seen = set()
    for perm in itertools.permutations(rest):
        seen.add((perm[0], half, perm[1], perm[2], perm[3], perm[4]))
    return sorted(seen)


def _type2_candidates(order: int, scale: int) -> list[tuple[int, ...]]:
    half, third = scale // 2, scale // 3
    out: set[tuple[int, ...]] = set()
    for s in _root_numerators(order, scale):
        multiset = tuple(
            (base + k * third) % scale for base in (half, s) for k in range(3)
        )
        if _shape(multiset, scale)[0] == "type2":
            out.update(_distinct_layouts(multiset, half))
    return sorted(out)


def _type3_candidates(order: int, scale: int) -> list[tuple[int, ...]]:
    half, third, fifth = scale // 2, scale // 3, scale // 5
    out: set[tuple[int, ...]] = set()
    for x in _root_numerators(order, scale):
        multiset = tuple((x + k * fifth) % scale for k in range(1, 5)) + (
            (x + half + third) % scale,
            (x + half + 2 * third) % scale,
        )
        if half in multiset and _shape(multiset, scale)[0] == "type3":
            out.update(_distinct_layouts(multiset, half))
    return sorted(out)


def _difference_exponents(
    u: tuple[int, ...], v: tuple[int, ...], scale: int, half: int
) -> tuple[int, ...]:
    return (
        (u[0] - v[0]) % scale,
        (u[1] - v[1] + half) % scale,
        (u[2] - v[2]) % scale,
        (u[3] - v[3] + half) % scale,
        (u[4] - v[4]) % scale,
        (u[5] - v[5] + half) % scale,
    )


# G: the layout p sends v to (v[p[0]], ..., v[p[5]]).  Each p fixes index 1
# and keeps {0, 2, 4} and {3, 5}, so it fixes the shift (0, h, 0, h, 0, h).
_POSITION_SYMMETRIES: tuple[tuple[int, ...], ...] = tuple(
    (even[0], 1, even[1], odd[0], even[2], odd[1])
    for even in itertools.permutations((0, 2, 4))
    for odd in itertools.permutations((3, 5))
)


def _adjacency(
    vertices: list[tuple[int, ...]], scale: int, allowed: set[str]
) -> list[int]:
    """Bitset adjacency: i ~ j (i < j) iff the tag of d(v_i, v_j) is allowed.

    The vertex list must be closed under G, so that the edge set is
    G-invariant (see the module docstring).  The orbits are visited in index
    order, each from its smallest index r.  For an edge {a, b}, let r stand
    for whichever endpoint's orbit is visited first: then {a, b} is
    g({r, j}) for some g in G and some j in r's orbit or a later one.  So
    row r is tested only against the indices that no earlier orbit covers
    (all of them above r), and each edge found is set with all its G-images.
    A pair is tagged only when its packed rows sum to 0; the half turns of
    d at odd indices are the minus signs, as R[e + L/2] = -R[e].  Row r
    reads its six signed columns c_k[b] = +-R[a_k - b] from one table.
    """
    half = scale // 2
    R = _power_rows(scale)
    index = {v: i for i, v in enumerate(vertices)}
    images = [
        [index[tuple(v[k] for k in p)] for v in vertices]
        for p in _POSITION_SYMMETRIES
    ]
    n = len(vertices)
    adj = [0] * n
    covered = bytearray(n)
    for r in range(n):
        if covered[r]:
            continue
        c0, c1, c2, c3, c4, c5 = (
            [R[a - b] if k % 2 == 0 else -R[a - b] for b in range(scale)]
            for k, a in enumerate(vertices[r])
        )
        for j in range(r + 1, n):
            if covered[j]:
                continue
            b0, b1, b2, b3, b4, b5 = vj = vertices[j]
            if c0[b0] + c1[b1] + c2[b2] + c3[b3] + c4[b4] + c5[b5]:
                continue
            d = _difference_exponents(vertices[r], vj, scale, half)
            if _shape(d, scale)[0] in allowed:
                for img in images:
                    a, b = img[r], img[j]
                    adj[a] |= 1 << b
                    adj[b] |= 1 << a
        for img in images:
            covered[img[r]] = 1
    return adj


def _max_clique(adj: list[int], n: int) -> tuple[int, tuple[int, ...]]:
    """Exact maximum clique on a bitset adjacency list."""
    if n == 0:
        return 0, ()
    if not any(adj):
        return 1, (0,)
    best_size = 1
    best: tuple[int, ...] = (0,)

    # quick triangle scan first; most of our graphs have clique number 2
    tri: Optional[tuple[int, int, int]] = None
    for u in range(n):
        mask = adj[u] & ~((1 << (u + 1)) - 1)
        while mask:
            v = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            common = adj[u] & adj[v] & ~((1 << (v + 1)) - 1)
            if common:
                w = (common & -common).bit_length() - 1
                tri = (u, v, w)
                break
        if tri:
            break
    if tri is None:
        for u in range(n):
            if adj[u]:
                v = (adj[u] & -adj[u]).bit_length() - 1
                return 2, tuple(sorted((u, v)))
        return 1, (0,)

    best_size = 3
    best = tri

    # full branch and bound for the (rare) deeper case
    def expand(r: list[int], p: int) -> None:
        nonlocal best_size, best
        if not p:
            if len(r) > best_size:
                best_size = len(r)
                best = tuple(r)
            return
        if len(r) + bin(p).count("1") <= best_size:
            return
        pivot = (p & -p).bit_length() - 1
        cand = p & ~adj[pivot]
        cand |= 1 << pivot
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            expand(r + [v], p & adj[v] & ~((1 << (v + 1)) - 1))
            p &= ~(1 << v)

    expand([], (1 << n) - 1)
    return best_size, tuple(sorted(best))


@dataclass(frozen=True)
class InteractionReport:
    kind: str
    order_bound: int
    assumption_filter: bool
    vertex_count: int
    edge_count: int
    max_family: int
    family_witness: tuple[tuple[str, ...], ...]
    pair_configuration_count: Optional[int] = None
    pair_configuration_witness: Optional[tuple[str, str]] = None
    types_can_mix: Optional[bool] = None
    at_most_one_per_type: Optional[bool] = None

    def to_json_dict(self) -> dict:
        data: dict = {
            "orderBound": self.order_bound,
            "assumptionFilter": self.assumption_filter,
            "vertices": self.vertex_count,
            "edges": self.edge_count,
            "maxFamily": self.max_family,
            "witnesses": [list(w) for w in self.family_witness],
        }
        if self.pair_configuration_count is not None:
            data["arrayPairCount"] = self.pair_configuration_count
            if self.pair_configuration_witness is not None:
                data["arrayPairWitness"] = list(self.pair_configuration_witness)
        if self.types_can_mix is not None:
            data["typesCanMix"] = self.types_can_mix
            data["atMostOneCosetPerType"] = self.at_most_one_per_type
        return data


# At order m the graphs have about 40m vertices, and `--pair all` at m = 180
# takes about 5 s on one core of a 2-vCPU Intel Xeon host.
MAX_INTERACTION_ORDER = 180


def _serialize_vertex(exps: tuple[int, ...], scale: int) -> tuple[str, ...]:
    return tuple(fraction_to_str(Fraction(e, scale)) for e in exps)


def _interaction(
    kind: str, order_bound: int, assumption_filter: bool
) -> InteractionReport:
    if order_bound < 1:
        raise ValueError("order bound must be positive")
    if order_bound > MAX_INTERACTION_ORDER:
        raise WorkLimitError(
            f"order bound {order_bound} exceeds the limit {MAX_INTERACTION_ORDER}"
        )
    if kind == "type2-type2":
        if order_bound % 6 != 0:
            raise ValueError("order bound must be a multiple of 6")
        scale = math.lcm(order_bound, 6)
    else:
        if order_bound % 30 != 0:
            raise ValueError("order bound must be a multiple of 30")
        scale = math.lcm(order_bound, 30)
    half = scale // 2

    kinds: list[str] = []
    vertices: list[tuple[int, ...]] = []
    if kind in ("type2-type2", "type3-type2"):
        t2 = _type2_candidates(order_bound, scale)
        vertices.extend(t2)
        kinds.extend(["type2"] * len(t2))
    if kind in ("type3-type3", "type3-type2"):
        t3 = _type3_candidates(order_bound, scale)
        vertices.extend(t3)
        kinds.extend(["type3"] * len(t3))

    order = sorted(range(len(vertices)), key=lambda i: (vertices[i], kinds[i]))
    vertices = [vertices[i] for i in order]
    kinds = [kinds[i] for i in order]
    n = len(vertices)

    # A difference of distinct residue classes must vanish; under the
    # type1-iff-zero-class assumption it must avoid type1.  The kind only
    # restricts the class vectors themselves, not their differences.
    allowed = {"type2", "type3"}
    if not assumption_filter:
        allowed = allowed | {"type1"}

    adj = _adjacency(vertices, scale, allowed)
    edge_count = sum(mask.bit_count() for mask in adj) // 2

    clique_size, clique = _max_clique(adj, n)
    max_family = clique_size + 1  # the zero residue class always joins

    zero_vec = (0, half, 0, half, 0, half)
    witness = tuple(
        [_serialize_vertex(zero_vec, scale)]
        + [_serialize_vertex(vertices[i], scale) for i in clique]
    )

    report = InteractionReport(
        kind=kind,
        order_bound=order_bound,
        assumption_filter=assumption_filter,
        vertex_count=n,
        edge_count=edge_count,
        max_family=max_family,
        family_witness=witness,
    )
    if kind == "type3-type2":
        mixed_edge = False
        one_each = True
        for i in range(n):
            mask = adj[i]
            while mask:
                j = (mask & -mask).bit_length() - 1
                mask &= mask - 1
                if j <= i:
                    continue
                if kinds[i] != kinds[j]:
                    mixed_edge = True
                    common = adj[i] & adj[j]
                    if common:
                        one_each = False
        report = replace(
            report, types_can_mix=mixed_edge, at_most_one_per_type=one_each
        )
    return report


def _canonical_array_pairs(order_bound: int) -> tuple[int, Optional[tuple[str, str]]]:
    """Block-form pair scan: count (x, y) admitting a type2 difference.

    Both vectors are taken in the two-triple normal form; the second one is
    permuted within its triples and may have its triples swapped, and the
    signs are allocated per triple.  A pair counts when some configuration
    has vanishing alternating products forming a type2 vector.  With A and
    B the packed row sums (`_power_rows`) of the two triples of products,
    a configuration's packed sum is A - B or B - A, by its flip; so only
    configurations with A = B are tagged, under both flips.
    """
    scale = math.lcm(order_bound, 6)
    half, third = scale // 2, scale // 3
    R = _power_rows(scale)
    excluded = {half, (half + third) % scale, (half + 2 * third) % scale}
    xs = [x for x in _root_numerators(order_bound, scale) if x not in excluded]
    perms = list(itertools.permutations(range(3)))
    base = (0, third, 2 * third)

    def admits_type2(row_x: tuple[int, ...], block_y: tuple[int, ...]) -> bool:
        for b1, b2 in ((base, block_y), (block_y, base)):
            first = [sum(R[row_x[i] - b1[p[i]]] for i in range(3)) for p in perms]
            second = [sum(R[row_x[i + 3] - b2[p[i]]] for i in range(3)) for p in perms]
            for (sg, a), (mu, b) in itertools.product(
                zip(perms, first), zip(perms, second)
            ):
                if a != b:
                    continue
                arranged = tuple(b1[p] for p in sg) + tuple(b2[p] for p in mu)
                for flip in (0, half):
                    terms = tuple(
                        (row_x[i] - arranged[i] + (flip if i < 3 else half - flip))
                        % scale
                        for i in range(6)
                    )
                    if _shape(terms, scale)[0] == "type2":
                        return True
        return False

    shifted = {x: tuple((x + t) % scale for t in base) for x in xs}
    pairs = [
        (x, y) for x in xs for y in xs if admits_type2(base + shifted[x], shifted[y])
    ]
    if not pairs:
        return 0, None
    return len(pairs), tuple(fraction_to_str(Fraction(e, scale)) for e in pairs[0])


def enumerate_type2_type2(
    order_bound: int = 60, assumption_filter: bool = True
) -> InteractionReport:
    """Interaction of two-triple residue-class vectors.

    Reports the block-form pair count and the maximum mutually compatible
    family of explicit candidate vectors (zero class included).
    """
    report = _interaction("type2-type2", order_bound, assumption_filter)
    count, witness = _canonical_array_pairs(order_bound)
    return replace(
        report, pair_configuration_count=count, pair_configuration_witness=witness
    )


def enumerate_type3_type3(
    order_bound: int = 60, assumption_filter: bool = True
) -> InteractionReport:
    """Interaction of irreducible-shape residue-class vectors."""
    return _interaction("type3-type3", order_bound, assumption_filter)


def enumerate_type3_type2(
    order_bound: int = 60, assumption_filter: bool = True
) -> InteractionReport:
    """Mixed interaction; also reports whether the two shapes can coexist."""
    return _interaction("type3-type2", order_bound, assumption_filter)


# The weight-6 sweep visits about m^4/24 five-term prefixes at order m.
MAX_WEIGHT6_ORDER = 60


@dataclass(frozen=True)
class Weight6Report:
    ok: bool
    order_bound: int
    checked: int
    vanishing: int
    counterexample: Optional[tuple[str, ...]]

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "orderBound": self.order_bound,
            "checked": self.checked,
            "vanishing": self.vanishing,
            "counterexample": None
            if self.counterexample is None
            else list(self.counterexample),
        }


def verify_weight6_classification(order_bound: int = 30) -> Weight6Report:
    """Every vanishing signed six-term sum with orders dividing the bound
    must fall into one of the three shapes.

    Signs are absorbed as half turns, so the search runs over exponent
    multisets mod M (M doubled for odd bounds), normalized by rotation to
    start at exponent 0.  For each sorted prefix (0, e2, e3, e4, e5) the one
    possible sixth exponent is found by looking up the negated sum of the
    packed rows (`_power_rows`); `checked` still counts every tuple
    (0, e2, ..., e6) with e5 <= e6 up to the first counterexample.
    """
    if order_bound < 1:
        raise ValueError("order bound must be positive")
    if order_bound > MAX_WEIGHT6_ORDER:
        raise WorkLimitError(
            f"order bound {order_bound} exceeds the limit {MAX_WEIGHT6_ORDER}"
        )
    m = order_bound if order_bound % 2 == 0 else 2 * order_bound
    rows = _power_rows(m)
    closing = {-row: e for e, row in enumerate(rows)}

    checked = 0
    vanishing = 0
    base = rows[0]
    for e2 in range(m):
        p2 = base + rows[e2]
        for e3 in range(e2, m):
            p3 = p2 + rows[e3]
            for e4 in range(e3, m):
                p4 = p3 + rows[e4]
                for e5 in range(e4, m):
                    e6 = closing.get(p4 + rows[e5], -1)
                    if e6 < e5:
                        checked += m - e5
                        continue
                    vanishing += 1
                    exps = (0, e2, e3, e4, e5, e6)
                    try:
                        tag = _shape(exps, m)[0]
                    except ClassificationError:
                        tag = None
                    if tag not in ("type1", "type2", "type3"):
                        checked += e6 - e5 + 1
                        counterexample = tuple(
                            fraction_to_str(Fraction(e, m)) for e in exps
                        )
                        return Weight6Report(
                            False, order_bound, checked, vanishing, counterexample
                        )
                    checked += m - e5
    return Weight6Report(True, order_bound, checked, vanishing, None)
