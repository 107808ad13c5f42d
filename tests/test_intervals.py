"""Interval unions, zero-set membership, level profiles, d-fold tiling."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spectile.errors import PreconditionError
from spectile.intervals import (
    IntervalUnion,
    boundary_sum,
    d_tiles,
    fourier_indicator,
    in_zero_set,
    level_function,
    residue_member,
    unit_interval_factor,
)
from spectile.spectra import (
    construct_half_pair,
    construct_unit3_pair,
    construct_unit4_pair,
)


def test_pieces_sorted_and_disjoint():
    om = IntervalUnion.from_pieces([(4, 1), (0, 1), (2, 1)])
    assert [a for a, _ in om.pieces] == [0, 2, 4]
    assert om.measure == 3
    with pytest.raises(ValueError):
        IntervalUnion.from_pieces([(0, 2), (1, 1)])
    with pytest.raises(ValueError):
        IntervalUnion.from_pieces([(0, 0)])


def test_adjacent_pieces_allowed():
    om = IntervalUnion.from_pieces([(0, 1), (1, 1)])
    assert om.measure == 2


def test_zero_set_unit_interval():
    om = IntervalUnion.from_pieces([(0, 1)])
    assert in_zero_set(om, 1)
    assert in_zero_set(om, -3)
    assert in_zero_set(om, 0)  # convention
    assert not in_zero_set(om, Fraction(1, 2))


def test_zero_set_three_cells():
    om = IntervalUnion.from_unit_cells([0, 4, 2])
    assert in_zero_set(om, Fraction(1, 3))
    # numeric oracle confirms 1/2 is not a zero
    assert abs(fourier_indicator(om, 0.5)) > 1e-9
    assert not in_zero_set(om, Fraction(1, 2))


def test_zero_set_conjugate_symmetry():
    rng = random.Random(11)
    for _ in range(300):
        q = rng.randint(1, 8)
        pieces = []
        cursor = Fraction(0)
        for _ in range(rng.randint(1, 3)):
            cursor += Fraction(rng.randint(0, 4), q)
            length = Fraction(rng.randint(1, 6), q)
            pieces.append((cursor, length))
            cursor += length
        om = IntervalUnion.from_pieces(pieces)
        den = rng.randint(1, 12)
        lam = Fraction(rng.randint(-24, 24), den)
        assert in_zero_set(om, lam) == in_zero_set(om, -lam)


def test_zero_set_agrees_with_float_oracle():
    rng = random.Random(12)
    for _ in range(600):
        q = rng.randint(1, 6)
        pieces = []
        cursor = Fraction(0)
        for _ in range(rng.randint(1, 3)):
            cursor += Fraction(rng.randint(0, 3), q)
            length = Fraction(rng.randint(1, 4), q)
            pieces.append((cursor, length))
            cursor += length
        om = IntervalUnion.from_pieces(pieces)
        den = rng.randint(1, 60)
        lam = Fraction(rng.randint(-60, 60), den)
        if lam == 0:
            continue
        exact = in_zero_set(om, lam)
        approx = abs(fourier_indicator(om, float(lam)))
        assert exact == (approx < 1e-9), (om, lam)


def test_unit_interval_factor():
    assert unit_interval_factor(IntervalUnion.from_unit_cells([0, 4, 2])) == (0, 2, 4)
    assert unit_interval_factor(IntervalUnion.from_pieces([(0, 1)])) == (0,)
    # a length-2 piece splits into two cells
    om = IntervalUnion.from_pieces([(0, 2), (5, 1), (8, 1)])
    assert unit_interval_factor(om) == (0, 1, 5, 8)
    with pytest.raises(ValueError):
        unit_interval_factor(IntervalUnion.from_pieces([(0, Fraction(1, 2))]))
    with pytest.raises(ValueError):
        unit_interval_factor(IntervalUnion.from_pieces([(Fraction(1, 2), 1)]))


def test_unit_factor_consistency_with_zero_set():
    # for unit-cell unions the zero set is Z \ {0} union zeros of the cell sum
    from spectile.cyclotomic import CycloSum

    rng = random.Random(13)
    for _ in range(100):
        cells = sorted(rng.sample(range(0, 9), rng.randint(1, 4)))
        om = IntervalUnion.from_unit_cells(cells)
        offsets = unit_interval_factor(om)
        den = rng.randint(1, 12)
        lam = Fraction(rng.randint(-12, 12), den)
        cell_sum = CycloSum.from_exponents([lam * a for a in offsets])
        expected = lam == 0 or (lam % 1 == 0) or cell_sum.is_zero()
        assert in_zero_set(om, lam) == expected


def test_level_function_unit():
    om = IntervalUnion.from_pieces([(0, 1)])
    assert level_function(om, 1).values == (1,)
    om3 = IntervalUnion.from_pieces(
        [(0, Fraction(1, 3)), (Fraction(1, 3), Fraction(1, 3)), (Fraction(2, 3), Fraction(1, 3))]
    )
    assert level_function(om3, 1).is_constant(1)


def level_oracle(om, d, samples=200):
    # independent membership count at random non-boundary points
    rng = random.Random(99)
    lo = min(a for a, _ in om.pieces)
    hi = max(a + r for a, r in om.pieces)
    k_lo = math.floor(float(lo) * d) - 1
    k_hi = math.ceil(float(hi) * d) + 1
    counts = set()
    for _ in range(samples):
        x = Fraction(rng.randint(1, 10**6), 10**6 * d) + Fraction(rng.randint(0, d - 1), d) / 10**7
        x = x % Fraction(1, d)
        c = sum(1 for k in range(k_lo, k_hi + 1) if om.contains(x + Fraction(k, d)))
        counts.add(c)
    return counts


def test_two_cells_double_cover():
    om = IntervalUnion.from_pieces([(0, Fraction(1, 2)), (Fraction(3, 2), Fraction(1, 2))])
    prof = level_function(om, 2)
    assert prof.is_constant(2)
    assert d_tiles(om, 2)
    assert level_oracle(om, 2) == {2}


def test_not_a_triple_cover():
    om = IntervalUnion.from_pieces([(0, Fraction(1, 2)), (1, Fraction(1, 2))])
    assert not d_tiles(om, 3)
    assert not d_tiles(om, 1)
    assert d_tiles(om, 2)
    assert 3 not in level_oracle(om, 3) or len(level_oracle(om, 3)) > 1


def test_d_tiles_requires_measure_one():
    om = IntervalUnion.from_unit_cells([0, 2, 4])
    with pytest.raises(PreconditionError):
        d_tiles(om, 1)


def test_scaled_cells_tile():
    om = IntervalUnion.from_unit_cells([0, 4, 2]).scaled(Fraction(1, 3))
    assert d_tiles(om, 1)
    # tiling implies integer zeros (Fourier side), desk window
    for k in range(1, 51):
        assert in_zero_set(om, k)
        assert in_zero_set(om, -k)


def test_one_tiling_implies_multiple_cover():
    om = IntervalUnion.from_unit_cells([0, 4, 2]).scaled(Fraction(1, 3))
    for d in (1, 2, 3, 4):
        assert d_tiles(om, d)


def test_json_round_trip():
    om = IntervalUnion.from_pieces([(Fraction(-1, 3), Fraction(5, 6)), (2, 1)])
    data = om.to_json_dict()
    assert data["pieces"][0] == [["-1", "3"], ["5", "6"]]
    assert IntervalUnion.from_json_dict(data) == om


# ---------------------------------------------------------------------------
# periodicity of the zero set, and the sweep against the per-cell loop
# ---------------------------------------------------------------------------


def random_union(rng, q_max=40, n_max=4):
    """Up to n_max disjoint pieces with endpoints in (1/q)Z, q <= q_max."""
    q = rng.randint(1, q_max)
    cursor = Fraction(rng.randint(-3 * q, 3 * q), q)
    pieces = []
    for _ in range(rng.randint(1, n_max)):
        length = Fraction(rng.randint(1, 2 * q), q)
        pieces.append((cursor, length))
        cursor += length + Fraction(rng.randint(0, 3 * q), q)
    return IntervalUnion.from_pieces(pieces)


def family_unions():
    out = [construct_unit3_pair(j, r, s)[0] for j in (0, 1, 2) for r, s in ((0, 0), (1, 2))]
    out += [construct_unit4_pair(l, r, s)[0] for l in (1, 2, 3) for r, s in ((1, 1), (3, 1))]
    out += [construct_half_pair(n, k, k0, r)[0] for n, k, k0, r in (
        (1, 1, 1, Fraction(1, 4)), (3, 9, 3, Fraction(1, 3)), (6, 18, 2, Fraction(1, 6)))]
    return out


def reference_count(om, d, grid, m):
    # one cell of the per-cell Fraction loop the breakpoint sweep replaced
    x = Fraction(m, grid)
    count = 0
    for a, r in om.pieces:
        lo = d * (a - x)
        hi = lo + d * r
        count += math.ceil(hi) - math.ceil(lo)
    return count


def reference_level_function(om, d):
    grid = math.lcm(om.endpoint_denominator(), d)
    return Fraction(1, grid), tuple(
        reference_count(om, d, grid, m) for m in range(grid // d)
    )


def test_level_function_matches_per_cell_loop():
    rng = random.Random(71)
    unions = [random_union(rng) for _ in range(250)] + family_unions()
    for om in unions:
        for d in range(1, 10):
            prof = level_function(om, d)
            assert (prof.cell_width, prof.values) == reference_level_function(om, d)


def test_level_function_at_a_large_denominator():
    # q = 10^5: 10^5 cells, still at most 2n steps
    om = IntervalUnion.from_pieces(
        [(Fraction(1, 100000), Fraction(3, 10)), (Fraction(7, 5), Fraction(7, 10))]
    )
    prof = level_function(om, 1)
    assert len(prof.values) == 100000
    rng = random.Random(72)
    for m in [0, 1, 29999, 30000, 30001, 39999, 40000, 99999] + rng.sample(range(100000), 500):
        assert prof.values[m] == reference_count(om, 1, 100000, m)
    assert sum(a != b for a, b in zip(prof.values, prof.values[1:])) <= 4


@st.composite
def union_and_frequency(draw):
    om = random_union(random.Random(draw(st.integers(0, 10**6))), q_max=12, n_max=3)
    lam = Fraction(draw(st.integers(-60, 60)), draw(st.integers(1, 24)))
    return om, lam, draw(st.integers(-3, 3))


@given(union_and_frequency())
def test_zero_set_is_periodic_in_the_endpoint_denominator(case):
    om, lam, k = case
    q = om.endpoint_denominator()
    expected = boundary_sum(om, lam).is_zero()  # unreduced, uncached
    assert in_zero_set(om, lam) == expected == in_zero_set(om, lam + k * q)


def test_residue_member_matches_in_zero_set():
    rng = random.Random(73)
    for om in [random_union(rng, q_max=12) for _ in range(60)] + family_unions():
        scale = rng.randint(1, 30)
        period, member = residue_member(om, scale)
        assert period == om.endpoint_denominator() * scale
        for _ in range(40):
            m = rng.randint(-2000, 2000)
            assert member(m) == boundary_sum(om, Fraction(m, scale)).is_zero()


@st.composite
def touching_union_and_frequency(draw):
    # pieces on (1/q)Z whose gaps are often 0, so that pieces touch
    q = draw(st.integers(1, 12))
    cursor = draw(st.integers(-3 * q, 3 * q))
    pieces = []
    for _ in range(draw(st.integers(1, 4))):
        length = draw(st.integers(1, 2 * q))
        pieces.append((Fraction(cursor, q), Fraction(length, q)))
        cursor += length + draw(st.one_of(st.just(0), st.integers(0, 3 * q)))
    draw(st.randoms()).shuffle(pieces)
    lam = Fraction(draw(st.integers(-60, 60)), draw(st.integers(1, 24)))
    return pieces, lam


@given(touching_union_and_frequency())
def test_integer_endpoints_map_back_to_the_pieces(case):
    pieces, lam = case
    om = IntervalUnion.from_pieces(pieces)
    q = om.endpoint_denominator()
    assert q == math.lcm(*(x.denominator for piece in pieces for x in piece))
    assert om.pieces == tuple(sorted(pieces))
    assert tuple((Fraction(left, q), Fraction(right - left, q))
                 for left, right in om._ends) == om.pieces
    assert in_zero_set(om, lam) == boundary_sum(om, lam).is_zero()
