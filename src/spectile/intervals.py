"""Finite unions of half-open intervals and their Fourier zero set.

An `IntervalUnion` carries, besides its Fraction pieces, one integer form
built at construction: q, the lcm of every endpoint denominator, and the
q-scaled endpoints (q*a, q*(a + r)) of each piece.  The overlap check runs
on those integers, and `endpoint_denominator`, `in_zero_set` and
`level_function` read them, so no query redoes Fraction arithmetic on the
pieces.

Membership of a rational frequency in the zero set of the indicator's
Fourier transform reduces to exact vanishing of a sum of roots of unity:
for lam != 0,  2*pi*i*lam * FT(lam) = sum_j e(lam*(a_j+r_j)) - e(lam*a_j).
With q the endpoint denominator, that sum is q-periodic in lam, so
membership depends only on lam mod q: `in_zero_set` takes the scaled
endpoints and asks the kernel about integer exponents mod den(lam)*q, and
`residue_member` gives the checks over many points an integer oracle that
decides each class once, with a per-call memo.
The covering-multiplicity profile of the (1/d)Z translates is a step
function with at most one step per endpoint, found by an integer sweep;
it decides d-fold tiling.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .cyclotomic import CycloSum, RootOfUnity, as_fraction, vanishes
from .errors import PreconditionError
from .jsonio import fraction_to_pair, json_field, pair_to_fraction


@dataclass(frozen=True)
class IntervalUnion:
    """Disjoint union of [left, left+length) pieces, sorted by left endpoint."""

    pieces: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        pieces = [(as_fraction(a), as_fraction(r)) for a, r in self.pieces]
        if not pieces:
            raise ValueError("at least one piece required")
        q = math.lcm(*(x.denominator for piece in pieces for x in piece))
        scaled = []
        for a, r in pieces:
            left = a.numerator * (q // a.denominator)
            scaled.append(((left, left + r.numerator * (q // r.denominator)), (a, r)))
        scaled.sort()
        for (left, right), (_, r) in scaled:
            if right <= left:
                raise ValueError(f"piece length must be positive, got {r}")
        for ((_, right), _), ((left, _), (a, _)) in zip(scaled, scaled[1:]):
            if right > left:
                raise ValueError(f"pieces overlap near {a}")
        object.__setattr__(self, "pieces", tuple(piece for _, piece in scaled))
        # The integer form: not fields, so equality, hashing and repr see
        # only the pieces.
        object.__setattr__(self, "_q", q)
        object.__setattr__(self, "_ends", tuple(ends for ends, _ in scaled))

    @staticmethod
    def from_pieces(pieces: Iterable[tuple[object, object]]) -> "IntervalUnion":
        return IntervalUnion(tuple((a, r) for a, r in pieces))

    @staticmethod
    def from_unit_cells(offsets: Iterable[int]) -> "IntervalUnion":
        return IntervalUnion(tuple((Fraction(o), Fraction(1)) for o in offsets))

    @property
    def measure(self) -> Fraction:
        return sum((r for _, r in self.pieces), Fraction(0))

    def scaled(self, factor: object) -> "IntervalUnion":
        f = as_fraction(factor)
        if f <= 0:
            raise ValueError("scale factor must be positive")
        return IntervalUnion(tuple((a * f, r * f) for a, r in self.pieces))

    def translated(self, t: object) -> "IntervalUnion":
        t = as_fraction(t)
        return IntervalUnion(tuple((a + t, r) for a, r in self.pieces))

    def contains(self, x: object) -> bool:
        x = as_fraction(x)
        return any(a <= x < a + r for a, r in self.pieces)

    def endpoint_denominator(self) -> int:
        """lcm of the endpoints' denominators, which is that of the a and r."""
        return self._q

    def to_json_dict(self) -> dict:
        return {
            "pieces": [
                [fraction_to_pair(a), fraction_to_pair(r)] for a, r in self.pieces
            ]
        }

    @staticmethod
    def from_json_dict(data: dict) -> "IntervalUnion":
        return IntervalUnion(
            tuple(
                (pair_to_fraction(a), pair_to_fraction(r))
                for a, r in json_field(data, "pieces")
            )
        )


def boundary_sum(omega: IntervalUnion, lam: object) -> CycloSum:
    """sum_j e(lam*(a_j+r_j)) - e(lam*a_j), which is 2*pi*i*lam*FT(lam)."""
    lam = as_fraction(lam)
    terms = []
    for a, r in omega.pieces:
        terms.append((Fraction(1), RootOfUnity(lam * (a + r))))
        terms.append((Fraction(-1), RootOfUnity(lam * a)))
    return CycloSum(tuple(terms))


def in_zero_set(omega: IntervalUnion, lam: object) -> bool:
    """Membership in the zero set of the indicator's Fourier transform.

    The point 0 belongs by convention, so difference sets of candidate
    spectra can be tested uniformly.

    Periodicity: let q = omega.endpoint_denominator(), so q*x is an integer
    for every endpoint x.  Then e((lam+q)*x) = e(lam*x), hence
    boundary_sum(omega, lam+q) = boundary_sum(omega, lam), and membership
    of lam != 0 depends only on lam mod q.  A nonzero multiple of q has
    every term equal to 1, so the sum is n - n = 0: residue 0 belongs.

    With lam = num/den and X = q*x, e(lam*x) = zeta_n^(num*X) for
    n = den*q, so the boundary sum is an integer sum of n-th roots of
    unity.  Touching pieces cancel at a shared endpoint; dividing n and
    the surviving exponents by their gcd then gives the lcm of the roots'
    orders, so the kernel factors the least order the sum lives at.
    """
    lam = as_fraction(lam)
    num, n = lam.numerator, lam.denominator * omega._q
    if num % n == 0:  # exactly when lam is a multiple of q
        return True
    terms: dict[int, int] = {}
    for left, right in omega._ends:
        k = num * left % n
        terms[k] = terms.get(k, 0) - 1
        k = num * right % n
        terms[k] = terms.get(k, 0) + 1
    terms = {k: c for k, c in terms.items() if c}
    g = math.gcd(n, *terms)
    return vanishes({k // g: c for k, c in terms.items()}, n // g)


def residue_member(
    omega: IntervalUnion, scale: int
) -> tuple[int, Callable[[int], bool]]:
    """(P, member) with member(m) == (m/scale in the zero set), P = q*scale.

    m/scale mod q is m mod P, so member(m) depends only on m mod P; and
    lam, -lam belong together (the boundary sum at -lam is the complex
    conjugate), so each class {r, -r} mod P is decided by one `in_zero_set`
    call.  The memo lives only as long as the returned function.
    """
    period = omega.endpoint_denominator() * scale
    memo: dict[int, bool] = {}

    def member(m: int) -> bool:
        r = m % period
        r = min(r, period - r)
        hit = memo.get(r)
        if hit is None:
            hit = memo[r] = in_zero_set(omega, Fraction(r, scale))
        return hit

    return period, member


def fourier_indicator(omega: IntervalUnion, xi: float) -> complex:
    """Float evaluation of the indicator's Fourier transform (test oracle)."""
    if xi == 0:
        return complex(float(omega.measure))
    total = complex(0)
    for a, r in omega.pieces:
        total += cmath.exp(2j * cmath.pi * xi * float(a + r)) - cmath.exp(
            2j * cmath.pi * xi * float(a)
        )
    return total / (2j * cmath.pi * xi)


def unit_interval_factor(omega: IntervalUnion) -> tuple[int, ...]:
    """Integer offsets A with Omega = union of unit cells at A.

    Splits multi-unit pieces into unit cells; rejects pieces that are not
    integer-aligned runs of unit cells.
    """
    offsets: list[int] = []
    for a, r in omega.pieces:
        if a.denominator != 1 or r.denominator != 1:
            raise ValueError(
                "pieces must be unit intervals on integer endpoints"
            )
        for i in range(int(r)):
            offsets.append(int(a) + i)
    return tuple(offsets)


@dataclass(frozen=True)
class LevelProfile:
    """Step profile of x -> number of k with x + k/d in the set, x in [0, 1/d)."""

    cell_width: Fraction
    values: tuple[int, ...]

    def is_constant(self, value: int) -> bool:
        return all(v == value for v in self.values)


def level_function(omega: IntervalUnion, d: int) -> LevelProfile:
    """Exact covering-multiplicity profile of the (1/d)Z translates.

    The profile is sampled on the cells m/grid, 0 <= m < cells, with
    grid = lcm(q, d) and cells = grid/d.  A piece [b, c) covers x = m/grid
    ceil(d(c - x)) - ceil(d(b - x)) times; with E = endpoint*grid an integer,
    ceil(d(E - m)/grid) = -floor((m - E)/cells), and writing
    E = t*cells + e (0 <= e < cells), floor((m - E)/cells) = [m >= e] - t - 1
    on the cells.  So the profile starts at sum(t_c - t_b) and steps by +1
    at every e_b and by -1 at every e_c: at most 2n cut points.
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    grid = math.lcm(omega._q, d)
    cells = grid // d
    lift = grid // omega._q
    level = 0
    steps: dict[int, int] = {}
    for left, right in omega._ends:
        for end, sign in ((left, 1), (right, -1)):
            t, e = divmod(end * lift, cells)
            level -= sign * t
            steps[e] = steps.get(e, 0) + sign
    values: list[int] = []
    start = 0
    for cut in sorted(steps):
        values += [level] * (cut - start)
        level += steps[cut]
        start = cut
    values += [level] * (cells - start)
    return LevelProfile(Fraction(1, grid), tuple(values))


def d_tiles(omega: IntervalUnion, d: int) -> bool:
    """True iff translates by (1/d)Z cover the line exactly d times."""
    if omega.measure != 1:
        raise PreconditionError("d-tiling test requires total measure 1")
    return level_function(omega, d).is_constant(d)
