"""Exact arithmetic for sums of roots of unity with rational coefficients.

Roots are stored by their exponent: e^(2*pi*i*p/q) is kept as the reduced
fraction p/q in [0, 1).  `vanishes` decides whether a sum is zero, over
integer exponents and coefficients, never by floating point.  With
zeta_n = e^(2*pi*i/n), p the smallest prime factor of n and m = n/p
(de Bruijn 1953; Lam & Leung, J. Algebra 224, 2000):
- if p divides m, then 1, zeta_n, ..., zeta_n^(p-1) is a basis of Q(zeta_n)
  over Q(zeta_m), so each class of exponents mod p must vanish on its own;
- otherwise zeta_n^k = zeta_p^a * zeta_m^b by the Chinese remainder theorem,
  and since 1, zeta_p, ..., zeta_p^(p-2) is a basis over Q(zeta_m), the sum
  vanishes iff the parts S_a collecting each a are all equal.
Each step works on the terms alone: no tables, and memory bounded by the
number of terms whatever the order.  An order that is neither provably
prime nor divisible by a prime up to TRIAL_DIVISION_LIMIT raises
WorkLimitError.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .errors import WorkLimitError

RationalLike = Union[Fraction, int, str]


def as_fraction(value: object) -> Fraction:
    """Coerce ints, strings ("3/4") and [num, den] pairs to Fraction.

    Floats are refused: every quantity in this package is exact, and a float
    argument is almost always a lost denominator.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    try:
        if isinstance(value, str):
            return Fraction(value)
        if isinstance(value, (tuple, list)) and len(value) == 2:
            return Fraction(int(value[0]), int(value[1]))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"expected an exact rational, got {value!r}")


@dataclass(frozen=True, order=True)
class RootOfUnity:
    """e^(2*pi*i*exponent) with the exponent reduced mod 1."""

    exponent: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "exponent", as_fraction(self.exponent) % 1)

    @property
    def order(self) -> int:
        return self.exponent.denominator

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        return RootOfUnity(self.exponent + other.exponent)

    def conjugate(self) -> "RootOfUnity":
        return RootOfUnity(-self.exponent)

    def negated(self) -> "RootOfUnity":
        """The root equal to -1 times this one."""
        return RootOfUnity(self.exponent + Fraction(1, 2))

    def complex_value(self) -> complex:
        return cmath.exp(2j * cmath.pi * float(self.exponent))


@dataclass(frozen=True)
class CycloSum:
    """Finite sum  sum_i c_i * e^(2*pi*i*e_i)  with rational c_i.

    Terms are merged by root and sorted; zero coefficients are dropped, so
    equal values built along different routes compare equal.
    """

    terms: tuple[tuple[Fraction, RootOfUnity], ...]

    def __post_init__(self) -> None:
        merged: dict[Fraction, Fraction] = {}
        for coeff, root in self.terms:
            c = as_fraction(coeff)
            e = root.exponent
            merged[e] = merged.get(e, Fraction(0)) + c
        cleaned = tuple(
            (c, RootOfUnity(e)) for e, c in sorted(merged.items()) if c != 0
        )
        object.__setattr__(self, "terms", cleaned)

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[RationalLike, RootOfUnity]]) -> "CycloSum":
        return CycloSum(tuple((as_fraction(c), r) for c, r in pairs))

    @staticmethod
    def from_exponents(exponents: Iterable[RationalLike]) -> "CycloSum":
        """Sum of unit-coefficient roots given by their exponents."""
        return CycloSum(tuple((Fraction(1), RootOfUnity(as_fraction(e))) for e in exponents))

    @property
    def common_order(self) -> int:
        return math.lcm(*(root.order for _, root in self.terms))

    def __add__(self, other: "CycloSum") -> "CycloSum":
        return CycloSum(self.terms + other.terms)

    def __sub__(self, other: "CycloSum") -> "CycloSum":
        return self + (-other)

    def __neg__(self) -> "CycloSum":
        return CycloSum(tuple((-c, r) for c, r in self.terms))

    def __mul__(self, other: object) -> "CycloSum":
        if isinstance(other, RootOfUnity):
            return CycloSum(tuple((c, r * other) for c, r in self.terms))
        if isinstance(other, CycloSum):
            return CycloSum(
                tuple(
                    (c1 * c2, r1 * r2)
                    for c1, r1 in self.terms
                    for c2, r2 in other.terms
                )
            )
        return CycloSum(tuple((c * as_fraction(other), r) for c, r in self.terms))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        n = self.common_order
        den = math.lcm(*(c.denominator for c, _ in self.terms))
        coeffs = {
            r.exponent.numerator * (n // r.order): c.numerator * (den // c.denominator)
            for c, r in self.terms
        }
        return vanishes(coeffs, n)

    def eval_complex(self) -> complex:
        return sum(
            (float(c) * r.complex_value() for c, r in self.terms), complex(0)
        )


TRIAL_DIVISION_LIMIT = 2**20
_TRIAL_SQUARE = TRIAL_DIVISION_LIMIT**2

# Miller-Rabin with these bases is exact below _MILLER_RABIN_EXACT
# (Sorenson & Webster, Math. Comp. 86, 2017).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_EXACT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    # n odd, above every base and below _MILLER_RABIN_EXACT.
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def smallest_prime_factor(n: int, start: int = 2) -> int:
    """Smallest prime factor of n >= 2, given that no prime below start divides it.

    Trial division runs up to TRIAL_DIVISION_LIMIT.  Past that, n is returned
    if Miller-Rabin proves it prime; otherwise its smallest factor lies
    beyond the limit and WorkLimitError is raised.
    """
    # One bound serves both stops, so each step costs what plain trial
    # division costs; the kernel calls this inside its recursion.  When
    # bound == n, trial division reached sqrt(n), so n is prime.
    bound = n if n < _TRIAL_SQUARE else _TRIAL_SQUARE
    p = start
    while n % p:
        p += 1
        if p * p > bound:
            if bound == n or (n < _MILLER_RABIN_EXACT and _is_prime(n)):
                return n
            raise WorkLimitError(
                f"order {n} has no prime factor up to {TRIAL_DIVISION_LIMIT}"
                " and is not provably prime"
            )
    return p


def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, constant term first.

    For n > 1, Phi_n(x) = prod over d | n of (1 - x^d)^mu(n/d) (Lang,
    Algebra, VI 3): Moebius inversion of x^n - 1 = prod_{d | n} Phi_d(x),
    with the signs of x^d - 1 cancelling because sum_{s | n} mu(s) = 0.
    The product is built as a power series cut at degree phi(n), the degree
    of Phi_n: each squarefree s | n, with d = n/s, multiplies by 1 - x^d
    when mu(s) = 1 and divides by it, exactly, when mu(s) = -1.  A factor
    with d > phi(n) is 1 at that precision and is skipped.
    """
    if n < 1:
        raise ValueError("order must be positive")
    if n == 1:
        return (-1, 1)
    primes: list[int] = []
    m = n
    while m > 1:
        p = smallest_prime_factor(m, primes[-1] + 1 if primes else 2)
        primes.append(p)
        while m % p == 0:
            m //= p
    deg = n // math.prod(primes) * math.prod(p - 1 for p in primes)
    squarefree = [(1, 1)]  # (s, mu(s))
    for p in primes:
        squarefree += [(s * p, -mu) for s, mu in squarefree]
    poly = [1] + [0] * deg
    for s, mu in squarefree:
        d = n // s
        if d > deg:
            continue
        if mu == 1:
            for i in range(deg, d - 1, -1):
                poly[i] -= poly[i - d]
        else:
            for i in range(d, deg + 1):
                poly[i] += poly[i - d]
    return tuple(poly)


def vanishes(coeffs: dict[int, int], n: int) -> bool:
    """True iff the sum of c * zeta_n^k over the items (k, c) is zero.

    Exponents are reduced mod n; see the module docstring for the method.
    """
    terms: dict[int, int] = {}
    for k, c in coeffs.items():
        k %= n
        terms[k] = terms.get(k, 0) + c
    return _vanishes({k: c for k, c in terms.items() if c}, n, 2)


def _vanishes(terms: dict[int, int], n: int, p: int) -> bool:
    # terms: distinct exponents in range(n), nonzero coefficients; no prime
    # below p divides n.
    if len(terms) <= 1:
        return not terms
    if n % p:  # p often still divides n; skip the call then
        p = smallest_prime_factor(n, p)
    m = n // p
    parts: dict[int, dict[int, int]] = {}
    if m % p == 0:
        for k, c in terms.items():
            parts.setdefault(k % p, {})[k // p] = c
        return all(_vanishes(part, m, p) for part in parts.values())
    u, v = pow(m, -1, p), pow(p, -1, m)
    for k, c in terms.items():
        parts.setdefault(k * u % p, {})[k * v % m] = c
    if len(parts) < p:
        # An empty part is zero, so every part must vanish alone.
        return all(_vanishes(part, m, p + 1) for part in parts.values())
    # All parts are equal iff each minus the smallest one vanishes.
    ref = min(parts.values(), key=len)
    for part in parts.values():
        diff = {b: part.get(b, 0) - ref.get(b, 0) for b in part.keys() | ref.keys()}
        if not _vanishes({b: d for b, d in diff.items() if d}, m, p + 1):
            return False
    return True

