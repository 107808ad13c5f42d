"""Kernel tests: cyclotomic polynomials and exact zero detection."""

import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from spectile.cyclotomic import (
    CycloSum,
    RootOfUnity,
    as_fraction,
    cyclotomic_poly,
    TRIAL_DIVISION_LIMIT,
    smallest_prime_factor,
    vanishes,
)
from spectile.errors import WorkLimitError


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def test_first_cyclotomic_is_x_minus_one():
    assert cyclotomic_poly(1) == (-1, 1)


def test_sixth_cyclotomic():
    assert cyclotomic_poly(6) == (1, -1, 1)


def test_twelfth_cyclotomic_against_product_oracle():
    # oracle: the product of Phi_d over d | 12 expands to x^12 - 1
    prod = [1]
    for d in divisors(12):
        prod = poly_mul(prod, list(cyclotomic_poly(d)))
    assert prod == [-1] + [0] * 11 + [1]
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("n", list(range(1, 121)))
def test_product_identity_up_to_120(n):
    prod = [1]
    for d in divisors(n):
        prod = poly_mul(prod, list(cyclotomic_poly(d)))
    want = [0] * (n + 1)
    want[0] = -1
    want[n] = 1
    assert prod == want


@pytest.mark.parametrize(
    "n", [2, 4, 9, 27, 25, 49, 121, 1024, 2187, 2310, 15015, 30030, 10007]
)
def test_cyclotomic_poly_against_sympy(n):
    # prime powers, orders with three to five distinct primes, a large prime
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    want = sympy.cyclotomic_poly(n, x, polys=True).all_coeffs()[::-1]
    assert cyclotomic_poly(n) == tuple(int(c) for c in want)


def test_root_normalization():
    r = RootOfUnity(Fraction(7, 3))
    assert r.exponent == Fraction(1, 3)
    assert r.order == 3
    assert RootOfUnity(Fraction(-1, 4)).exponent == Fraction(3, 4)
    assert (r * r * r).exponent == 0


def test_float_rejected():
    with pytest.raises(TypeError):
        as_fraction(0.5)


def test_basic_zero_sums():
    omega = Fraction(1, 3)
    s = CycloSum.from_exponents([0, omega, 2 * omega])
    assert s.is_zero()
    assert abs(s.eval_complex()) < 1e-12

    s2 = CycloSum.from_pairs([(1, RootOfUnity(Fraction(0))), (-1, RootOfUnity(Fraction(0)))])
    assert s2.is_zero()

    two = CycloSum.from_pairs([(1, RootOfUnity(Fraction(0))), (1, RootOfUnity(Fraction(0)))])
    assert not two.is_zero()
    assert abs(two.eval_complex() - 2) < 1e-12


def test_fifth_roots_sum_to_minus_one():
    s = CycloSum.from_exponents([Fraction(k, 5) for k in range(1, 5)])
    assert abs(s.eval_complex() + 1) < 1e-12
    assert not s.is_zero()


def test_mixed_five_three_vanishing_sum():
    # rho + rho^2 + rho^3 + rho^4 - omega - omega^2 = (-1) - (-1)
    exps = [Fraction(k, 5) for k in range(1, 5)]
    exps += [Fraction(1, 3) + Fraction(1, 2), Fraction(2, 3) + Fraction(1, 2)]
    s = CycloSum.from_exponents(exps)
    assert s.is_zero()


def test_rotation_invariance():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 40)
        terms = [
            (rng.randint(-5, 5), RootOfUnity(Fraction(rng.randrange(n), n)))
            for _ in range(rng.randint(1, 6))
        ]
        s = CycloSum.from_pairs(terms)
        rot = RootOfUnity(Fraction(rng.randrange(n), n))
        assert s.is_zero() == (s * rot).is_zero()


def _random_sum(rng):
    n = rng.choice([k for k in range(1, 61)])
    k = rng.randint(1, 6)
    terms = []
    for _ in range(k):
        c = rng.randint(-5, 5)
        terms.append((c, RootOfUnity(Fraction(rng.randrange(n), n))))
    return CycloSum.from_pairs(terms)


def _planted_zero(rng):
    # random rational combination of rotated full prime orbits
    n = rng.choice([3, 5, 7, 2])
    rot = Fraction(rng.randrange(60), 60)
    c = rng.randint(1, 5) * rng.choice([1, -1])
    terms = [(c, RootOfUnity(rot + Fraction(j, n))) for j in range(n)]
    if rng.random() < 0.5:
        m = rng.choice([2, 3])
        rot2 = Fraction(rng.randrange(60), 60)
        c2 = rng.randint(1, 5)
        terms += [(c2, RootOfUnity(rot2 + Fraction(j, m))) for j in range(m)]
    return CycloSum.from_pairs(terms)


def test_exact_zero_agrees_with_float_oracle():
    # shared generator with the acceptance suite: orders <= 60, coeffs in [-5,5]
    rng = random.Random(20240901)
    for i in range(10_000):
        s = _planted_zero(rng) if i % 5 == 0 else _random_sum(rng)
        exact = s.is_zero()
        approx = abs(s.eval_complex())
        if exact:
            assert approx < 1e-9, s
        else:
            assert approx > 1e-9, s


def test_order_twice_a_large_prime():
    # common order 2062 = 2 * 1031
    s = CycloSum.from_exponents(
        [Fraction(1, 1031), Fraction(1, 2) + Fraction(1, 1031)]
    )
    assert s.is_zero()
    s2 = CycloSum.from_exponents([Fraction(1, 1031), Fraction(1, 2)])
    assert not s2.is_zero()


def test_cyclosum_algebra():
    a = CycloSum.from_exponents([0, Fraction(1, 3)])
    b = CycloSum.from_exponents([Fraction(2, 3)])
    assert (a + b - (a + b)).is_zero()
    assert (a - a).terms == ()
    prod = a * b
    assert prod.common_order == 3
    assert (a + b).is_zero()  # 1 + w + w^2


# Orders up to 2000 (plus 2310 = 2*3*5*7*11): prime powers, orders with a
# square factor, squarefree orders and primes.
_ORACLE_ORDERS = [
    2, 4, 8, 9, 25, 27, 32, 49, 81, 121, 125, 243, 343, 625, 729, 1024, 1331,
    12, 18, 20, 36, 72, 100, 180, 360, 450, 1000, 1800, 2000,
    6, 30, 105, 210, 1155, 2310, 97, 1009, 1999,
]


def _prime_factors(n):
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]


def _oracle_vanishes(coeffs, n):
    """Exact: sympy's remainder of sum c*x^k by the n-th cyclotomic polynomial."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.densearith import dup_rem
    from sympy.polys.densebasic import dup_strip

    x = sympy.Symbol("x")
    phi = [int(c) for c in sympy.cyclotomic_poly(n, x, polys=True).all_coeffs()]
    poly = [0] * n
    for k, c in coeffs.items():
        poly[n - 1 - k % n] += c
    return not dup_rem(dup_strip(poly), phi, sympy.ZZ)


def _seeded_sums(rng, n):
    """A random sum, and a sum of rotated full prime orbits plus noise."""
    yield {rng.randrange(n): rng.randint(-5, 5) for _ in range(rng.randint(1, 7))}
    planted = {}
    for _ in range(rng.randint(1, 3)):
        p = rng.choice([q for q in _prime_factors(n) if q <= 31] or [n])
        rot, c = rng.randrange(n), rng.choice([-3, -2, -1, 1, 2, 3])
        for j in range(p):
            k = (rot + j * (n // p)) % n
            planted[k] = planted.get(k, 0) + c
    yield planted
    k = rng.randrange(n)
    yield {**planted, k: planted.get(k, 0) + 1}


@pytest.mark.parametrize("n", _ORACLE_ORDERS)
def test_vanishes_agrees_with_sympy_remainder(n):
    rng = random.Random(1000 + n)
    for _ in range(3):
        for coeffs in _seeded_sums(rng, n):
            assert vanishes(coeffs, n) == _oracle_vanishes(coeffs, n), (n, coeffs)


def test_vanishes_reduces_exponents_and_merges_terms():
    assert vanishes({}, 7)
    assert vanishes({0: 0}, 1)
    assert not vanishes({5: 2}, 1)
    assert vanishes({3: 1, 3 + 6: -1}, 6)  # 3 and 9 are one exponent mod 6
    assert vanishes({-1: 1, 1: 1, 0: 1}, 3)


def test_is_zero_at_order_1e5_uses_little_memory():
    # 100003 is prime; 2 * 100003 also exercises the composite step
    for n in (100003, 2 * 100003):
        s = CycloSum.from_pairs(
            [(Fraction(1, 3), RootOfUnity(Fraction(k, n))) for k in (1, 7, 50000)]
            + [(Fraction(-2, 5), RootOfUnity(Fraction(1, 2)))]
        )
        tracemalloc.start()
        try:
            result = s.is_zero()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result is False
        assert peak < 1_000_000


def test_smallest_prime_factor_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(73)
    cases = [2, 3, 4, 9, 97, 1009 * 1013, 999983**2, 999983 * 1000003]
    cases += [rng.randrange(2, 10**12) for _ in range(400)]
    cases += [int(sympy.prevprime(rng.randrange(10**6, 10**12))) for _ in range(10)]
    for n in cases:
        p = min(sympy.factorint(n))
        assert smallest_prime_factor(n) == p, n
        assert smallest_prime_factor(n, p) == p, n


def test_smallest_prime_factor_beyond_trial_division():
    sympy = pytest.importorskip("sympy")
    assert TRIAL_DIVISION_LIMIT**2 < 10**16 + 61
    # primes: Miller-Rabin proves them at once
    for n in (10**16 + 61, int(sympy.prevprime(3 * 10**24))):
        assert sympy.isprime(n)
        assert smallest_prime_factor(n) == n
    # out of budget: two composites whose factors all lie beyond the limit
    # (the second a strong pseudoprime to every prime base up to 37), and a
    # prime above the bound where the Miller-Rabin bases are proven exact
    for n in (
        1000000007 * 1000000009,
        399165290221 * 798330580441,
        int(sympy.nextprime(4 * 10**24)),
    ):
        with pytest.raises(WorkLimitError):
            smallest_prime_factor(n)
    # either side of the limit itself
    below = int(sympy.prevprime(TRIAL_DIVISION_LIMIT + 1))
    above = int(sympy.nextprime(TRIAL_DIVISION_LIMIT))
    assert smallest_prime_factor(below * below) == below
    assert smallest_prime_factor(below * above) == below
    with pytest.raises(WorkLimitError):
        smallest_prime_factor(above * above)
