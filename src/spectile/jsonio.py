"""Exact-rational JSON encoding helpers.

All rationals cross the wire as decimal strings (arbitrary precision), either
as a ["num", "den"] pair or as a single "p/q" string, never as floats.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import as_fraction


def fraction_to_pair(x: Fraction) -> list[str]:
    x = as_fraction(x)
    return [str(x.numerator), str(x.denominator)]


def pair_to_fraction(pair: object) -> Fraction:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ValueError(f"expected [num, den] pair, got {pair!r}")
    return as_fraction(pair)


def json_field(data: object, key: str) -> object:
    """data[key] of a decoded JSON object, or a ValueError naming the field."""
    if not isinstance(data, dict) or key not in data:
        raise ValueError(f"missing field {key!r}")
    return data[key]


def fraction_to_str(x: Fraction) -> str:
    x = as_fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_fraction(text: object) -> Fraction:
    """Accept "p/q" strings, ints, and [num, den] pairs."""
    if isinstance(text, (list, tuple)):
        return pair_to_fraction(text)
    return as_fraction(text)
