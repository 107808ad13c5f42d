"""Tiling of the integers by finite sets, and tiling-pattern search.

Two independent routes decide whether a finite integer set tiles Z: the
prime-power valuation criterion (Newman), and a brute-force periodic
exact-cover search.  The pattern search enumerates exact partitions of a
window by three labeled pieces and keeps those realizable as translates of
a single three-piece tile.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .cyclotomic import as_fraction
from .jsonio import fraction_to_pair, json_field

DEFAULT_PERIOD_CAP = 4096


@dataclass(frozen=True)
class IntegerSet:
    """Sorted set of distinct integers."""

    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        elems = tuple(sorted(int(x) for x in self.elements))
        if len(set(elems)) != len(elems):
            raise ValueError("elements must be distinct")
        if not elems:
            raise ValueError("empty set")
        object.__setattr__(self, "elements", elems)

    @property
    def k(self) -> int:
        return len(self.elements)

    @property
    def diameter(self) -> int:
        return self.elements[-1] - self.elements[0]

    def to_json_dict(self) -> dict:
        return {"elements": [str(x) for x in self.elements]}

    @staticmethod
    def from_json_dict(data: dict) -> "IntegerSet":
        return IntegerSet(tuple(int(x) for x in json_field(data, "elements")))


def _as_integer_set(a: object) -> IntegerSet:
    if isinstance(a, IntegerSet):
        return a
    return IntegerSet(tuple(a))  # type: ignore[arg-type]


def _prime_power(k: int) -> Optional[tuple[int, int]]:
    if k < 2:
        return None
    p = None
    n = k
    for q in range(2, k + 1):
        if q * q > n:
            break
        if n % q == 0:
            p = q
            break
    if p is None:
        p = n
    alpha = 0
    while n % p == 0:
        n //= p
        alpha += 1
    return (p, alpha) if n == 1 else None


def _valuation(p: int, x: int) -> int:
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


@dataclass(frozen=True)
class NewmanReport:
    p: int
    alpha: int
    valuations: tuple[int, ...]
    tiles: bool

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "alpha": self.alpha,
            "S": list(self.valuations),
            "tiles": self.tiles,
        }


def newman_tiles(a: object) -> NewmanReport:
    """Prime-power valuation test for tiling Z.

    With |A| = p^alpha, A tiles Z iff the set of p-adic valuations of the
    pairwise differences has at most alpha distinct values.
    """
    aset = _as_integer_set(a)
    pp = _prime_power(aset.k)
    if pp is None:
        raise ValueError(f"cardinality {aset.k} is not a prime power")
    p, alpha = pp
    vals = set()
    elems = aset.elements
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            vals.add(_valuation(p, elems[j] - elems[i]))
    valuations = tuple(sorted(vals))
    return NewmanReport(p, alpha, valuations, len(valuations) <= alpha)


@dataclass(frozen=True)
class TileWitness:
    period: int
    translates: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {"period": self.period, "translates": list(self.translates)}


def _exact_cover(residues: tuple[int, ...], m: int) -> Optional[tuple[int, ...]]:
    """First translate set T with residues (+) T = Z_m, branching on the
    smallest uncovered residue and trying translates in increasing order."""
    full = (1 << m) - 1
    chosen: list[int] = []

    def mask_of(t: int) -> int:
        msk = 0
        for a in residues:
            msk |= 1 << ((a + t) % m)
        return msk

    def search(covered: int) -> bool:
        if covered == full:
            return True
        s = (~covered & full)
        s = (s & -s).bit_length() - 1  # smallest uncovered residue
        for a in residues:
            t = (s - a) % m
            msk = mask_of(t)
            if msk & covered:
                continue
            chosen.append(t)
            if search(covered | msk):
                return True
            chosen.pop()
        return False

    if search(0):
        return tuple(sorted(chosen))
    return None


@functools.lru_cache(maxsize=8192)
def _tile_period_cached(
    elements: tuple[int, ...], m_max: int
) -> Optional[TileWitness]:
    k = len(elements)
    for m in range(k, m_max + 1, k):
        residues = tuple(x % m for x in elements)
        if len(set(residues)) != k:
            continue
        t = _exact_cover(tuple(sorted(set(residues))), m)
        if t is not None:
            return TileWitness(m, t)
    return None


def brute_force_tile_period(
    a: object, m_max: Optional[int] = None
) -> Optional[TileWitness]:
    """Search periods m = k, 2k, ... for a translate set with A (+) T = Z_m.

    Default bound min(2^diameter, DEFAULT_PERIOD_CAP); absence up to the
    bound is returned as None, not raised.
    """
    aset = _as_integer_set(a)
    if m_max is None:
        m_max = min(2 ** aset.diameter if aset.diameter > 0 else 1, DEFAULT_PERIOD_CAP)
    if m_max < 1:
        raise ValueError("m_max must be positive")
    base = tuple(x - aset.elements[0] for x in aset.elements)
    return _tile_period_cached(base, m_max)


@dataclass(frozen=True)
class TilePattern:
    """Exact partition of [0, window) by labeled pieces A, B, C.

    Each placement is (left endpoint, label); placements are contiguous and
    fill the window with no gap.  Tile translates are recovered by anchoring
    each tile at its A piece.
    """

    window: Fraction
    lengths: tuple[Fraction, Fraction, Fraction]
    placements: tuple[tuple[Fraction, str], ...]

    def __post_init__(self) -> None:
        lengths = tuple(as_fraction(x) for x in self.lengths)
        object.__setattr__(self, "window", as_fraction(self.window))
        object.__setattr__(self, "lengths", lengths)
        by_label = dict(zip("ABC", lengths))
        cursor = Fraction(0)
        for off, label in self.placements:
            if off != cursor:
                raise ValueError("placements must tile the window contiguously")
            cursor += by_label[label]
        if cursor != self.window:
            raise ValueError("placements do not fill the window")

    @property
    def labels(self) -> str:
        return "".join(label for _, label in self.placements)

    def tile_offsets(self) -> tuple[Fraction, ...]:
        return tuple(off for off, label in self.placements if label == "A")

    def to_json_dict(self) -> dict:
        return {
            "window": fraction_to_pair(self.window),
            "lengths": [fraction_to_pair(x) for x in self.lengths],
            "labels": self.labels,
            "placements": [
                [fraction_to_pair(off), label] for off, label in self.placements
            ],
        }


def _realizable(labels: Sequence[str], lengths: dict[str, Fraction]) -> bool:
    """Can the labeled run be grouped into whole tiles with common offsets?

    Positions of the i-th A, B, C pieces must differ by label-constant
    shifts, and the three shifted pieces must be pairwise disjoint.
    """
    pos: dict[str, list[Fraction]] = {"A": [], "B": [], "C": []}
    cursor = Fraction(0)
    for lab in labels:
        pos[lab].append(cursor)
        cursor += lengths[lab]
    n = len(pos["A"])
    if not (len(pos["B"]) == len(pos["C"]) == n):
        return False
    shift_b = pos["B"][0] - pos["A"][0]
    shift_c = pos["C"][0] - pos["A"][0]
    for i in range(1, n):
        if pos["B"][i] - pos["A"][i] != shift_b:
            return False
        if pos["C"][i] - pos["A"][i] != shift_c:
            return False
    spans = sorted(
        [
            (Fraction(0), lengths["A"]),
            (shift_b, lengths["B"]),
            (shift_c, lengths["C"]),
        ]
    )
    for (s1, l1), (s2, _) in zip(spans, spans[1:]):
        if s1 + l1 > s2:
            return False
    return True


def _min_rotation(s: str) -> str:
    return min(s[i:] + s[:i] for i in range(len(s)))


def pattern_search(
    lengths: Sequence[object], window: object
) -> tuple[TilePattern, ...]:
    """All tilings of [0, window) by whole three-piece tiles, up to translation.

    The window must be a positive integer multiple of the tile measure (1),
    so complete patterns use each label exactly window times.  Sequences are
    enumerated left to right; a branch dies as soon as the constant-shift
    grouping test fails on the pieces placed so far.  Patterns that are
    cyclic rotations of one another are identified.
    """
    la, lb, lc = (as_fraction(x) for x in lengths)
    if la <= 0 or lb <= 0 or lc <= 0:
        raise ValueError("lengths must be positive")
    if la + lb + lc != 1:
        raise ValueError("lengths must sum to 1")
    w = as_fraction(window)
    if w.denominator != 1 or w < 1:
        raise ValueError("window must be a positive integer multiple of 1")
    n = int(w)
    by_label = {"A": la, "B": lb, "C": lc}

    found: set[str] = set()
    counts = {"A": 0, "B": 0, "C": 0}
    pos: dict[str, list[Fraction]] = {"A": [], "B": [], "C": []}
    shifts: dict[str, Optional[Fraction]] = {"B": None, "C": None}
    seq: list[str] = []

    def consistent(lab: str) -> bool:
        i = len(pos[lab]) - 1
        if lab == "A":
            for other in "BC":
                if i < len(pos[other]):
                    d = pos[other][i] - pos["A"][i]
                    if shifts[other] is None:
                        shifts[other] = d
                    elif shifts[other] != d:
                        return False
        else:
            if len(pos["A"]) > i:
                d = pos[lab][i] - pos["A"][i]
                if shifts[lab] is None:
                    shifts[lab] = d
                elif shifts[lab] != d:
                    return False
        return True

    def dfs(cursor: Fraction) -> None:
        if len(seq) == 3 * n:
            if _realizable(seq, by_label):
                found.add(_min_rotation("".join(seq)))
            return
        for lab in "ABC":
            if counts[lab] == n:
                continue
            old_shifts = dict(shifts)
            counts[lab] += 1
            pos[lab].append(cursor)
            seq.append(lab)
            if consistent(lab):
                dfs(cursor + by_label[lab])
            seq.pop()
            pos[lab].pop()
            counts[lab] -= 1
            shifts.update(old_shifts)
        return

    dfs(Fraction(0))

    patterns = []
    for labels in sorted(found):
        placements = []
        cursor = Fraction(0)
        for lab in labels:
            placements.append((cursor, lab))
            cursor += by_label[lab]
        patterns.append(TilePattern(w, (la, lb, lc), tuple(placements)))
    return tuple(patterns)


def motif_scan(pattern: TilePattern, motif: str) -> bool:
    """True iff the motif occurs as consecutive labels, cyclically."""
    labels = pattern.labels
    if not motif or len(motif) > len(labels):
        return False
    doubled = labels + labels[: len(motif) - 1]
    return motif in doubled


def pattern_period(pattern: TilePattern) -> int:
    """Smallest cyclic shift (in pieces of the label word) fixing the pattern."""
    labels = pattern.labels
    n = len(labels)
    for p in range(1, n + 1):
        if n % p == 0 and labels == labels[p:] + labels[:p]:
            return p
    return n
