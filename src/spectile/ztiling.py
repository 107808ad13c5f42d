"""Tiling of the integers by finite sets, and tiling-pattern search.

Two independent routes decide whether a finite integer set A tiles Z: the
prime-power valuation criterion (Newman), and a search of the window-state
graph from Newman's periodicity proof, which uses no valuations.

The graph is built for A' = (A - min A) / g, g the gcd of the differences,
of diameter D.  A state is the D-bit mask of the points x, ..., x + D - 1
that translates left of x already cover; an uncovered x can only be covered
by the translate at x, so every state has at most one successor and the
tilings of Z by A' are the cycles of the graph.  The minimal period of A'
is its shortest cycle, and that of A follows from the cycle lengths by the
gcd rule in `brute_force_tile_period`.  One pass over the 2^D states finds
every cycle, so D is capped at MAX_REDUCED_DIAMETER and larger sets raise
WorkLimitError.  The witness translates come from one exact cover of Z_m at
the minimal period m.

The pattern search tiles a window by one tile X, Y, Z.  Only X pieces fill
its X-Y gap, only X and Y pieces its Y-Z gap, and the tiling is then forced.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .cyclotomic import as_fraction, smallest_prime_factor
from .errors import WorkLimitError
from .jsonio import fraction_to_pair, json_field

DEFAULT_PERIOD_CAP = 4096
# The window-state graph has 2^D states for a reduced diameter D; at D = 22
# one pass takes about a second (one x86 core) and 4 MB.
MAX_REDUCED_DIAMETER = 22
# At window 28 the slowest length triples measured take 0.9 s (one x86 core).
MAX_PATTERN_WINDOW = 28


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
    p = smallest_prime_factor(k)
    alpha = _valuation(p, k)
    return (p, alpha) if p**alpha == k else None


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
    smallest uncovered residue and trying translates in increasing order.

    The search keeps an explicit stack, since its depth is up to m / |A|.
    One bytearray marks the covered residues, and a choice is undone from
    its trail entry (translate, next residue index, scan pointer), so the
    memory is linear in m.  Covering only moves the smallest uncovered
    residue up, so the scan pointer never moves back between undos.
    """
    covered = bytearray(m)
    trail: list[tuple[int, int, int]] = []
    s, i = 0, 0
    while True:
        while s < m and covered[s]:
            s += 1
        if s == m:
            return tuple(sorted(t for t, _, _ in trail))
        while i < len(residues):
            t = (s - residues[i]) % m
            cells = [(a + t) % m for a in residues]
            if not any(covered[c] for c in cells):
                break
            i += 1
        else:
            if not trail:
                return None
            t, i, s = trail.pop()
            for a in residues:
                covered[(a + t) % m] = 0
            continue
        for c in cells:
            covered[c] = 1
        trail.append((t, i + 1, s))
        i = 0


def _cycle_lengths(elements: tuple[int, ...]) -> set[int]:
    """Lengths of the cycles of the window-state graph of A, in translates.

    A has min A = 0 and diameter D.  A state is the D-bit mask of which of
    x, ..., x + D - 1 translates left of x already cover, taken where x
    itself is uncovered (bit 0 clear): the translate at x must cover it.
    The move places it, dies if it overlaps, and then slides the window to
    the next uncovered point, so each state has at most one successor.  A
    cycle through c states places c translates, so its period is c * |A|.
    """
    d = elements[-1]
    shape = 0
    for a in elements:
        shape |= 1 << a
    seen = bytearray(1 << d)  # 0 unseen, 1 on the current walk, 2 done
    lengths: set[int] = set()
    path: list[int] = []
    for start in range(0, 1 << d, 2):
        s = start
        while not seen[s]:
            seen[s] = 1
            path.append(s)
            if s & shape:
                break
            s = (s | shape) >> 1
            s >>= (s ^ (s + 1)).bit_length() - 1  # skip covered points
        else:
            if seen[s] == 1:
                lengths.add(len(path) - path.index(s))
        for t in path:
            seen[t] = 2
        path.clear()
    return lengths


def _least_period(c: int, g: int) -> int:
    """Least m with c | m / gcd(m, g): c times the part of g on c's primes."""
    coprime = g
    while (h := math.gcd(coprime, c)) > 1:
        coprime //= h
    return c * (g // coprime)


# Translates of one set share an entry: callers pass it shifted to start at 0.
@functools.lru_cache(maxsize=8192)
def _tile_period_cached(
    elements: tuple[int, ...], m_max: int
) -> Optional[TileWitness]:
    g = math.gcd(*elements) or 1
    reduced = tuple(x // g for x in elements)
    if reduced[-1] > MAX_REDUCED_DIAMETER:
        raise WorkLimitError(
            f"reduced diameter {reduced[-1]} exceeds the tiling search limit "
            f"{MAX_REDUCED_DIAMETER} (2^{MAX_REDUCED_DIAMETER} window states)"
        )
    k = len(elements)
    lengths = _cycle_lengths(reduced)
    m = min((_least_period(k * c, g) for c in lengths), default=m_max + 1)
    if m > m_max:
        return None
    translates = _exact_cover(tuple(sorted(x % m for x in elements)), m)
    assert translates is not None, "a cycle of the state graph is a tiling"
    return TileWitness(m, translates)


def brute_force_tile_period(
    a: object, m_max: Optional[int] = None
) -> Optional[TileWitness]:
    """Minimal period m of a tiling A (+) T = Z, with the first translate set
    T in [0, m) that an exact cover of Z_m finds.

    Tilings are read off the window-state graph of A' = (A - min A) / g, g
    the gcd of the differences (see `_cycle_lengths`).  A tiling of Z by A'
    is a bi-infinite walk, which in a finite graph where each state has at
    most one successor runs round a cycle; a cycle of c positions is a
    tiling of period c and every period of a tiling is a multiple of some c.
    So A' tiles with period m iff some cycle length divides m.

    gcd rule: A tiles with period m iff A' tiles with period m / gcd(m, g).
    Z splits into the g classes r + gZ, and A (+) T = Z iff for every r the
    part T_r = (T cap (r + gZ) - r) / g satisfies A' (+) T_r = Z.  Adding m
    moves the classes round orbits of length g / gcd(m, g), and following
    one orbit shifts T_r by lcm(m, g) / g = m / gcd(m, g); conversely one
    tiling T' of that period, copied to each class of an orbit shifted by
    multiples of m, builds a T with T + m = T.  The least m with c | m /
    gcd(m, g) is c times the part of g whose primes divide c: m = c * u
    qualifies iff gcd(c * u, g) | u, that is iff p^v_p(g) | u for every
    prime p dividing both c and g.  The minimal period is the least of
    these over the cycle lengths c.

    No valuations are used, so this stays independent of `newman_tiles`.
    Default bound min(2^diameter, DEFAULT_PERIOD_CAP); a minimal period
    above the bound is returned as None, not raised.  A reduced diameter
    above MAX_REDUCED_DIAMETER raises WorkLimitError, since the graph has
    2^diameter states.
    """
    aset = _as_integer_set(a)
    if m_max is None:
        diameter = min(aset.diameter, DEFAULT_PERIOD_CAP.bit_length())
        m_max = min(1 << diameter, DEFAULT_PERIOD_CAP)
    if m_max < 1:
        raise ValueError("m_max must be positive")
    base = tuple(x - aset.elements[0] for x in aset.elements)
    return _tile_period_cached(base, m_max)


@dataclass(frozen=True)
class TilePattern:
    """Exact partition of [0, window) by labeled pieces A, B, C.

    Each placement is (left endpoint, label); placements are contiguous and
    fill the window with no gap.
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

    def to_json_dict(self) -> dict:
        return {
            "window": fraction_to_pair(self.window),
            "lengths": [fraction_to_pair(x) for x in self.lengths],
            "labels": self.labels,
            "placements": [
                [fraction_to_pair(off), label] for off, label in self.placements
            ],
        }


def _min_rotation(s: str) -> str:
    return min(s[i:] + s[:i] for i in range(len(s)))


def _forced_word(labels: str, tile: tuple[int, ...], width: int) -> Optional[str]:
    """Label word of the tiling of [0, width) by the tile with pieces labeled
    `labels` of sizes tile[:3] at 0, tile[3], tile[4]; None if there is none.
    Translates go left to right, so one index each tracks pending Y, Z pieces.
    """
    oy, oz = tile[3:]
    translates: list[int] = []
    word: list[str] = []
    iy = iz = cursor = 0
    while cursor < width:  # cursor: the leftmost uncovered point
        sy = translates[iy] + oy if iy < len(translates) else width
        sz = translates[iz] + oz if iz < len(translates) else width
        if sy == cursor < sz:
            k, iy = 1, iy + 1
        elif sz == cursor < sy:
            k, iz = 2, iz + 1
        elif cursor < sy and cursor < sz and cursor + oz + tile[2] <= width:
            k = 0
            translates.append(cursor)
        else:
            return None  # an overlap, or a translate past the window
        cursor += tile[k]
        word.append(labels[k])
    return "".join(word) if iy == iz == len(translates) else None


def pattern_search(
    lengths: Sequence[object], window: object
) -> tuple[TilePattern, ...]:
    """All tilings of [0, window) by whole three-piece tiles, up to translation.

    The window is N tile measures, N a positive integer, so each label is
    used N times.  At scale q, the lcm of the length denominators, pieces
    are integer intervals.  Gap shapes: the first translate's gaps are
    filled by later ones, whose Y and Z lie right of its own, so with the
    pieces X, Y, Z in order of position the X-Y gap is j|X| and the Y-Z gap
    a|X| + b|Y|, j, a, b < N.  Forced move: the leftmost uncovered point can
    only be covered by a translate starting there, so each of the 6 N^3
    candidate tiles is one walk.  Rotations of a pattern are identified.  A
    window above MAX_PATTERN_WINDOW raises WorkLimitError.
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
    if n > MAX_PATTERN_WINDOW:
        raise WorkLimitError(f"window {n} exceeds the limit {MAX_PATTERN_WINDOW}")
    by_label = {"A": la, "B": lb, "C": lc}
    q = math.lcm(la.denominator, lb.denominator, lc.denominator)
    found: set[str] = set()
    for labels in map("".join, itertools.permutations("ABC")):
        x, y, z = (int(by_label[lab] * q) for lab in labels)
        gaps = {a * x + b * y for a in range(n) for b in range(n)}
        for oy, g2 in itertools.product({x + j * x for j in range(n)}, gaps):
            word = _forced_word(labels, (x, y, z, oy, oy + y + g2), n * q)
            if word is not None:
                found.add(_min_rotation(word))

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
