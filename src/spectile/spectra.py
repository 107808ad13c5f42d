"""Candidate spectra: orthogonality, completeness, constructions, progressions.

A candidate spectrum is held either as a periodic set (cosets + period) or as
a finite window of points.  The window's form is integer: a scale L, the
least common denominator of its points and its bound, and the points times
L, sorted and distinct.  `PeriodicSet.scaled_window` builds that form
straight from the cosets, after counting the points against
MAX_WINDOW_POINTS, and a Fraction is made only for a reported witness.
Orthogonality of the exponential system reduces to membership of pairwise
differences in the Fourier zero set.  That zero set is periodic mod q, the
endpoint denominator of the base set, so the checks ask
`intervals.residue_member` about the scaled points' classes mod q*L: each
distinct class of differences is decided once, by integer reduction, and
the points are scanned in order only to name a witness.
Completeness is decided through the unitary matrix criterion when the base
set is a union of unit cells and the candidate is periodic and rational,
and reported as undecided otherwise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .cyclotomic import CycloSum, RootOfUnity, as_fraction
from .errors import (
    InvariantError,
    NoGoodPairingError,
    PreconditionError,
    WorkLimitError,
)
from .intervals import (
    IntervalUnion,
    boundary_sum,
    in_zero_set,
    residue_member,
    unit_interval_factor,
)
from .jsonio import fraction_to_pair, fraction_to_str, json_field, pair_to_fraction
from .ztiling import IntegerSet

# Windows of more points are refused before any is built, so that a windowed
# check stays within bounded memory and time: a periodic window of 10^5
# points is checked in about 0.2 s and 40 MB (2 vCPU Xeon, Python 3.11).
MAX_WINDOW_POINTS = 100_000
# `ap_extension_check` makes two zero-set queries per k: K = 10^5 takes
# about 1 s on the same host.
MAX_AP_K = 100_000


@dataclass(frozen=True)
class PeriodicSet:
    """Cosets + period*Z, with 0 among the coset representatives."""

    period: Fraction
    cosets: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        period = as_fraction(self.period)
        if period <= 0:
            raise ValueError("period must be positive")
        reps = tuple(sorted({as_fraction(c) % period for c in self.cosets}))
        if Fraction(0) not in reps:
            raise ValueError("0 must be a coset representative")
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "cosets", reps)

    @property
    def density(self) -> Fraction:
        return Fraction(len(self.cosets)) / self.period

    def contains(self, x: object) -> bool:
        return as_fraction(x) % self.period in self.cosets

    def scaled_window(self, window: object) -> tuple[int, list[int]]:
        """(L, the points in [-window, window] times L, sorted).

        L is the lcm of every denominator.  Scaled by L, coset c runs
        through C + kP (C = cL, P = period*L, 0 <= C < P); with W = window*L
        there are floor((W + C)/P) + floor((W - C)/P) + 1 such points in
        [-W, W], the least being C - floor((W + C)/P)*P.  The count is
        taken before any point is built, and above MAX_WINDOW_POINTS
        WorkLimitError is raised.
        """
        w = as_fraction(window)
        scale = math.lcm(self.period.denominator, w.denominator,
                         *(c.denominator for c in self.cosets))
        step = self.period.numerator * (scale // self.period.denominator)
        top = w.numerator * (scale // w.denominator)
        firsts = [c.numerator * (scale // c.denominator) for c in self.cosets]
        count = sum(max(0, (top + c) // step + (top - c) // step + 1) for c in firsts)
        if count > MAX_WINDOW_POINTS:
            raise WorkLimitError(
                f"window {w} holds {count} points, above the limit {MAX_WINDOW_POINTS}"
            )
        points: list[int] = []
        for c in firsts:
            points += range(c - (top + c) // step * step, top + 1, step)
        points.sort()
        return scale, points

    def points_in_window(self, window: object) -> tuple[Fraction, ...]:
        """The points in [-window, window], sorted."""
        scale, points = self.scaled_window(window)
        return tuple(Fraction(x, scale) for x in points)

    def residues_mod_one(self) -> tuple[Fraction, ...]:
        """The finitely many values of the set reduced mod 1."""
        seen: set[Fraction] = set()
        for c in self.cosets:
            x = c % 1
            while x not in seen:
                seen.add(x)
                x = (x + self.period) % 1
        return tuple(sorted(seen))

    def to_json_dict(self) -> dict:
        return {
            "period": fraction_to_pair(self.period),
            "cosets": [fraction_to_pair(c) for c in self.cosets],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "PeriodicSet":
        return PeriodicSet(
            pair_to_fraction(json_field(data, "period")),
            tuple(pair_to_fraction(c) for c in json_field(data, "cosets")),
        )


@dataclass(frozen=True)
class FiniteSpectrumWindow:
    """Finite point set inside [-window, window], containing 0.

    Held as integers: `ints` are the points times `scale`, sorted and
    distinct.  The constructor sorts and deduplicates them and divides out
    any common factor, so `scale` is the least common denominator of the
    points and the window, and equal sets compare equal.
    """

    scale: int
    ints: tuple[int, ...]
    window: Fraction

    def __post_init__(self) -> None:
        w = as_fraction(self.window)
        scale = self.scale
        if scale < 1 or scale % w.denominator:
            raise ValueError("scale must be a positive multiple of den(window)")
        ints = sorted(set(self.ints))
        if 0 not in ints:
            raise ValueError("0 must belong to the point set")
        top = w.numerator * (scale // w.denominator)
        if ints[0] < -top or ints[-1] > top:
            raise ValueError("points must lie in [-window, window]")
        g = math.gcd(scale, top, *ints)
        if g > 1:
            scale //= g
            ints = [x // g for x in ints]
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "ints", tuple(ints))
        object.__setattr__(self, "window", w)

    @property
    def points(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.scale) for x in self.ints)

    @staticmethod
    def from_periodic(pset: PeriodicSet, window: object) -> "FiniteSpectrumWindow":
        w = as_fraction(window)
        return FiniteSpectrumWindow(*pset.scaled_window(w), w)

    @staticmethod
    def from_points(points: Iterable[object], window: object) -> "FiniteSpectrumWindow":
        w = as_fraction(window)
        pts = [as_fraction(p) for p in points]
        scale = math.lcm(w.denominator, *(p.denominator for p in pts))
        ints = [p.numerator * (scale // p.denominator) for p in pts]
        return FiniteSpectrumWindow(scale, ints, w)


@dataclass(frozen=True)
class OrthogonalityReport:
    orthogonal: bool
    window: Fraction
    violation: Optional[tuple[Fraction, Fraction]]

    def to_json_dict(self) -> dict:
        return {
            "orthogonal": self.orthogonal,
            "window": fraction_to_str(self.window),
            "violations": []
            if self.violation is None
            else [[fraction_to_str(self.violation[0]), fraction_to_str(self.violation[1])]],
        }


def check_orthogonality(
    omega: IntervalUnion, spectrum: FiniteSpectrumWindow
) -> OrthogonalityReport:
    """Every difference of distinct points must lie in the Fourier zero set.

    Scaled by L = spectrum.scale, points in one class mod q*L differ by a
    multiple of q, so orthogonality is decided on the pairs of classes;
    only a violation scans the pairs (i, j) in order, to name the first one.
    """
    scale, ints = spectrum.scale, spectrum.ints
    period, member = residue_member(omega, scale)
    classes = sorted({x % period for x in ints})
    violation = None
    if not all(member(b - a) for a, b in itertools.combinations(classes, 2)):
        i, j = next(
            (i, j)
            for i, j in itertools.combinations(range(len(ints)), 2)
            if not member(ints[j] - ints[i])
        )
        violation = (Fraction(ints[i], scale), Fraction(ints[j], scale))
    return OrthogonalityReport(violation is None, spectrum.window, violation)


def completeness_matrix(a: object, mu: Sequence[object]) -> bool:
    """Unitary criterion for unit-cell sets: M M* = k I with M_ij = e(mu_i a_j).

    Row inner products are sums of roots of unity and are tested exactly.
    """
    aset = a if isinstance(a, IntegerSet) else IntegerSet(tuple(a))
    mus = [as_fraction(m) for m in mu]
    if len(mus) != aset.k:
        raise ValueError("need as many frequencies as cells")
    for i in range(len(mus)):
        for j in range(i + 1, len(mus)):
            diff = mus[i] - mus[j]
            s = CycloSum.from_exponents(diff * x for x in aset.elements)
            if not s.is_zero():
                return False
    return True


@dataclass(frozen=True)
class SpectralPairReport:
    orthogonal: bool
    window: Fraction
    completeness: str  # "unitary" | "not-unitary" | "not-decided"
    violation: Optional[tuple[Fraction, Fraction]]
    density_matches: Optional[bool]

    def to_json_dict(self) -> dict:
        return {
            "orthogonal": self.orthogonal,
            "window": fraction_to_str(self.window),
            "completeness": self.completeness,
            "violations": []
            if self.violation is None
            else [[fraction_to_str(self.violation[0]), fraction_to_str(self.violation[1])]],
            "densityMatches": self.density_matches,
        }


def verify_spectral_pair(
    omega: IntervalUnion, pset: PeriodicSet, window: object = 12
) -> SpectralPairReport:
    """Windowed orthogonality plus the matrix completeness criterion.

    Completeness is decided only for unit-cell sets whose candidate spectrum
    reduces mod 1 to exactly one frequency per cell; anything else is
    reported as not decided.
    """
    spec_window = FiniteSpectrumWindow.from_periodic(pset, window)
    ortho = check_orthogonality(omega, spec_window)
    completeness = "not-decided"
    try:
        cells = unit_interval_factor(omega)
    except ValueError:
        cells = None
    if cells is not None:
        mus = pset.residues_mod_one()
        if len(mus) == len(cells):
            completeness = (
                "unitary" if completeness_matrix(cells, mus) else "not-unitary"
            )
    density_matches = pset.density == omega.measure
    return SpectralPairReport(
        ortho.orthogonal, ortho.window, completeness, ortho.violation, density_matches
    )


# ---------------------------------------------------------------------------
# explicit spectrum constructions
# ---------------------------------------------------------------------------


def construct_unit3_pair(j: int, r: int, s: int) -> tuple[IntervalUnion, PeriodicSet]:
    """Three unit cells {0, a, b} with a = 3^j(3r+1), b = 3^j(3s+2).

    The candidate spectrum is Z together with its shifts by 1/3^(j+1) and
    2/3^(j+1); it is orthogonal and complete for every admissible (j, r, s).
    """
    if j < 0:
        raise ValueError("j must be nonnegative")
    a = 3**j * (3 * r + 1)
    b = 3**j * (3 * s + 2)
    omega = IntervalUnion.from_unit_cells((0, a, b))
    step = Fraction(1, 3 ** (j + 1))
    spectrum = PeriodicSet(Fraction(1), (Fraction(0), step, 2 * step))
    return omega, spectrum


def construct_unit4_pair(l: int, r: int, s: int) -> tuple[IntervalUnion, PeriodicSet]:
    """[0,2) plus unit cells at a = 2^l r + 1 and b = 2^l s, r and s odd.

    The candidate spectrum is (1/2)Z together with its shift by 1/2^(l+1);
    its density 4 matches the measure, and mod 1 it provides the four
    frequencies required by the unitary criterion on cells {0, 1, a, b}.
    """
    if l < 1:
        raise ValueError("l must be at least 1")
    if r % 2 == 0 or s % 2 == 0:
        raise ValueError("r and s must be odd")
    a = 2**l * r + 1
    b = 2**l * s
    omega = IntervalUnion.from_pieces(
        ((Fraction(0), Fraction(2)), (Fraction(a), Fraction(1)), (Fraction(b), Fraction(1)))
    )
    spectrum = PeriodicSet(
        Fraction(1, 2), (Fraction(0), Fraction(1, 2 ** (l + 1)))
    )
    return omega, spectrum


def construct_half_pair(
    n: int, k: int, k0: int, r: object
) -> tuple[IntervalUnion, PeriodicSet]:
    """[0,1/2) + [b,b+r) + [c,c+1/2-r) with b = n/2, c = k/2 + r.

    Requires l = (k-n)/2 to be an integer divisible by k0 and n/k0 odd; the
    candidate spectrum is 2Z union (2Z + 1/k0).
    """
    r = as_fraction(r)
    if not (0 < r < Fraction(1, 2)):
        raise ValueError("r must lie strictly between 0 and 1/2")
    if n < 1:
        raise ValueError("n must be positive")
    if k < n:
        raise ValueError("k must be at least n")
    if (k - n) % 2 != 0:
        raise PreconditionError("(k - n)/2 must be an integer")
    l = (k - n) // 2
    if k0 < 1 or n % k0 != 0:
        raise PreconditionError("k0 must divide n")
    if (n // k0) % 2 != 1:
        raise PreconditionError("n/k0 must be odd")
    if l % k0 != 0:
        raise PreconditionError("k0 must divide (k - n)/2")
    b = Fraction(n, 2)
    c = Fraction(k, 2) + r
    omega = IntervalUnion.from_pieces(
        ((Fraction(0), Fraction(1, 2)), (b, r), (c, Fraction(1, 2) - r))
    )
    spectrum = PeriodicSet(Fraction(2), (Fraction(0), Fraction(1, k0)))
    return omega, spectrum


def half_pair_reduction_identity(n: int, k: int, k0: int, r: object, lam: object) -> bool:
    """Exact identity moving the third piece next to the second.

    For frequencies lam with lam*l integral (l = (k-n)/2), the boundary sum
    of the three-piece set equals that of the two-piece set
    [0,1/2) + [b,b+1/2), so orthogonality transfers from the latter.
    """
    lam = as_fraction(lam)
    omega, _ = construct_half_pair(n, k, k0, r)
    l = (k - n) // 2
    if (lam * l) % 1 != 0:
        return False
    b = Fraction(n, 2)
    omega1 = IntervalUnion.from_pieces(
        ((Fraction(0), Fraction(1, 2)), (b, Fraction(1, 2)))
    )
    diff = boundary_sum(omega, lam) - boundary_sum(omega1, lam)
    return diff.is_zero()


# ---------------------------------------------------------------------------
# good pairings and arithmetic progressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GoodPairing:
    """Pairs (i, j) of 0-based indices, i + j odd, with equal roots."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        for i, j in self.pairs:
            if (i + j) % 2 != 1:
                raise ValueError("pair indices must have odd sum")
        object.__setattr__(self, "pairs", tuple(sorted(self.pairs)))


def good_pairing(zetas: Sequence[RootOfUnity]) -> GoodPairing:
    """Perfect matching of even-position to odd-position equal roots.

    Exhaustive backtracking over opposite-parity partners, smallest partner
    first, so the reported pairing is canonical.  Raises NoGoodPairingError
    when no matching exists.
    """
    m = len(zetas)
    if m % 2 != 0 or m == 0:
        raise ValueError("need an even, positive number of roots")
    if m > 16:
        raise ValueError("pairing search is limited to 16 roots")
    evens = [i for i in range(m) if i % 2 == 0]
    odds = [i for i in range(m) if i % 2 == 1]
    used: set[int] = set()
    pairs: list[tuple[int, int]] = []

    def match(idx: int) -> bool:
        if idx == len(evens):
            return True
        i = evens[idx]
        for j in odds:
            if j in used or zetas[i] != zetas[j]:
                continue
            used.add(j)
            pairs.append((min(i, j), max(i, j)))
            if match(idx + 1):
                return True
            pairs.pop()
            used.remove(j)
        return False

    if not match(0):
        raise NoGoodPairingError("no pairing with equal roots and odd index sum")
    return GoodPairing(tuple(pairs))


def separation(points: Sequence[object]) -> Fraction:
    """Smallest distance between two distinct points."""
    pts = sorted({as_fraction(p) for p in points})
    if len(pts) < 2:
        raise ValueError("need at least two distinct points")
    return min(b - a for a, b in zip(pts, pts[1:]))


def find_aps(
    points: object, min_len: int
) -> tuple[tuple[Fraction, Fraction, int], ...]:
    """Maximal arithmetic progressions of length >= min_len in the points."""
    if isinstance(points, FiniteSpectrumWindow):
        pts = list(points.points)
    else:
        pts = sorted({as_fraction(p) for p in points})
    if min_len < 2:
        raise ValueError("min_len must be at least 2")
    if len(pts) < min_len:
        return ()
    members = set(pts)
    out: set[tuple[Fraction, Fraction, int]] = set()
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = pts[j] - pts[i]
            if pts[i] - d in members:
                continue  # not the start of the run
            length = 2
            x = pts[j] + d
            while x in members:
                length += 1
                x += d
            if length >= min_len:
                out.add((pts[i], d, length))
    return tuple(sorted(out))


def ap_extension_check(omega: IntervalUnion, d: object, window_k: int) -> bool:
    """Once 0, d, ..., (2n-1)d lie in the zero set, so must every kd.

    Precondition failures raise; a False return is a counterexample flag for
    the completion property itself.  Each kd is one `in_zero_set` query,
    one integer kernel call, or none when kd is a multiple of q.  A window
    K above MAX_AP_K raises WorkLimitError before any query.
    """
    d = as_fraction(d)
    if d <= 0:
        raise PreconditionError("d must be positive")
    if window_k < 1:
        raise PreconditionError("the window K must be positive")
    if window_k > MAX_AP_K:
        raise WorkLimitError(f"the window K = {window_k} exceeds the limit {MAX_AP_K}")
    n = len(omega.pieces)
    for k in range(2 * n):
        if not in_zero_set(omega, k * d):
            raise PreconditionError(
                f"progression point {k}*d is not in the zero set"
            )
    for k in range(1, window_k + 1):
        lam = k * d
        if not in_zero_set(omega, lam) or not in_zero_set(omega, -lam):
            return False
    return True


@dataclass(frozen=True)
class SpectrumApReport:
    holds: bool
    witness: Optional[tuple[Fraction, Optional[Fraction]]]

    def to_json_dict(self) -> dict:
        if self.witness is None:
            wit = []
        else:
            p, q = self.witness
            wit = [fraction_to_str(p)] + ([] if q is None else [fraction_to_str(q)])
        return {"holds": self.holds, "witness": wit}


def spectrum_ap_extension(
    omega: IntervalUnion,
    spectrum: FiniteSpectrumWindow,
    a: object,
    d: object,
) -> SpectrumApReport:
    """Window check that a + dZ stays inside the candidate spectrum.

    Requires the first 2n progression points to be present; then every
    a + kd inside the window must be a point of the spectrum and have all
    its differences with the spectrum in the zero set.  Differences are
    decided per pair of classes mod q*L (scaled by L), and the witness is
    the first point, in order, of the first failing class.
    """
    a = as_fraction(a)
    d = as_fraction(d)
    if d <= 0:
        raise PreconditionError("d must be positive")
    n = len(omega.pieces)
    scale = math.lcm(spectrum.scale, a.denominator, d.denominator)
    lift = scale // spectrum.scale
    ints = [x * lift for x in spectrum.ints]
    a_int = a.numerator * (scale // a.denominator)
    d_int = d.numerator * (scale // d.denominator)
    w = spectrum.window.numerator * (scale // spectrum.window.denominator)
    present = set(ints)
    for k in range(2 * n):
        if a_int + k * d_int not in present:
            raise PreconditionError(
                f"progression point a + {k}d is missing from the spectrum"
            )
    period, member = residue_member(omega, scale)
    first: dict[int, int] = {}  # class mod period -> index of its first point
    for i, p in enumerate(ints):
        first.setdefault(p % period, i)
    x = a_int - d_int * ((a_int + w) // d_int)  # the first a + kd >= -w
    while x <= w:
        if x not in present:
            return SpectrumApReport(False, (Fraction(x, scale), None))
        rx = x % period
        bad = [i for c, i in first.items() if c != rx and not member(c - rx)]
        if bad:
            return SpectrumApReport(
                False, (Fraction(x, scale), Fraction(ints[min(bad)], scale))
            )
        x += d_int
    return SpectrumApReport(True, None)


# ---------------------------------------------------------------------------
# the three-interval node-system rank classifier
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RankReport:
    """Rank of the 3x3 node system plus the case witness.

    rank 3: the paired end/start roots at the second frequency must agree
            (witness: the three equal pairs of roots);
    rank 2: the four roots from the two pairs sharing a node satisfy a
            two-term cancellation (witness: which of the three cancellation
            shapes hold);
    rank 1: all six node roots agree and the set decomposes into d equal
            cells (witness: the cell counts and offsets).
    """

    rank: int
    kind: str
    pairing: GoodPairing
    witness: object

    def to_json_dict(self) -> dict:
        if self.rank == 1:
            l2, l3, k1, k2, k3, d_int = self.witness
            wit: object = {
                "l2": l2,
                "l3": l3,
                "cellCounts": [k1, k2, k3],
                "d": d_int,
            }
        elif self.rank == 2:
            wit = {"cancellations": list(self.witness)}
        else:
            wit = {
                "equalPairs": [
                    [i, j, fraction_to_str(e)] for i, j, e in self.witness
                ]
            }
        return {
            "rank": self.rank,
            "kind": self.kind,
            "pairing": [list(p) for p in self.pairing.pairs],
            "witness": wit,
        }


def rank_case(omega: IntervalUnion, d: object, lam: object) -> RankReport:
    """Classify the node system of a three-piece set at frequencies d and lam.

    Preconditions: measure 1, three pieces, 0..5d in the zero set, lam in
    the zero set but not in dZ, and every kd - lam (k = 0..5) in the zero
    set so the six-equation system actually holds.  A case the analysis
    proves impossible raises InvariantError.
    """
    d = as_fraction(d)
    lam = as_fraction(lam)
    if len(omega.pieces) != 3:
        raise PreconditionError("need exactly three pieces")
    if omega.measure != 1:
        raise PreconditionError("need total measure 1")
    for k in range(6):
        if not in_zero_set(omega, k * d):
            raise PreconditionError(f"{k}*d is not in the zero set")
    if not in_zero_set(omega, lam):
        raise PreconditionError("lam is not in the zero set")
    if (lam / d) % 1 == 0:
        raise PreconditionError("lam must avoid the progression dZ")
    for k in range(6):
        if not in_zero_set(omega, k * d - lam):
            raise PreconditionError(
                f"{k}*d - lam is not in the zero set; the node system fails"
            )

    coords: list[Fraction] = []
    for a, r in omega.pieces:
        coords.append(a + r)  # odd 1-based position (sign +)
        coords.append(a)  # even 1-based position (sign -)
    zetas = [RootOfUnity(d * c) for c in coords]
    xis = [RootOfUnity(lam * c) for c in coords]
    pairing = good_pairing(zetas)

    nodes = [(zetas[i], (i, j)) for i, j in pairing.pairs]
    distinct = {z.exponent for z, _ in nodes}
    rank = len(distinct)

    def plus_minus(i: int, j: int) -> tuple[int, int]:
        # return (index with +, index with -); 0-based even position = sign +
        return (i, j) if i % 2 == 0 else (j, i)

    if rank == 3:
        witness = []
        for i, j in pairing.pairs:
            if xis[i] != xis[j]:
                raise InvariantError(
                    "invertible node system left a nonzero coefficient"
                )
            witness.append((i, j, xis[i].exponent))
        return RankReport(3, "forced-equalities", pairing, tuple(witness))

    if rank == 2:
        shared = [
            (z, pr) for z, pr in nodes if sum(1 for z2, _ in nodes if z2 == z) == 2
        ]
        single = [(z, pr) for z, pr in nodes if (z, pr) not in shared]
        (zp, (pi, pj)), (zq, (qi, qj)) = sorted(
            shared, key=lambda t: min(t[1])
        )
        (_, (ri, rj)) = single[0]
        if xis[ri] != xis[rj]:
            raise InvariantError("isolated node kept a nonzero coefficient")
        p_plus, p_minus = plus_minus(pi, pj)
        q_plus, q_minus = plus_minus(qi, qj)
        quad = CycloSum.from_pairs(
            (
                (1, xis[p_plus]),
                (-1, xis[p_minus]),
                (1, xis[q_plus]),
                (-1, xis[q_minus]),
            )
        )
        if not quad.is_zero():
            raise InvariantError("shared-node cancellation failed")
        shapes = []
        if xis[p_plus] == xis[p_minus] and xis[q_plus] == xis[q_minus]:
            shapes.append("within-pairs")
        if xis[p_plus] == xis[q_minus] and xis[p_minus] == xis[q_plus]:
            shapes.append("across-pairs")
        if (
            xis[p_plus] == xis[q_plus].negated()
            and xis[p_minus] == xis[q_minus].negated()
        ):
            shapes.append("antipodal")
        if not shapes:
            raise InvariantError("four-term cancellation without a known shape")
        return RankReport(2, "paired-cancellation", pairing, tuple(shapes))

    # rank 1: equal cells
    a1 = omega.pieces[0][0]
    ls = []
    ks = []
    for a, r in omega.pieces:
        l = d * (a - a1)
        kk = d * r
        if l % 1 != 0 or kk % 1 != 0:
            raise InvariantError("equal-node case produced non-integer cells")
        ls.append(int(l))
        ks.append(int(kk))
    d_int = sum(ks)
    witness = (ls[1], ls[2], ks[0], ks[1], ks[2], d_int)
    return RankReport(1, "equal-cell-decomposition", pairing, witness)
