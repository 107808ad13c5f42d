"""The benchmark's workloads: seeded lists of operations on the program.

An operation names the program function it calls by a dotted path below the
package (looked up at call time, so the traced run sees its wrappers), the
arguments, and the function of `checks` that judges its result.  `info`
keeps the raw generated data, so that checks recompute the expected answer
from the inputs and not from the program's own objects.

Every builder makes the same number of operations of each stratum for any
seed; the seed picks members inside each stratum, whose costs are alike, so
that figures stay comparable between seeds.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction as F
from typing import Callable

CLI = "cli.main"


@dataclass
class Op:
    kind: str
    target: str
    args: tuple
    check: str
    info: dict = field(default_factory=dict)


# --- JSON encodings for command-line arguments -------------------------------


def _pair(x: F) -> list[str]:
    return [str(x.numerator), str(x.denominator)]


def omega_json(pieces) -> str:
    return json.dumps({"pieces": [[_pair(a), _pair(r)] for a, r in pieces]})


def spectrum_json(period: F, cosets) -> str:
    return json.dumps({"period": _pair(period), "cosets": [_pair(c) for c in cosets]})


# --- spectral pairs ----------------------------------------------------------


def unit3_data(j: int, r: int, s: int):
    a, b = 3**j * (3 * r + 1), 3**j * (3 * s + 2)
    pieces = sorted((F(x), F(1)) for x in (0, a, b))
    step = F(1, 3 ** (j + 1))
    return pieces, F(1), (F(0), step, 2 * step)


def unit4_data(l: int, r: int, s: int):
    a, b = 2**l * r + 1, 2**l * s
    pieces = sorted([(F(0), F(2)), (F(a), F(1)), (F(b), F(1))])
    return pieces, F(1, 2), (F(0), F(1, 2 ** (l + 1)))


def half_data(n: int, k: int, k0: int, r: F):
    pieces = [(F(0), F(1, 2)), (F(n, 2), r), (F(k, 2) + r, F(1, 2) - r)]
    return pieces, F(2), (F(0), F(1, k0))


UNIT3 = [(j, r, s) for j in range(3) for r in range(-2, 3) for s in range(-2, 3)]
UNIT4 = [(l, r, s) for l in (1, 2, 3) for r in (-3, -1, 1, 3) for s in (-3, -1, 1, 3)]
HALF_R = [F(p, q) for q in range(3, 13) for p in range(1, q) if 2 * p < q]
HALF = [
    (n, n + 2 * l, k0)
    for n in range(1, 10)
    for k0 in range(1, n + 1)
    if n % k0 == 0 and (n // k0) % 2 == 1
    for l in range(0, 3 * k0 + 1, k0)
]


def _family_pools(rng) -> dict:
    """Shuffled construction parameters, drawn without replacement.

    unit3 and unit4 are kept per scale parameter (j or l), which sets the
    orders of the roots and so the cost; draws cycle through the scales.
    No set is drawn twice, so no operation reuses another's cached queries.
    """
    pools = {
        "unit3": [[a for a in UNIT3 if a[0] == j] for j in range(3)],
        "unit4": [[a for a in UNIT4 if a[0] == l] for l in (1, 2, 3)],
        "half": [[h + (r,) for h in HALF for r in HALF_R]],
    }
    for groups in pools.values():
        for group in groups:
            rng.shuffle(group)
    return pools


def _family_pair(mods, pools: dict, family: str, i: int):
    """(omega, pset, raw data) for the next member of a family."""
    groups = pools[family]
    args = groups[i % len(groups)].pop()
    sp = mods["spectra"]
    if family == "unit3":
        return (*sp.construct_unit3_pair(*args), unit3_data(*args))
    if family == "unit4":
        return (*sp.construct_unit4_pair(*args), unit4_data(*args))
    return (*sp.construct_half_pair(*args), half_data(*args))


def _cover_pieces(rng, d: int):
    """Up to three runs of unit cells, one cell per residue mod d, scaled by 1/d.

    The union has measure 1 and its (1/d)Z translates cover the line d times.
    """
    cuts = sorted(rng.sample(range(1, d), min(2, d - 1)))
    bounds = [0] + cuts + [d]
    runs = [(lo, hi - lo) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
    cursor, pieces = 0, []
    for lo, length in runs:
        start = lo + d * math.ceil((cursor - lo) / d) + d * rng.randint(1, 3)
        pieces.append((F(start, d), F(length, d)))
        cursor = start + length + 1
    return pieces


def _random_measure_one(rng, q: int):
    """Three pieces of total length 1 whose endpoints have denominator q."""
    cuts = sorted(rng.sample(range(1, q), 2))
    lengths = [F(cuts[0], q), F(cuts[1] - cuts[0], q), F(q - cuts[1], q)]
    cursor, pieces = _coprime_shift(rng, q), []
    for length in lengths:
        pieces.append((cursor, length))
        cursor += length + F(rng.randint(1, 3 * q), q)
    return pieces


def _shifted(pieces, shift: F):
    return [(a + shift, r) for a, r in pieces]


def _coprime_shift(rng, q: int) -> F:
    while True:
        t = rng.randrange(1, 3 * q)
        if math.gcd(t, q) == 1:
            return F(t, q)


def spectral_pairs(mods, rng: random.Random) -> list[Op]:
    iv, sp = mods["intervals"], mods["spectra"]
    pools = _family_pools(rng)
    ops: list[Op] = []

    def pair_op(kind, omega, pset, data, window, extra=None):
        pieces, period, cosets = data
        if extra is not None:
            cosets = cosets + (extra,)
            pset = sp.PeriodicSet(period, cosets)
        ops.append(Op(kind, "spectra.verify_spectral_pair", (omega, pset, window),
                      "spectral_pair",
                      {"pieces": pieces, "period": period, "cosets": cosets,
                       "window": F(window)}))

    # The paper's constructions, checked at windows 12 and 24.
    for family, window, count in (
        ("unit3", 12, 9), ("unit4", 12, 6), ("half", 12, 20),
        ("unit3", 24, 9), ("unit4", 24, 3), ("half", 24, 6),
    ):
        for i in range(count):
            omega, pset, data = _family_pair(mods, pools, family, i)
            pair_op(f"ortho.{family}.w{window}", omega, pset, data, window)
    # Negative controls: one extra coset off the construction's lattice.
    for family, window, count in (("unit3", 12, 6), ("unit4", 12, 6), ("half", 12, 6),
                                  ("unit3", 24, 3), ("unit4", 24, 3)):
        for i in range(count):
            omega, pset, data = _family_pair(mods, pools, family, i)
            v = rng.choice((5, 7, 11))
            extra = data[1] * F(rng.randrange(1, v), v)
            pair_op(f"ortho.perturbed.w{window}", omega, pset, data, window, extra)

    # Covering profiles and d-tiling at endpoint denominators 10^2 .. 10^5.
    for q, count, fn in ((100, 150, "d_tiles"), (1000, 10, "level_function"),
                         (10_000, 2, "level_function"), (100_000, 1, "level_function")):
        for i in range(count):
            d = 1 if q >= 10_000 else (1, 2, 4, 5)[(i // 2) % 4]
            if i % 2 == 0:
                pieces = _shifted(_cover_pieces(rng, d), _coprime_shift(rng, q))
            else:
                pieces = _random_measure_one(rng, q)
            omega = iv.IntervalUnion.from_pieces(pieces)
            ops.append(Op(f"{fn}.q{q}", f"intervals.{fn}", (omega, d), fn,
                          {"pieces": pieces, "d": d}))

    # Progression completion: tiling-derived sets satisfy the precondition,
    # random sets mostly do not and must raise.
    for i in range(216):
        d = 1 + i % 4
        window_k = (12, 24, 50)[(i // 4) % 3]
        if i % 6 == 5:
            pieces = _random_measure_one(rng, (3, 4, 6)[(i // 6) % 3])
        else:
            shift = F(rng.randint(-6, 6), (1, 2, 3)[(i // 12) % 3])
            pieces = _shifted(_cover_pieces(rng, d), shift)
        omega = iv.IntervalUnion.from_pieces(pieces)
        ops.append(Op("ap_extension_check", "spectra.ap_extension_check",
                      (omega, d, window_k), "ap_extension",
                      {"pieces": pieces, "d": F(d), "K": window_k}))

    # Progressions inside constructed spectra; a point removed beyond the
    # first 2n progression points must be reported as the witness.
    for i in range(18):
        family = "unit3" if i % 2 == 0 else "unit4"
        omega, _, (pieces, period, cosets) = _family_pair(mods, pools, family, i // 2)
        window = F(12)
        points = window_points(period, cosets, window)
        start = rng.choice(cosets)
        diff = period
        if i % 3 == 2:
            removed = start + diff * rng.randint(6, 10)
            points = tuple(p for p in points if p != removed)
        spec = sp.FiniteSpectrumWindow.from_points(points, window)
        ops.append(Op("spectrum_ap_extension", "spectra.spectrum_ap_extension",
                      (omega, spec, start, diff), "spectrum_ap",
                      {"pieces": pieces, "points": points, "window": window,
                       "a": start, "d": diff}))

    # The node-system rank classifier on rescaled constructions.
    for i in range(30):
        pieces, d, lam = _rank_input(rng, ("unit3", "unit4", "half")[i % 3])
        omega = iv.IntervalUnion.from_pieces(pieces)
        ops.append(Op("rank_case", "spectra.rank_case", (omega, d, lam), "rank",
                      {"pieces": pieces, "d": d, "lam": lam}))

    # The command line, for every spectral subcommand.
    for i in range(30):
        which = ("construct", "ortho", "ap", "ap-spectrum", "rank")[i % 5]
        ops.append(_spectral_cli_op(rng, which))
    return ops


def window_points(period: F, cosets, window: F) -> tuple[F, ...]:
    lo = math.floor(-window / period) - 1
    hi = math.ceil(window / period) + 1
    return tuple(sorted(
        c + k * period for k in range(lo, hi + 1) for c in cosets
        if -window <= c + k * period <= window
    ))


def _rank_input(rng, family: str):
    """A measure-1 three-piece set with a valid (d, lam) node system."""
    if family == "unit3":
        j, r, s = rng.choice(UNIT3)
        pieces, _, _ = unit3_data(j, r, s)
        return [(a / 3, x / 3) for a, x in pieces], F(3), F(1, 3**j)
    if family == "unit4":
        l, r, s = rng.choice(UNIT4)
        pieces, _, _ = unit4_data(l, r, s)
        return [(a / 4, x / 4) for a, x in pieces], F(2), F(4, 2 ** (l + 1))
    n, k, k0 = rng.choice(HALF)
    pieces, _, _ = half_data(n, k, k0, rng.choice(HALF_R))
    return pieces, F(2), F(1, k0)


def _random_member(rng, families):
    """Raw data of one construction, drawn with replacement."""
    family = rng.choice(families)
    if family == "unit3":
        return unit3_data(*rng.choice(UNIT3))
    if family == "unit4":
        return unit4_data(*rng.choice(UNIT4))
    return half_data(*rng.choice(HALF), rng.choice(HALF_R))


def _spectral_cli_op(rng, which: str) -> Op:
    if which == "construct":
        family = rng.choice(("unit3", "unit4", "half"))
        if family == "unit3":
            j, r, s = rng.choice(UNIT3)
            argv = ["construct", "--family", "unit3", "--j", str(j), "--r", str(r), "--s", str(s)]
            data = unit3_data(j, r, s)
        elif family == "unit4":
            l, r, s = rng.choice(UNIT4)
            argv = ["construct", "--family", "unit4", "--l", str(l), "--r", str(r), "--s", str(s)]
            data = unit4_data(l, r, s)
        else:
            n, k, k0 = rng.choice(HALF)
            r = rng.choice(HALF_R)
            argv = ["construct", "--family", "half", "--n", str(n), "--k", str(k),
                    "--k0", str(k0), "--piece-length", f"{r.numerator}/{r.denominator}"]
            data = half_data(n, k, k0, r)
        pieces, period, cosets = data
        return Op("cli.construct", CLI, (argv,), "cli_construct",
                  {"pieces": pieces, "period": period, "cosets": cosets})
    if which == "ortho":
        pieces, period, cosets = _random_member(rng, ("unit3", "unit4", "half"))
        if rng.random() < 0.3:
            cosets = cosets + (period * F(rng.randrange(1, 7), 7),)
        argv = ["ortho", "--omega", omega_json(pieces),
                "--spectrum", spectrum_json(period, cosets), "--window", "12"]
        return Op("cli.ortho", CLI, (argv,), "cli_ortho",
                  {"pieces": pieces, "period": period, "cosets": cosets, "window": F(12)})
    if which == "ap":
        d = rng.randint(1, 4)
        pieces = _shifted(_cover_pieces(rng, d), F(rng.randint(-6, 6), rng.choice((1, 2, 3))))
        argv = ["ap", "--omega", omega_json(pieces), "--difference", str(d), "--K", "24"]
        return Op("cli.ap", CLI, (argv,), "cli_ap",
                  {"pieces": pieces, "d": F(d), "K": 24})
    if which == "ap-spectrum":
        pieces, period, cosets = _random_member(rng, ("unit3", "unit4"))
        start = rng.choice(cosets)
        argv = ["ap", "--omega", omega_json(pieces), "--spectrum", spectrum_json(period, cosets),
                "--start", str(start), "--difference", str(period), "--window", "12"]
        points = window_points(period, cosets, F(12))
        return Op("cli.ap-spectrum", CLI, (argv,), "cli_ap_spectrum",
                  {"pieces": pieces, "points": points, "window": F(12),
                   "a": start, "d": period})
    pieces, d, lam = _rank_input(rng, rng.choice(("unit3", "unit4", "half")))
    argv = ["rank", "--omega", omega_json(pieces), "--difference", str(d),
            "--frequency", str(lam)]
    return Op("cli.rank", CLI, (argv,), "cli_rank", {"pieces": pieces, "d": d, "lam": lam})


# --- tiling search -------------------------------------------------------------

# Every set of 2, 3 or 4 integers in [0, TILE_UNIVERSE) is decided both ways.
# Larger diameters are left out: the exact-cover search is exponential in the
# diameter even for 2-element sets, which always tile.
TILE_UNIVERSE = 12


def _pattern_lengths(rng):
    while True:
        q = rng.randint(5, 12)
        cuts = sorted(rng.sample(range(1, q), 2))
        lengths = (F(cuts[0], q), F(cuts[1] - cuts[0], q), F(q - cuts[1], q))
        if F(1, 2) not in lengths and len(set(lengths)) > 1:
            return lengths


def tiling_search(mods, rng: random.Random) -> list[Op]:
    zt = mods["ztiling"]
    sets = [c for k in (2, 3, 4) for c in itertools.combinations(range(TILE_UNIVERSE), k)]
    rng.shuffle(sets)
    ops: list[Op] = []
    for base in sets:
        shift = rng.randint(-20, 20)
        elems = tuple(x + shift for x in base)
        aset = zt.IntegerSet(elems)
        n = len(ops)
        ops.append(Op("newman_tiles", "ztiling.newman_tiles", (aset,), "newman",
                      {"set": elems, "partner": n + 1}))
        ops.append(Op(f"brute_force_tile_period.k{len(elems)}",
                      "ztiling.brute_force_tile_period", (aset,), "brute_force",
                      {"set": elems, "partner": n}))
    for window, count in ((3, 40), (4, 16), (5, 4)):
        for _ in range(count):
            lengths = _pattern_lengths(rng)
            ops.append(Op(f"pattern_search.w{window}", "ztiling.pattern_search",
                          (lengths, window), "patterns",
                          {"lengths": lengths, "window": window}))
    for i in range(84):
        which = ("newman", "tile-search", "pattern")[i % 3]
        if which == "pattern":
            lengths = _pattern_lengths(rng)
            argv = ["pattern", "--lengths", ",".join(str(x) for x in lengths),
                    "--window", "3", "--motif", rng.choice(("AA", "ABA", "CBC", "ABC"))]
            ops.append(Op("cli.pattern", CLI, (argv,), "cli_pattern",
                          {"lengths": lengths, "window": 3, "motif": argv[-1]}))
            continue
        shift = rng.randint(-20, 20)
        elems = tuple(x + shift for x in rng.choice(sets))
        argv = [which, "--set=" + ",".join(str(x) for x in elems)]
        if which == "tile-search":
            diam = elems[-1] - elems[0]
            argv += ["--m-max", str(min(2**diam, 4096))]
        ops.append(Op(f"cli.{which}", CLI, (argv,), f"cli_{which.replace('-', '_')}",
                      {"set": elems}))
    return ops


# --- vanishing sums ----------------------------------------------------------


def _lift_to_intervals(values: list[F], rng):
    """A three-piece set and a frequency whose signed vector has these values.

    Component 2i has value e(lam*(a_i + r_i)) and component 2i+1 has value
    -e(lam*a_i); with lam = m and the set scaled by 1/m, endpoints are
    chosen mod 1 from the wanted exponents and spread apart by whole units.
    """
    m = rng.randint(1, 3)
    pieces, cursor = [], F(0)
    for i in range(3):
        left = (values[2 * i + 1] + F(1, 2)) % 1
        left += math.ceil(cursor - left) + rng.randint(0, 2)
        right = values[2 * i] % 1
        right += math.ceil(left - right) + rng.randint(0, 1)
        if right <= left:
            right += 1
        pieces.append((left / m, (right - left) / m))
        cursor = right + 1
    return pieces, F(m)


def _planted_values(rng, shape: str) -> list[F]:
    x = F(rng.randrange(60), 60)
    if shape == "type1":
        ys = [F(rng.randrange(60), 60) for _ in range(3)]
        vals = [e for y in ys for e in (y, y + F(1, 2))]
    elif shape == "type2":
        y = F(rng.randrange(60), 60)
        vals = [x, x + F(1, 3), x + F(2, 3), y, y + F(1, 3), y + F(2, 3)]
    elif shape == "type3":
        vals = [x + F(i, 5) for i in range(1, 5)] + [x + F(5, 6), x + F(1, 6)]
    else:
        vals = _planted_values(rng, rng.choice(("type1", "type2", "type3")))
        vals[rng.randrange(6)] += F(rng.randrange(1, 60), 60)
    vals = [v % 1 for v in vals]
    rng.shuffle(vals)
    return vals


def _classify_input(rng, i: int):
    """Pieces and frequency of one classified vector, by a fixed rotation of kinds."""
    kind = ("type1", "type2", "type3", "none", "spectrum", "spectrum", "random")[i % 7]
    if kind in ("spectrum", "random"):
        family = ("unit3", "unit4", "half")[(i // 7) % 3]
        if family == "unit3":
            pieces, period, cosets = unit3_data(*rng.choice(UNIT3))
        elif family == "unit4":
            pieces, period, cosets = unit4_data(*rng.choice(UNIT4))
        else:
            n, k, k0 = rng.choice(HALF)
            pieces, period, cosets = half_data(n, k, k0, rng.choice(HALF_R))
        if kind == "spectrum":
            lam = rng.choice(cosets) - rng.choice(cosets) + period * rng.randint(1, 6)
        else:
            lam = F(rng.randint(1, 30), rng.choice((2, 3, 4, 5, 6)))
        return kind, pieces, lam
    return kind, *_lift_to_intervals(_planted_values(rng, kind), rng)


def vanishing_sums(mods, rng: random.Random) -> list[Op]:
    iv, vs = mods["intervals"], mods["vansum"]
    ops: list[Op] = []
    for i in range(1960):
        kind, pieces, lam = _classify_input(rng, i)
        vec = vs.SignedRootVector.from_frequency(iv.IntervalUnion.from_pieces(pieces), lam)
        ops.append(Op(f"classify.{kind}", "vansum.classify", (vec,), "classify",
                      {"pieces": pieces, "lam": lam}))
    # The enumerations and sweeps do not depend on the seed.
    for name, order in (("enumerate_type2_type2", 18), ("enumerate_type3_type3", 30),
                        ("enumerate_type3_type2", 30)):
        ops.append(Op(f"{name}.{order}", f"vansum.{name}", (order,), "enumeration",
                      {"order": order}))
    for order in (6, 10, 12, 18, 24, 30):
        ops.append(Op(f"verify_weight6.{order}", "vansum.verify_weight6_classification",
                      (order,), "weight6", {"order": order}))
    for i in range(60):
        kind, pieces, lam = _classify_input(rng, i)
        if i % 2 == 0:
            argv = ["vansum-classify", "--omega", omega_json(pieces), "--frequency", str(lam)]
        else:
            terms = []
            for a, r in pieces:
                terms += [[1, str((lam * (a + r)) % 1)], [-1, str((lam * a) % 1)]]
            argv = ["vansum-classify", "--vector", json.dumps({"terms": terms})]
        ops.append(Op("cli.vansum-classify", CLI, (argv,), "cli_vansum_classify",
                      {"pieces": pieces, "lam": lam}))
    ops.append(Op("cli.vansum-enum", CLI,
                  (["vansum-enum", "--pair", "type2", "--order", "12"],),
                  "cli_vansum_enum", {"order": 12}))
    for order in (10, 12):
        ops.append(Op("cli.verify-weight6", CLI,
                      (["verify-weight6", "--order", str(order)],),
                      "cli_weight6", {"order": order}))
    rng.shuffle(ops)
    return ops


# --- cyclotomic kernel ---------------------------------------------------------

# Orders above the kernel's table limit: primes, powers of two and highly
# composite orders take different paths through the remainder computation.
LARGE_ORDERS = (1031, 1200, 2048, 2310, 3000, 5040, 7919, 10000)
# More distinct orders in 61..1024 than the kernel's per-order table cache
# (128 entries) holds, visited twice in the same cyclic order.  The orders are
# fixed because table cost grows with n * phi(n), which differs fourfold
# between neighbours such as 1020 and 1021.
MID_ORDERS = tuple(range(61, 1025, 7))


def _smallest_prime_factor(n: int) -> int:
    return next(p for p in range(2, n + 1) if n % p == 0)


def _sum_terms(rng, n: int, planted: bool):
    """(coefficient, exponent) terms of one sum whose common order is n."""
    unit = next(j for j in itertools.count(rng.randrange(1, n + 1)) if math.gcd(j, n) == 1)
    x = F(unit, n)
    p = _smallest_prime_factor(n) if n > 1 else 1
    if planted and p <= 13:
        c = rng.choice((-5, -3, -2, -1, 1, 2, 3, 5))
        terms = [(F(c), x + F(i, p)) for i in range(p)]
        if rng.random() < 0.5:
            y, q = F(rng.randrange(n), n), rng.choice((2, 3))
            if n % q == 0:
                terms += [(F(rng.randint(1, 5)), y + F(i, q)) for i in range(q)]
        return terms
    terms = [(F(rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))), x)]
    for _ in range(rng.randint(1, 5)):
        terms.append((F(rng.randint(-5, 5)), F(rng.randrange(n), n)))
    return terms


def cyclo_kernel(mods, rng: random.Random) -> list[Op]:
    cy = mods["cyclotomic"]

    def sum_op(kind: str, n: int, planted: bool) -> Op:
        terms = _sum_terms(rng, n, planted)
        s = cy.CycloSum.from_pairs((c, cy.RootOfUnity(e)) for c, e in terms)
        return Op(kind, "cyclotomic.CycloSum.is_zero", (s,), "is_zero",
                  {"terms": terms})

    small = [sum_op("is_zero.order_le_60", rng.randint(1, 60), i % 5 == 0) for i in range(880)]
    mids = list(MID_ORDERS)
    rng.shuffle(mids)
    ops: list[Op] = []
    for n in mids + mids:
        ops.append(sum_op("is_zero.order_61_1024", n, False))
        ops.append(sum_op("is_zero.order_61_1024", n, True))
        ops.extend(small.pop() for _ in range(3))
    ops.extend(small)
    for n in LARGE_ORDERS:
        ops.append(sum_op("is_zero.order_gt_1024", n, False))
        ops.append(sum_op("is_zero.order_gt_1024", n, True))
    for i in range(60):
        ops.append(_kernel_cli_op(rng, i))
    return ops


def _kernel_cli_op(rng, i: int) -> Op:
    if i % 3 == 2:
        j, r, s = rng.choice(UNIT3)
        cells = (0, 3**j * (3 * r + 1), 3**j * (3 * s + 2))
        step = F(1, 3 ** (j + 1))
        if i % 2 == 0:
            mus = [F(0), step, 2 * step]
        else:
            q = rng.randint(61, 400)
            mus = [F(0)] + [F(rng.randrange(1, q), q) for _ in range(2)]
        argv = ["complete", "--set", ",".join(map(str, cells)),
                "--mu", ",".join(map(str, mus))]
        return Op("cli.complete", CLI, (argv,), "cli_complete", {"cells": cells, "mus": mus})
    q = rng.choice((6, 12, 30, 60, 90, 210))
    pieces = _random_measure_one(rng, q)
    lam = F(rng.randint(1, 6 * q), rng.choice((1, 2, 3, 5, 7)))
    argv = ["zeroset", "--omega", omega_json(pieces), "--frequency", str(lam)]
    return Op("cli.zeroset", CLI, (argv,), "cli_zeroset", {"pieces": pieces, "lam": lam})


# Nominal length of one round in seconds (2-CPU reference machine).  A run
# makes `seconds // ROUND_SECONDS` rounds, so the work per run is fixed and
# does not depend on how fast the machine happened to be.
ROUND_SECONDS = {
    "spectral_pairs": 6.5,
    "tiling_search": 9,
    "vanishing_sums": 28,
    "cyclo_kernel": 6,
}

WORKLOADS: dict[str, Callable] = {
    "spectral_pairs": spectral_pairs,
    "tiling_search": tiling_search,
    "vanishing_sums": vanishing_sums,
    "cyclo_kernel": cyclo_kernel,
}


def build(name: str, mods: dict, seed: int) -> list[Op]:
    return WORKLOADS[name](mods, random.Random(f"{name}:{seed}"))
