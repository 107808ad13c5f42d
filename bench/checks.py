"""Output checks that do not rely on the program's own answers.

Each check takes an operation, its result (or the exception it raised) and
the round it ran in (`ctx.results`: every result of the round; `ctx.program`:
the program's modules), and returns True when the result is right.
Expected answers are recomputed from the operation's raw inputs: Fourier
transforms and root-of-unity sums in floating point with numpy, exact
remainders with sympy where floats cannot decide, direct residue counts for
tilings, and closed-form counts.  Nothing is compared with a stored copy of
earlier output.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from fractions import Fraction as F

import numpy as np

from workloads import window_points

ZERO_TOL = 1e-6    # |FT| or |sum| below this counts as zero, above as nonzero
EXACT_TOL = 1e-12  # kernel sums: below this zero, between the two ask sympy
HALF, THIRD = F(1, 2), F(1, 3)


# --- floating-point oracles ----------------------------------------------------


def fourier(pieces, xi) -> np.ndarray:
    """Fourier transform of the indicator of the union of pieces at xi."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    safe = np.where(xi == 0, 1.0, xi)
    total = np.zeros(xi.shape, dtype=complex)
    for a, r in pieces:
        total += np.exp(2j * np.pi * safe * float(a + r)) - np.exp(2j * np.pi * safe * float(a))
    measure = float(sum(r for _, r in pieces))
    return np.where(xi == 0, measure, total / (2j * np.pi * safe))


def in_zero_set(pieces, xi) -> np.ndarray:
    return np.abs(fourier(pieces, xi)) < ZERO_TOL


def root_sum(exponents, coeffs=None) -> complex:
    e = np.array([float(x % 1) for x in exponents])
    c = np.ones(len(e)) if coeffs is None else np.array([float(x) for x in coeffs])
    return complex(np.sum(c * np.exp(2j * np.pi * e)))


def residues_mod_one(period: F, cosets) -> set[F]:
    seen: set[F] = set()
    for c in cosets:
        x = c % 1
        while x not in seen:
            seen.add(x)
            x = (x + period) % 1
    return seen


def is_unitary_matrix(cells, mus) -> bool:
    """M M* = kI for M_ij = e(mu_i * cell_j), in floating point."""
    m = np.exp(2j * np.pi * np.outer([float(x) for x in mus], [float(c) for c in cells]))
    gram = m @ m.conj().T
    return bool(np.allclose(gram, len(cells) * np.eye(len(mus)), atol=1e-9))


def completeness_of(pieces, period: F, cosets) -> str:
    if any(a.denominator != 1 or r.denominator != 1 for a, r in pieces):
        return "not-decided"
    cells = [a + i for a, r in pieces for i in range(int(r))]
    mus = sorted(residues_mod_one(period, cosets))
    if len(mus) != len(cells):
        return "not-decided"
    return "unitary" if is_unitary_matrix(cells, mus) else "not-unitary"


def raised(result, name: str) -> bool:
    return isinstance(result, Exception) and type(result).__name__ == name


# --- spectral pairs --------------------------------------------------------------


def _orthogonality(info):
    pts = window_points(info["period"], info["cosets"], info["window"])
    x = np.array([float(p) for p in pts])
    i, j = np.triu_indices(len(pts), 1)
    return pts, bool(np.all(in_zero_set(info["pieces"], x[j] - x[i])))


def _violation_ok(info, pts, violation) -> bool:
    p, q = violation
    members = set(pts)
    return p in members and q in members and not in_zero_set(info["pieces"], float(q - p))[0]


def spectral_pair(op, rep, ctx) -> bool:
    info = op.info
    pts, orthogonal = _orthogonality(info)
    if isinstance(rep, Exception) or rep.orthogonal != orthogonal or rep.window != info["window"]:
        return False
    if orthogonal != (rep.violation is None):
        return False
    if not orthogonal and not _violation_ok(info, pts, rep.violation):
        return False
    measure = sum(r for _, r in info["pieces"])
    return (rep.completeness == completeness_of(info["pieces"], info["period"], info["cosets"])
            and rep.density_matches == (len(info["cosets"]) / info["period"] == measure))


def _profile_width(pieces, d: int) -> F:
    q = math.lcm(*(x.denominator for a, r in pieces for x in (a, a + r)))
    return F(1, math.lcm(q, d))


def direct_count(pieces, d: int, x: F) -> int:
    """Number of k with x + k/d inside the union, by testing each k."""
    count = 0
    for a, r in pieces:
        for k in range(math.floor(d * (a - x)) - 1, math.ceil(d * (a + r - x)) + 2):
            if a <= x + F(k, d) < a + r:
                count += 1
    return count


def level_function(op, rep, ctx) -> bool:
    pieces, d = op.info["pieces"], op.info["d"]
    width = _profile_width(pieces, d)
    cells = int(1 / (d * width))
    if isinstance(rep, Exception) or rep.cell_width != width or len(rep.values) != cells:
        return False
    if sum(rep.values) * width != sum(r for _, r in pieces):
        return False
    samples = sorted({0, cells - 1} | {m * cells // 32 for m in range(32)})
    return all(rep.values[m] == direct_count(pieces, d, (m + HALF) * width) for m in samples)


def d_tiles(op, result, ctx) -> bool:
    pieces, d = op.info["pieces"], op.info["d"]
    if sum(r for _, r in pieces) != 1:
        return raised(result, "PreconditionError")
    return result is _tiles_by_counts(pieces, d)


def _tiles_by_counts(pieces, d: int) -> bool:
    width = _profile_width(pieces, d)
    cells = int(1 / (d * width))
    return all(direct_count(pieces, d, (m + HALF) * width) == d for m in range(cells))


def _ap_expected(info):
    """None when 0, d, ..., (2n-1)d are not all in the zero set, else whether
    every kd with 0 < |k| <= K is."""
    pieces, d = info["pieces"], info["d"]
    if not np.all(in_zero_set(pieces, [float(k * d) for k in range(1, 2 * len(pieces))])):
        return None
    ks = [float(k * d) for k in range(-info["K"], info["K"] + 1) if k]
    return bool(np.all(in_zero_set(pieces, ks)))


def ap_extension(op, result, ctx) -> bool:
    holds = _ap_expected(op.info)
    if holds is None:
        return raised(result, "PreconditionError")
    return result is holds


def _spectrum_ap_expected(info):
    """None when the precondition fails, else (holds, progression, points)."""
    a, d, window, pieces = info["a"], info["d"], info["window"], info["pieces"]
    points = set(info["points"])
    if any(a + k * d not in points for k in range(2 * len(pieces))):
        return None
    lo, hi = math.ceil((-window - a) / d), math.floor((window - a) / d)
    prog = [a + k * d for k in range(lo, hi + 1)]
    x = np.array([float(p) for p in sorted(points)])
    holds = True
    for p in prog:
        if p not in points:
            holds = False
            break
        others = x[x != float(p)]
        if not np.all(in_zero_set(pieces, float(p) - others)):
            holds = False
            break
    return holds, set(prog), points


def _spectrum_ap_witness_ok(info, expected, holds, witness) -> bool:
    want, prog, points = expected
    if holds != want:
        return False
    if holds:
        return witness is None
    x, p = witness
    if x not in prog:
        return False
    if p is None:
        return x not in points
    return p in points and p != x and not in_zero_set(info["pieces"], float(x - p))[0]


def spectrum_ap(op, rep, ctx) -> bool:
    expected = _spectrum_ap_expected(op.info)
    if expected is None:
        return raised(rep, "PreconditionError")
    if isinstance(rep, Exception):
        return False
    return _spectrum_ap_witness_ok(op.info, expected, rep.holds, rep.witness)


def _rank_ok(info, rank, kind, pairs, witness) -> bool:
    """Recheck a node-system classification from exact exponents mod 1."""
    d, lam = info["d"], info["lam"]
    coords = [x for a, r in sorted(info["pieces"]) for x in (a + r, a)]
    zeta = [(d * c) % 1 for c in coords]
    xi = [(lam * c) % 1 for c in coords]
    if sorted(i for pr in pairs for i in pr) != list(range(6)):
        return False
    if any((i + j) % 2 != 1 or zeta[i] != zeta[j] for i, j in pairs):
        return False
    if rank != len({zeta[i] for i, _ in pairs}):
        return False
    if rank == 3:
        return (kind == "forced-equalities"
                and [tuple(w) for w in witness] == [(i, j, xi[i]) for i, j in pairs]
                and all(xi[i] == xi[j] for i, j in pairs))
    if rank == 2:
        node = {pr: zeta[pr[0]] for pr in pairs}
        shared = sorted((pr for pr in pairs if sum(node[o] == node[pr] for o in pairs) == 2),
                        key=min)
        (single,) = [pr for pr in pairs if pr not in shared]
        if xi[single[0]] != xi[single[1]]:
            return False
        (pp, pm), (qp, qm) = (sorted(pr, key=lambda i: i % 2) for pr in shared)
        shapes = set()
        if xi[pp] == xi[pm] and xi[qp] == xi[qm]:
            shapes.add("within-pairs")
        if xi[pp] == xi[qm] and xi[pm] == xi[qp]:
            shapes.add("across-pairs")
        if xi[pp] == (xi[qp] + HALF) % 1 and xi[pm] == (xi[qm] + HALF) % 1:
            shapes.add("antipodal")
        quad = root_sum([xi[pp], xi[pm], xi[qp], xi[qm]], [1, -1, 1, -1])
        return (kind == "paired-cancellation" and bool(shapes)
                and set(witness) == shapes and abs(quad) < ZERO_TOL)
    a1 = min(info["pieces"])[0]
    ls = [d * (a - a1) for a, _ in sorted(info["pieces"])]
    ks = [d * r for _, r in sorted(info["pieces"])]
    return (kind == "equal-cell-decomposition"
            and tuple(witness) == (ls[1], ls[2], *ks, sum(ks)))


def rank(op, rep, ctx) -> bool:
    if isinstance(rep, Exception):
        return False
    return _rank_ok(op.info, rep.rank, rep.kind, rep.pairing.pairs, rep.witness)


# --- tiling ----------------------------------------------------------------------


def newman_expected(elems) -> tuple[int, int, list[int], bool]:
    """(p, alpha, distinct p-adic valuations of differences, tiles) for |A| = p^alpha."""
    k = len(elems)
    p = next(q for q in range(2, k + 1) if k % q == 0)
    alpha = round(math.log(k, p))
    vals = set()
    for x, y in itertools.combinations(elems, 2):
        diff, v = abs(y - x), 0
        while diff % p == 0:
            diff //= p
            v += 1
        vals.add(v)
    return p, alpha, sorted(vals), len(vals) <= alpha


def tiling_witness_ok(elems, period: int, translates) -> bool:
    """A + T covers every residue mod period exactly once."""
    residues = [(a + t) % period for a in elems for t in translates]
    return len(residues) == period and len(set(residues)) == period


def newman(op, rep, ctx) -> bool:
    elems = op.info["set"]
    partner = ctx.results[op.info["partner"]]
    if isinstance(rep, Exception) or isinstance(partner, Exception):
        return False
    p, alpha, vals, tiles = newman_expected(elems)
    return ((rep.p, rep.alpha, list(rep.valuations), rep.tiles) == (p, alpha, vals, tiles)
            and rep.tiles == (partner is not None))


def brute_force(op, witness, ctx) -> bool:
    partner = ctx.results[op.info["partner"]]
    if isinstance(witness, Exception) or isinstance(partner, Exception):
        return False
    if witness is not None and not tiling_witness_ok(op.info["set"], witness.period,
                                                     witness.translates):
        return False
    return (witness is not None) == partner.tiles


def realizable(labels: str, lengths) -> bool:
    by_label = dict(zip("ABC", lengths))
    pos = {"A": [], "B": [], "C": []}
    cursor = F(0)
    for lab in labels:
        pos[lab].append(cursor)
        cursor += by_label[lab]
    if not len(pos["A"]) == len(pos["B"]) == len(pos["C"]):
        return False
    shifts = {lab: {b - a for a, b in zip(pos["A"], pos[lab])} for lab in "BC"}
    if len(shifts["B"]) != 1 or len(shifts["C"]) != 1:
        return False
    spans = sorted([(F(0), by_label["A"]), (shifts["B"].pop(), by_label["B"]),
                    (shifts["C"].pop(), by_label["C"])])
    return all(s1 + l1 <= s2 for (s1, l1), (s2, _) in zip(spans, spans[1:]))


def _patterns_ok(lengths, window: int, found) -> bool:
    """found: (labels, placements) per pattern.  Criterion 5 of the paper:
    only ABCABC... and ACBACB... occur, so exactly the realizable ones of
    these two must be found."""
    allowed = {"ABC" * window, "ACB" * window}
    by_label = dict(zip("ABC", lengths))
    labels_seen = set()
    for labels, placements in found:
        cursor = F(0)
        for off, lab in placements:
            if off != cursor:
                return False
            cursor += by_label[lab]
        if cursor != window or "".join(lab for _, lab in placements) != labels:
            return False
        if labels not in allowed or not realizable(labels, lengths):
            return False
        labels_seen.add(labels)
    return (labels_seen == {lab for lab in allowed if realizable(lab, lengths)}
            and len(labels_seen) == len(found))


def patterns(op, rep, ctx) -> bool:
    if isinstance(rep, Exception):
        return False
    lengths, window = op.info["lengths"], op.info["window"]
    if any(p.window != window or tuple(p.lengths) != tuple(lengths) for p in rep):
        return False
    return _patterns_ok(lengths, window, [(p.labels, p.placements) for p in rep])


# --- vanishing sums --------------------------------------------------------------


def value_exponents(pieces, lam: F) -> list[F]:
    out = []
    for a, r in sorted(pieces):
        out += [(lam * (a + r)) % 1, (lam * a + HALF) % 1]
    return out


def _pair_partitions(items):
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for i, other in enumerate(rest):
        for tail in _pair_partitions(rest[:i] + rest[i + 1:]):
            yield ((first, other),) + tail


PAIR_PARTITIONS = tuple(_pair_partitions(tuple(range(6))))
TRIPLE_SPLITS = tuple(((0,) + c, tuple(x for x in range(1, 6) if x not in c))
                      for c in itertools.combinations(range(1, 6), 2))


def cube_triple(exps) -> bool:
    a, b, c = exps
    return {(b - a) % 1, (c - a) % 1} == {THIRD, 2 * THIRD}


def expected_tag(v) -> str:
    z = np.exp(2j * np.pi * np.array([float(x) for x in v]))
    if abs(z.sum()) > ZERO_TOL:
        return "not-vanishing"
    if any(all(abs(z[i] + z[j]) < ZERO_TOL for i, j in part) for part in PAIR_PARTITIONS):
        return "type1"
    if any(cube_triple([v[i] for i in left]) and cube_triple([v[i] for i in right])
           for left, right in TRIPLE_SPLITS):
        return "type2"
    return "type3"


def _witness_ok(tag: str, witness, v) -> bool:
    z = np.exp(2j * np.pi * np.array([float(x) for x in v]))
    if tag == "not-vanishing":
        return witness is None
    if tag == "type1":
        return (sorted(i for pr in witness for i in pr) == list(range(6))
                and all(abs(z[i] + z[j]) < ZERO_TOL for i, j in witness))
    if tag == "type2":
        return (sorted(witness[0] + witness[1]) == list(range(6))
                and all(cube_triple([v[i] for i in t]) and abs(z[list(t)].sum()) < ZERO_TOL
                        for t in witness))
    x, quad, pair = witness
    e = x.exponent
    return (sorted(quad + pair) == list(range(6))
            and {v[i] for i in quad} == {(e + F(i, 5)) % 1 for i in range(1, 5)}
            and {v[i] for i in pair} == {(e + F(5, 6)) % 1, (e + F(1, 6)) % 1})


def classify(op, tag, ctx) -> bool:
    if isinstance(tag, Exception):
        return False
    v = value_exponents(op.info["pieces"], op.info["lam"])
    return tag.tag == expected_tag(v) and _witness_ok(tag.tag, tag.witness, v)


def _family_ok(max_family: int, witnesses) -> bool:
    """maxFamily is 3 and every witness and witness difference vanishes."""
    vecs = [[F(x) for x in w] for w in witnesses]
    if max_family != 3 or len(vecs) != 3:
        return False
    for u in vecs:
        if abs(root_sum(u)) > ZERO_TOL:
            return False
    for u, w in itertools.combinations(vecs, 2):
        diff = [u[i] - w[i] + (HALF if i % 2 else 0) for i in range(6)]
        if abs(root_sum(diff)) > ZERO_TOL:
            return False
    return True


def enumeration(op, rep, ctx) -> bool:
    if isinstance(rep, Exception) or rep.order_bound != op.info["order"]:
        return False
    return (rep.vertex_count >= len(rep.family_witness) - 1 and rep.edge_count >= 0
            and _family_ok(rep.max_family, rep.family_witness))


@functools.lru_cache(maxsize=None)
def vanishing_count(m: int) -> int:
    """Multisets 0 <= e2 <= ... <= e6 < m with sum of e((0, e2..e6)/m) zero."""
    count = 0
    for rest in itertools.combinations_with_replacement(range(m), 5):
        if abs(root_sum([F(0)] + [F(e, m) for e in rest])) < ZERO_TOL:
            count += 1
    return count


def _weight6_ok(order: int, ok, checked: int, vanishing: int, counterexample) -> bool:
    m = order if order % 2 == 0 else 2 * order
    if not ok or counterexample is not None or checked != math.comb(m + 4, 5):
        return False
    return m > 12 or vanishing == vanishing_count(m)


def weight6(op, rep, ctx) -> bool:
    if isinstance(rep, Exception) or rep.order_bound != op.info["order"]:
        return False
    return _weight6_ok(op.info["order"], rep.ok, rep.checked, rep.vanishing, rep.counterexample)


# --- cyclotomic kernel ---------------------------------------------------------


@functools.lru_cache(maxsize=None)
def sympy_cyclotomic(n: int) -> tuple[int, ...]:
    import sympy

    coeffs = sympy.cyclotomic_poly(n, sympy.Symbol("x"), polys=True).all_coeffs()
    return tuple(int(c) for c in reversed(coeffs))


def exactly_zero(terms, n: int) -> bool:
    """Exact test: the polynomial of the sum is divisible by Phi_n (sympy)."""
    import sympy

    x = sympy.Symbol("x")
    poly = sum(sympy.Rational(c.numerator, c.denominator) * x ** int(e * n) for c, e in terms)
    return sympy.rem(sympy.Poly(poly, x), sympy.cyclotomic_poly(n, x, polys=True)).is_zero


def merged_terms(terms) -> list[tuple[F, F]]:
    acc: dict[F, F] = {}
    for c, e in terms:
        acc[e % 1] = acc.get(e % 1, F(0)) + c
    return [(c, e) for e, c in sorted(acc.items()) if c != 0]


def kernel_verdict(terms) -> bool:
    terms = merged_terms(terms)
    if not terms:
        return True
    value = abs(root_sum([e for _, e in terms], [c for c, _ in terms]))
    if value < EXACT_TOL:
        return True
    if value > ZERO_TOL:
        return False
    return exactly_zero(terms, math.lcm(*(e.denominator for _, e in terms)))


def is_zero(op, result, ctx) -> bool:
    terms = merged_terms(op.info["terms"])
    if result is not kernel_verdict(terms):
        return False
    n = math.lcm(*(e.denominator for _, e in terms)) if terms else 1
    return n == 1 or tuple(ctx.program["cyclotomic"].cyclotomic_poly(n)) == sympy_cyclotomic(n)


# --- command line --------------------------------------------------------------


def floats_outside_cross_check(data, key=None) -> bool:
    if isinstance(data, float):
        return key != "numericCrossCheck"
    if isinstance(data, dict):
        return any(floats_outside_cross_check(v, k) for k, v in data.items())
    if isinstance(data, list):
        return any(floats_outside_cross_check(v, key) for v in data)
    return False


def _cli(result):
    """(exit status, report) of a command-line call, or None if unusable."""
    if isinstance(result, Exception):
        return None
    status, text = result
    report = json.loads(text)
    if floats_outside_cross_check(report):
        return None
    return status, report


def _pairs(items):
    return [[F(int(n), int(d)) for n, d in item] for item in items]


def cli_construct(op, result, ctx) -> bool:
    out = _cli(result)
    if out is None or out[0] != 0:
        return False
    info, report = op.info, out[1]
    pieces = [tuple(p) for p in _pairs(report["omega"]["pieces"])]
    period = F(*map(int, report["spectrum"]["period"]))
    cosets = [F(int(n), int(d)) for n, d in report["spectrum"]["cosets"]]
    return (pieces == sorted(info["pieces"]) and period == info["period"]
            and cosets == sorted(c % period for c in info["cosets"]))


def cli_ortho(op, result, ctx) -> bool:
    out = _cli(result)
    if out is None:
        return False
    status, report = out
    info = op.info
    pts, orthogonal = _orthogonality(info)
    if report["orthogonal"] is not orthogonal or status != (0 if orthogonal else 1):
        return False
    violations = [[F(p), F(q)] for p, q in report["violations"]]
    if orthogonal != (violations == []):
        return False
    if violations and (len(violations) != 1 or not _violation_ok(info, pts, violations[0])):
        return False
    measure = sum(r for _, r in info["pieces"])
    return (report["completeness"] == completeness_of(info["pieces"], info["period"], info["cosets"])
            and report["densityMatches"] is (len(info["cosets"]) / info["period"] == measure)
            and F(report["window"]) == info["window"])


def cli_ap(op, result, ctx) -> bool:
    out = _cli(result)
    if out is None:
        return False
    status, report = out
    info = op.info
    holds = _ap_expected(info)
    tiles = _tiles_by_counts(info["pieces"], int(info["d"]))
    return (report["holds"] is holds and status == (0 if holds else 1)
            and report["tiles"] is tiles and report["K"] == info["K"])


def cli_ap_spectrum(op, result, ctx) -> bool:
    out = _cli(result)
    expected = _spectrum_ap_expected(op.info)
    if out is None or expected is None:
        return False
    status, report = out
    wit = [F(x) for x in report["witness"]]
    witness = None if not wit else (wit[0], wit[1] if len(wit) > 1 else None)
    return (status == (0 if report["holds"] else 1)
            and _spectrum_ap_witness_ok(op.info, expected, report["holds"], witness))


def cli_rank(op, result, ctx) -> bool:
    out = _cli(result)
    if out is None or out[0] != 0:
        return False
    report = out[1]
    wit = report["witness"]
    if report["rank"] == 1:
        witness = (wit["l2"], wit["l3"], *wit["cellCounts"], wit["d"])
    elif report["rank"] == 2:
        witness = wit["cancellations"]
    else:
        witness = [(i, j, F(e)) for i, j, e in wit["equalPairs"]]
    pairs = [tuple(p) for p in report["pairing"]]
    return _rank_ok(op.info, report["rank"], report["kind"], pairs, witness)


def cli_newman(op, result, ctx) -> bool:
    out = _cli(result)
    if out is None or out[0] != 0:
        return False
    report = out[1]
    p, alpha, vals, tiles = newman_expected(op.info["set"])
    return (report["p"], report["alpha"], report["S"], report["tiles"]) == (p, alpha, vals, tiles)


def cli_tile_search(op, result, ctx) -> bool:
    out = _cli(result)
    if out is None or out[0] != 0:
        return False
    report = out[1]
    tiles = newman_expected(op.info["set"])[3]
    if report["found"] is not tiles:
        return False
    return not tiles or tiling_witness_ok(op.info["set"], report["period"], report["translates"])


def cli_pattern(op, result, ctx) -> bool:
    out = _cli(result)
    if out is None or out[0] != 0:
        return False
    report = out[1]
    lengths, window, motif = op.info["lengths"], op.info["window"], op.info["motif"]
    found = [(p["labels"], [(F(int(n), int(d)), lab) for (n, d), lab in p["placements"]])
             for p in report["patterns"]]
    hits = [labels for labels, _ in found if motif in labels + labels[:len(motif) - 1]]
    return _patterns_ok(lengths, window, found) and report["motifHits"] == hits


def cli_vansum_classify(op, result, ctx) -> bool:
    out = _cli(result)
    if out is None or out[0] != 0:
        return False
    report = out[1]
    v = value_exponents(op.info["pieces"], op.info["lam"])
    return report["tag"] == expected_tag(v) and [F(x) for x in report["valueExponents"]] == v


def cli_vansum_enum(op, result, ctx) -> bool:
    out = _cli(result)
    if out is None or out[0] != 0:
        return False
    section = out[1]["type2type2"]
    return (section["orderBound"] == op.info["order"]
            and _family_ok(section["maxFamily"], section["witnesses"]))


def cli_weight6(op, result, ctx) -> bool:
    out = _cli(result)
    if out is None or out[0] != 0:
        return False
    r = out[1]
    return (r["orderBound"] == op.info["order"]
            and _weight6_ok(op.info["order"], r["ok"], r["checked"], r["vanishing"],
                            r["counterexample"]))


def cli_zeroset(op, result, ctx) -> bool:
    out = _cli(result)
    if out is None:
        return False
    status, report = out
    member = bool(in_zero_set(op.info["pieces"], float(op.info["lam"]))[0])
    return report["inZeroSet"] is member and status == (0 if member else 1)


def cli_complete(op, result, ctx) -> bool:
    out = _cli(result)
    if out is None:
        return False
    status, report = out
    complete = is_unitary_matrix(op.info["cells"], op.info["mus"])
    return report["complete"] is complete and status == (0 if complete else 1)
