"""Acceptance criteria, one test per criterion, each printing a PASS line.

Every tolerance and bound is fixed here: exact checks admit no tolerance,
the float cross-check threshold is 1e-9, and each criterion carries its
stated runtime budget.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from spectile.cyclotomic import CycloSum, RootOfUnity
from spectile.intervals import IntervalUnion, d_tiles, in_zero_set
from spectile.spectra import (
    ap_extension_check,
    construct_unit3_pair,
    construct_unit4_pair,
    verify_spectral_pair,
)
from spectile.vansum import (
    enumerate_type2_type2,
    enumerate_type3_type2,
    enumerate_type3_type3,
    verify_weight6_classification,
)
from spectile.ztiling import (
    brute_force_tile_period,
    motif_scan,
    newman_tiles,
    pattern_search,
)

F = Fraction


def report(number, passed, elapsed, budget, detail=""):
    status = "PASS" if passed else "FAIL"
    print(
        f"ACCEPTANCE {number}: {status} ({elapsed:.1f}s / budget {budget}s) {detail}"
    )
    assert passed, f"criterion {number} failed: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded budget"


def test_criterion_1_newman_vs_brute_force():
    start = time.monotonic()
    disagreements = []
    checked = 0
    for k in (2, 3, 4):
        for a in itertools.combinations(range(13), k):
            checked += 1
            rep = newman_tiles(a)
            diam = a[-1] - a[0]
            bound = min(2**diam if diam else 1, 4096)
            witness = brute_force_tile_period(a, bound)
            if rep.tiles != (witness is not None):
                disagreements.append(a)
    elapsed = time.monotonic() - start
    report(
        1,
        not disagreements,
        elapsed,
        60,
        f"{checked} sets, {len(disagreements)} disagreements",
    )


def test_criterion_2_unit3_round_trip():
    start = time.monotonic()
    failures = []
    count = 0
    for j, r, s in itertools.product(range(3), range(-2, 3), range(-2, 3)):
        count += 1
        omega, spectrum = construct_unit3_pair(j, r, s)
        rep = verify_spectral_pair(omega, spectrum, 12)
        a = 3**j * (3 * r + 1)
        b = 3**j * (3 * s + 2)
        ok = (
            rep.orthogonal
            and rep.completeness == "unitary"
            and newman_tiles([0, a, b]).tiles
        )
        if not ok:
            failures.append((j, r, s))
    elapsed = time.monotonic() - start
    report(2, not failures, elapsed, 30, f"{count} triples, failures={failures}")


def test_criterion_3_unit4_round_trip():
    start = time.monotonic()
    failures = []
    count = 0
    for l in (1, 2, 3):
        for r in (-3, -1, 1, 3):
            for s in (-3, -1, 1, 3):
                count += 1
                omega, spectrum = construct_unit4_pair(l, r, s)
                rep = verify_spectral_pair(omega, spectrum, 12)
                if not (rep.orthogonal and rep.completeness == "unitary"):
                    failures.append((l, r, s))
    # failing endpoint configurations: both even (split by equal or distinct
    # dyadic valuations) and both odd; all must be refuted
    refuted = [
        newman_tiles([0, 1, 2, 4]),  # a, b even with distinct valuations
        newman_tiles([0, 1, 2, 6]),  # a, b even with equal valuations
        newman_tiles([0, 1, 3, 5]),  # a, b odd
    ]
    bad = [r for r in refuted if r.tiles]
    elapsed = time.monotonic() - start
    report(
        3,
        not failures and not bad,
        elapsed,
        30,
        f"{count} triples, failures={failures}, refuted ok={not bad}",
    )


def _random_cover_runs(rng, d):
    # up to three runs of unit cells covering every residue class once
    while True:
        lengths = []
        remaining = d
        while remaining and len(lengths) < 3:
            take = rng.randint(1, remaining) if len(lengths) < 2 else remaining
            lengths.append(take)
            remaining -= take
        starts = [rng.randint(0, 3 * d) for _ in lengths]
        cells = sorted(
            c for st, ln in zip(starts, lengths) for c in range(st, st + ln)
        )
        if len(set(cells)) != d or sorted(c % d for c in cells) != list(range(d)):
            continue
        runs = []
        run_start = prev = cells[0]
        for c in cells[1:]:
            if c == prev + 1:
                prev = c
                continue
            runs.append((F(run_start), F(prev - run_start + 1)))
            run_start = prev = c
        runs.append((F(run_start), F(prev - run_start + 1)))
        if len(runs) <= 3:
            return runs


def test_criterion_4_progression_completion():
    start = time.monotonic()
    rng = random.Random(20240904)
    failures = 0
    for _ in range(500):
        d = rng.randint(1, 4)
        runs = _random_cover_runs(rng, d)
        omega = IntervalUnion.from_pieces(runs).scaled(F(1, d))
        shift = F(rng.randint(-6, 6), rng.choice([1, 2, 3]))
        omega = omega.translated(shift)
        assert omega.endpoint_denominator() <= 12
        if not ap_extension_check(omega, d, 50):
            failures += 1
        if not d_tiles(omega, d):
            failures += 1
    elapsed = time.monotonic() - start
    report(4, failures == 0, elapsed, 300, f"500 sets, {failures} counterexamples")


def test_criterion_5_pattern_analysis():
    start = time.monotonic()
    rng = random.Random(20240905)
    motifs = ("AA", "BB", "CC", "ABA", "BAB", "ACA", "CAC", "BCB", "CBC")
    bad = []
    triples = 0
    while triples < 200:
        q = rng.randint(5, 12)
        cuts = sorted(rng.sample(range(1, q), 2))
        lens = [
            F(cuts[0], q),
            F(cuts[1] - cuts[0], q),
            F(q - cuts[1], q),
        ]
        if F(1, 2) in lens or len(set(lens)) == 1:
            continue
        triples += 1
        patterns = pattern_search(lens, 4)
        for p in patterns:
            if p.labels not in ("ABCABCABCABC", "ACBACBACBACB"):
                bad.append((lens, p.labels))
            for motif in motifs:
                if motif_scan(p, motif):
                    bad.append((lens, p.labels, motif))
    elapsed = time.monotonic() - start
    report(5, not bad, elapsed, 300, f"200 triples, {len(bad)} violations")


def test_criterion_6_interaction_enumeration():
    start = time.monotonic()
    r22 = enumerate_type2_type2(30)
    r33 = enumerate_type3_type3(30)
    r32 = enumerate_type3_type2(30)
    ok = (
        r22.max_family == 3
        and r33.max_family == 3
        and r32.max_family <= 3
        and r22.assumption_filter
        and r33.assumption_filter
        and r32.assumption_filter
    )
    elapsed = time.monotonic() - start
    report(
        6,
        ok,
        elapsed,
        600,
        f"maxFamily: {r22.max_family}, {r33.max_family}, {r32.max_family}",
    )


def test_criterion_7_weight6_trichotomy():
    start = time.monotonic()
    rep = verify_weight6_classification(30)
    elapsed = time.monotonic() - start
    report(
        7,
        rep.ok and rep.counterexample is None,
        elapsed,
        600,
        f"{rep.checked} multisets, {rep.vanishing} vanishing",
    )


def _random_sum(rng):
    n = rng.randint(1, 60)
    return CycloSum.from_pairs(
        [
            (rng.randint(-5, 5), RootOfUnity(F(rng.randrange(n), n)))
            for _ in range(rng.randint(1, 6))
        ]
    )


def _planted_zero(rng):
    n = rng.choice([2, 3, 5, 7])
    rot = F(rng.randrange(60), 60)
    c = rng.randint(1, 5) * rng.choice([1, -1])
    terms = [(c, RootOfUnity(rot + F(j, n))) for j in range(n)]
    if rng.random() < 0.5:
        m = rng.choice([2, 3])
        rot2 = F(rng.randrange(60), 60)
        terms += [(rng.randint(1, 5), RootOfUnity(rot2 + F(j, m))) for j in range(m)]
    return CycloSum.from_pairs(terms)


def test_criterion_8_kernel_cross_check():
    start = time.monotonic()
    rng = random.Random(20240908)
    disagreements = 0
    zeros = 0
    for i in range(10_000):
        s = _planted_zero(rng) if i % 5 == 0 else _random_sum(rng)
        exact = s.is_zero()
        zeros += exact
        approx = abs(s.eval_complex())
        if exact != (approx < 1e-9):
            disagreements += 1
    elapsed = time.monotonic() - start
    report(
        8,
        disagreements == 0,
        elapsed,
        30,
        f"10000 sums ({zeros} exact zeros), {disagreements} disagreements",
    )
