"""Integer tiling (valuation criterion vs exact cover) and pattern search."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from spectile.errors import WorkLimitError
from spectile.ztiling import (
    MAX_PATTERN_WINDOW,
    MAX_REDUCED_DIAMETER,
    IntegerSet,
    TilePattern,
    TileWitness,
    _exact_cover,
    _min_rotation,
    _prime_power,
    brute_force_tile_period,
    motif_scan,
    newman_tiles,
    pattern_period,
    pattern_search,
)


def test_integer_set_normalization():
    a = IntegerSet((4, 0, 2))
    assert a.elements == (0, 2, 4)
    assert a.k == 3 and a.diameter == 4
    with pytest.raises(ValueError):
        IntegerSet((1, 1))
    assert IntegerSet.from_json_dict({"elements": ["0", "4", "2"]}).elements == (0, 2, 4)


def test_newman_examples():
    rep = newman_tiles([0, 4, 2])
    assert (rep.p, rep.alpha, rep.valuations, rep.tiles) == (3, 1, (0,), True)
    rep = newman_tiles([0, 1, 3, 5])
    assert (rep.p, rep.alpha, rep.valuations, rep.tiles) == (2, 2, (0, 1, 2), False)
    rep = newman_tiles([0, 1, 3, 2])
    assert (rep.p, rep.alpha, rep.valuations, rep.tiles) == (2, 2, (0, 1), True)


def test_newman_rejects_non_prime_power():
    with pytest.raises(ValueError):
        newman_tiles([0, 1, 2, 3, 4, 5])
    with pytest.raises(ValueError):
        newman_tiles([0])


def test_newman_json_shape():
    data = newman_tiles([0, 1, 3, 5]).to_json_dict()
    assert data == {"p": 2, "alpha": 2, "S": [0, 1, 2], "tiles": False}


def test_brute_force_examples():
    w = brute_force_tile_period([0, 1, 2, 3], 8)
    assert (w.period, w.translates) == (4, (0,))
    w = brute_force_tile_period([0, 2], 4)
    assert (w.period, w.translates) == (4, (0, 1))
    assert brute_force_tile_period([0, 1, 3, 5], 64) is None
    # witnesses actually tile: every residue covered once
    w = brute_force_tile_period([0, 4, 2], 64)
    assert w.period == 3 and w.translates == (0,)
    # the gcd rule: {0, 2} = 2 * {0, 1} has period 4, {0, 2, 4} period 3
    assert brute_force_tile_period([0, 2]).period == 4
    assert brute_force_tile_period([0, 2, 4]).period == 3


def brute_witness_is_cover(a, witness):
    m = witness.period
    hits = [0] * m
    for t in witness.translates:
        for x in a:
            hits[(x + t) % m] += 1
    return all(h == 1 for h in hits)


def test_brute_force_witness_validity():
    rng = random.Random(5)
    for _ in range(120):
        k = rng.choice([2, 3, 4])
        a = sorted(rng.sample(range(0, 11), k))
        w = brute_force_tile_period(a, 512)
        if w is not None:
            assert brute_witness_is_cover(a, w)


def test_translation_invariance_of_tiling():
    a = [0, 1, 3, 2]
    b = [10, 11, 13, 12]
    wa = brute_force_tile_period(a, 64)
    wb = brute_force_tile_period(b, 64)
    assert wa.period == wb.period


def test_newman_agrees_with_brute_force_small():
    rng = random.Random(6)
    for _ in range(150):
        k = rng.choice([2, 3, 4])
        a = sorted(rng.sample(range(0, 13), k))
        rep = newman_tiles(a)
        diam = a[-1] - a[0]
        bound = min(2**diam if diam else 1, 4096)
        w = brute_force_tile_period(a, bound)
        assert rep.tiles == (w is not None), a


def reference_exact_cover(residues, m):
    """First translate set T with residues (+) T = Z_m, branching on the
    smallest uncovered residue and trying translates in increasing order."""
    full = (1 << m) - 1
    chosen = []

    def mask_of(t):
        msk = 0
        for a in residues:
            msk |= 1 << ((a + t) % m)
        return msk

    def search(covered):
        if covered == full:
            return True
        s = ~covered & full
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


def reference_tile_period(a, m_max):
    """One exact cover of Z_m per period m = k, 2k, ..., m_max."""
    elements = tuple(x - min(a) for x in sorted(a))
    k = len(elements)
    for m in range(k, m_max + 1, k):
        residues = tuple(x % m for x in elements)
        if len(set(residues)) != k:
            continue
        t = reference_exact_cover(tuple(sorted(set(residues))), m)
        if t is not None:
            return TileWitness(m, t)
    return None


def test_iterative_exact_cover_matches_recursive():
    rng = random.Random(12)
    for _ in range(200):
        k = rng.randint(2, 5)
        a = sorted(rng.sample(range(12), k))
        for m in range(k, 49, k):
            residues = tuple(sorted({x % m for x in a}))
            if len(residues) == k:
                assert _exact_cover(residues, m) == reference_exact_cover(residues, m), (a, m)


def test_state_graph_matches_reference_on_criterion_1_sets():
    for k in (2, 3, 4):
        for a in itertools.combinations(range(13), k):
            diam = a[-1] - a[0]
            bound = min(2**diam if diam else 1, 4096)
            assert brute_force_tile_period(a, bound) == reference_tile_period(a, bound), a


def test_state_graph_matches_reference_on_random_sets():
    rng = random.Random(13)
    for _ in range(300):
        k = rng.randint(1, 8)
        diam = rng.randint(k - 1, 14)
        a = [0] if k == 1 else [0, diam] + rng.sample(range(1, diam), k - 2)
        for bound in (1, 2, 3, 4, 6, 8, 12, 16, 64):
            assert brute_force_tile_period(a, bound) == reference_tile_period(a, bound), (a, bound)


def test_state_graph_matches_reference_on_scaled_sets():
    for g in (2, 3, 4):
        for k in (2, 3, 4):
            for rest in itertools.combinations(range(1, 6), k - 1):
                if math.gcd(*rest) != 1:
                    continue
                a = [0] + [g * x for x in rest]
                assert brute_force_tile_period(a, 96) == reference_tile_period(a, 96), a


def test_two_point_sets_at_powers_of_two():
    for j in range(12):
        w = brute_force_tile_period([0, 2**j])
        assert w == TileWitness(2 ** (j + 1), tuple(range(2**j))), j
    # the minimal period 8192 is above the default bound
    assert brute_force_tile_period([0, 4096]) is None


def test_witness_memory_is_linear_in_the_period():
    # a big-integer snapshot of the cover per placed translate peaked at
    # 851 MB of resident memory on this set
    tracemalloc.start()
    try:
        w = brute_force_tile_period([0, 65536], 131082)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w == TileWitness(131072, tuple(range(65536)))
    assert peak < 20 * 2**20


def test_reduced_diameter_above_the_limit_is_refused():
    wide = MAX_REDUCED_DIAMETER + 1
    with pytest.raises(WorkLimitError, match=f"{wide}.*{MAX_REDUCED_DIAMETER}"):
        brute_force_tile_period([0, 1, wide])


def test_pattern_search_distinct_lengths():
    pats = pattern_search([Fraction(5, 12), Fraction(1, 3), Fraction(1, 4)], 3)
    assert sorted(p.labels for p in pats) == ["ABCABCABC", "ACBACBACB"]
    for p in pats:
        assert pattern_period(p) == 3


def test_pattern_search_equal_lengths_has_other_orders():
    pats = pattern_search([Fraction(1, 3)] * 3, 2)
    labels = {p.labels for p in pats}
    assert "ABCABC" in labels
    assert any(lab not in ("ABCABC", "ACBACB") for lab in labels)


def test_pattern_search_half_length_has_consecutive_a():
    pats = pattern_search([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)], 2)
    assert any(motif_scan(p, "AA") for p in pats)


def test_pattern_placements_partition_window():
    pats = pattern_search([Fraction(5, 12), Fraction(1, 3), Fraction(1, 4)], 2)
    for p in pats:
        by_label = dict(zip("ABC", p.lengths))
        cursor = Fraction(0)
        for off, lab in p.placements:
            assert off == cursor
            cursor += by_label[lab]
        assert cursor == p.window


def test_pattern_search_validates_input():
    with pytest.raises(ValueError):
        pattern_search([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)], Fraction(3, 2))
    with pytest.raises(ValueError):
        pattern_search([Fraction(1, 2), Fraction(1, 4), Fraction(1, 3)], 2)


def _reference_pattern_search(lengths, window):
    """The label-by-label search: sequences are enumerated left to right, and a
    branch dies as soon as the i-th A, B and C pieces stop sitting at one
    constant shift for every i.  Exponential in the window."""
    la, lb, lc = (Fraction(x) for x in lengths)
    n = int(window)
    by_label = {"A": la, "B": lb, "C": lc}

    found = set()
    counts = {"A": 0, "B": 0, "C": 0}
    pos = {"A": [], "B": [], "C": []}
    shifts = {"B": None, "C": None}
    seq = []

    def consistent(lab):
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

    def dfs(cursor):
        if len(seq) == 3 * n:
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

    dfs(Fraction(0))

    patterns = []
    for labels in sorted(found):
        placements = []
        cursor = Fraction(0)
        for lab in labels:
            placements.append((cursor, lab))
            cursor += by_label[lab]
        patterns.append(TilePattern(Fraction(n), (la, lb, lc), tuple(placements)))
    return tuple(patterns)


def _ordered_triples(q_max):
    """Every ordered triple of positive lengths summing to 1 with a common
    denominator at most q_max."""
    return sorted({
        (Fraction(a, q), Fraction(b, q), Fraction(q - a - b, q))
        for q in range(3, q_max + 1) for a in range(1, q) for b in range(1, q - a)
    })


@pytest.mark.parametrize("window", [1, 2, 3])
def test_pattern_search_matches_reference(window):
    triples = _ordered_triples(12)
    assert len(triples) == 196
    for lengths in triples:
        expected = _reference_pattern_search(lengths, window)
        got = pattern_search(lengths, window)
        assert [p.labels for p in got] == [p.labels for p in expected], lengths
        assert got == expected, lengths


def test_pattern_window_above_the_limit_is_refused():
    lengths = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]
    assert len(pattern_search(lengths, MAX_PATTERN_WINDOW)) > 0
    wide = MAX_PATTERN_WINDOW + 1
    with pytest.raises(WorkLimitError, match=f"{wide}.*{MAX_PATTERN_WINDOW}"):
        pattern_search(lengths, wide)


def test_motif_scan():
    pats = pattern_search([Fraction(5, 12), Fraction(1, 3), Fraction(1, 4)], 2)
    abc = next(p for p in pats if p.labels == "ABCABC")
    assert not motif_scan(abc, "AA")
    assert motif_scan(abc, "BCA")
    assert motif_scan(abc, "CAB")  # cyclic wrap
    assert not motif_scan(abc, "ABA")


def test_no_doubled_motifs_for_generic_lengths():
    rng = random.Random(8)
    triples = 0
    while triples < 40:
        q = rng.randint(5, 12)
        cuts = sorted(rng.sample(range(1, q), 2))
        lens = [Fraction(cuts[0], q), Fraction(cuts[1] - cuts[0], q), Fraction(q - cuts[1], q)]
        if Fraction(1, 2) in lens or len(set(lens)) == 1:
            continue
        triples += 1
        for p in pattern_search(lens, 3):
            for motif in ("AA", "BB", "CC", "ABA", "BAB", "ACA", "CAC", "BCB", "CBC"):
                assert not motif_scan(p, motif), (lens, p.labels, motif)


def test_prime_power_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    for k in range(1, 4097):
        factors = sympy.factorint(k)
        expected = next(iter(factors.items())) if len(factors) == 1 else None
        assert _prime_power(k) == expected, k
