"""Spectrum verification, constructions, pairings, progressions, rank cases."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from spectile import spectra
from spectile.cyclotomic import RootOfUnity
from spectile.errors import NoGoodPairingError, PreconditionError, WorkLimitError
from spectile.intervals import IntervalUnion, boundary_sum, d_tiles, in_zero_set
from spectile.spectra import (
    FiniteSpectrumWindow,
    PeriodicSet,
    SpectrumApReport,
    ap_extension_check,
    check_orthogonality,
    completeness_matrix,
    construct_half_pair,
    construct_unit3_pair,
    construct_unit4_pair,
    find_aps,
    good_pairing,
    half_pair_reduction_identity,
    rank_case,
    separation,
    spectrum_ap_extension,
    verify_spectral_pair,
)
from spectile.ztiling import newman_tiles
from test_intervals import random_union

F = Fraction


def test_periodic_set_basics():
    ps = PeriodicSet(F(1), (F(0), F(1, 3), F(2, 3)))
    assert ps.density == 3
    assert ps.contains(F(7, 3))
    assert not ps.contains(F(1, 2))
    pts = ps.points_in_window(2)
    assert pts[0] == -2 and pts[-1] == 2 and F(4, 3) in pts
    with pytest.raises(ValueError):
        PeriodicSet(F(1), (F(1, 3),))


def reference_points_in_window(pset, window):
    # Every coset shifted by k periods, k over the window's range and one
    # more each side, kept when inside [-window, window].
    w = F(window)
    out = []
    k_min = math.floor((-w) / pset.period) - 1
    k_max = math.ceil(w / pset.period) + 1
    for k in range(k_min, k_max + 1):
        for c in pset.cosets:
            x = c + k * pset.period
            if -w <= x <= w:
                out.append(x)
    return tuple(sorted(out))


def test_points_in_window_matches_the_shift_loop():
    rng = random.Random(29)
    for _ in range(2000):
        period = F(rng.randint(1, 30), rng.randint(1, 12))
        cosets = [F(0)] + [F(rng.randint(-50, 50), rng.randint(1, 12))
                           for _ in range(rng.randint(0, 4))]
        pset = PeriodicSet(period, tuple(cosets))
        below_a_period = period * F(rng.randint(0, 11), 12)
        for window in (F(0), below_a_period, F(rng.randint(1, 40), rng.randint(1, 12))):
            assert pset.points_in_window(window) == reference_points_in_window(pset, window)


def test_periodic_set_json():
    ps = PeriodicSet(F(1, 2), (F(0), F(1, 4)))
    data = ps.to_json_dict()
    assert data == {"period": ["1", "2"], "cosets": [["0", "1"], ["1", "4"]]}
    assert PeriodicSet.from_json_dict(data) == ps


def test_residues_mod_one():
    ps = PeriodicSet(F(1, 2), (F(0), F(1, 4)))
    assert ps.residues_mod_one() == (F(0), F(1, 4), F(1, 2), F(3, 4))


def test_orthogonality_simple_failure():
    om = IntervalUnion.from_pieces([(0, 1)])
    win = FiniteSpectrumWindow.from_points([0, F(1, 2)], 2)
    rep = check_orthogonality(om, win)
    assert not rep.orthogonal
    assert rep.violation == (F(0), F(1, 2))


def test_orthogonality_trivial_singleton():
    om = IntervalUnion.from_pieces([(0, 1)])
    win = FiniteSpectrumWindow.from_points([0], 2)
    assert check_orthogonality(om, win).orthogonal


def test_orthogonality_three_cells():
    om = IntervalUnion.from_unit_cells([0, 4, 2])
    ps = PeriodicSet(F(1), (F(0), F(1, 3), F(2, 3)))
    win = FiniteSpectrumWindow.from_periodic(ps, 3)
    assert check_orthogonality(om, win).orthogonal


def test_completeness_matrix_examples():
    assert completeness_matrix([0, 4, 2], [F(0), F(1, 3), F(2, 3)])
    assert completeness_matrix([0, 1], [F(0), F(1, 2)])
    assert not completeness_matrix([0, 2], [F(0), F(1, 3)])
    with pytest.raises(ValueError):
        completeness_matrix([0, 1], [F(0)])


def test_completeness_matrix_against_float_oracle():
    import cmath

    rng = random.Random(17)
    for _ in range(60):
        k = rng.choice([2, 3, 4])
        cells = sorted(rng.sample(range(0, 8), k))
        mus = sorted({F(rng.randrange(12), 12) for _ in range(k)})
        if len(mus) != k:
            continue
        exact = completeness_matrix(cells, mus)
        # float Gram matrix
        gram_ok = True
        for i in range(k):
            for j in range(i + 1, k):
                s = sum(
                    cmath.exp(2j * cmath.pi * float((mus[i] - mus[j]) * a))
                    for a in cells
                )
                if abs(s) > 1e-9:
                    gram_ok = False
        assert exact == gram_ok


def test_unit3_construction_examples():
    om, ps = construct_unit3_pair(0, 1, 0)
    assert [a for a, _ in om.pieces] == [0, 2, 4]
    assert ps.cosets == (F(0), F(1, 3), F(2, 3))
    om, ps = construct_unit3_pair(1, 0, 0)
    assert sorted([a for a, _ in om.pieces]) == [0, 3, 6]
    assert ps.cosets == (F(0), F(1, 9), F(2, 9))
    om, ps = construct_unit3_pair(0, 0, 0)
    assert om.measure == 3 and [a for a, _ in om.pieces] == [0, 1, 2]


def test_unit3_round_trip():
    for j, r, s in itertools.product(range(3), range(-2, 3), range(-2, 3)):
        om, ps = construct_unit3_pair(j, r, s)
        rep = verify_spectral_pair(om, ps, 12)
        assert rep.orthogonal and rep.completeness == "unitary"
        assert rep.density_matches
        a = 3**j * (3 * r + 1)
        b = 3**j * (3 * s + 2)
        assert newman_tiles([0, a, b]).tiles


def test_unit4_construction_examples():
    om, ps = construct_unit4_pair(1, 1, 1)
    assert [a for a, _ in om.pieces] == [0, 2, 3]
    assert ps.period == F(1, 2) and ps.cosets == (F(0), F(1, 4))
    om, ps = construct_unit4_pair(2, 1, 1)
    assert {a for a, _ in om.pieces} == {0, 5, 4}
    assert ps.cosets == (F(0), F(1, 8))
    om, ps = construct_unit4_pair(1, 1, 3)
    assert {a for a, _ in om.pieces} == {0, 3, 6}
    rep = verify_spectral_pair(om, ps, 12)
    assert rep.orthogonal and rep.completeness == "unitary"
    with pytest.raises(ValueError):
        construct_unit4_pair(1, 2, 1)
    with pytest.raises(ValueError):
        construct_unit4_pair(0, 1, 1)


def test_unit4_spectrum_density_matches_measure():
    om, ps = construct_unit4_pair(1, 1, 1)
    assert om.measure == 4
    assert ps.density == 4


def test_half_pair_examples():
    om, ps = construct_half_pair(1, 3, 1, F(1, 4))
    assert ps.period == 2 and ps.cosets == (F(0), F(1))
    rep = verify_spectral_pair(om, ps, 6)
    assert rep.orthogonal
    assert rep.completeness == "not-decided"
    assert rep.density_matches

    with pytest.raises(PreconditionError):
        construct_half_pair(2, 5, 1, F(1, 4))  # l not an integer
    with pytest.raises(PreconditionError):
        construct_half_pair(2, 4, 2, F(1, 4))  # k0 does not divide l


def test_half_pair_valid_variant():
    om, ps = construct_half_pair(2, 6, 2, F(1, 4))
    assert ps.cosets == (F(0), F(1, 2))
    rep = verify_spectral_pair(om, ps, 6)
    assert rep.orthogonal and rep.density_matches


def test_half_pair_reduction_identity():
    # differences of the candidate spectrum have lam*l integral
    for m in range(-3, 4):
        assert half_pair_reduction_identity(1, 3, 1, F(1, 4), 2 * m + 1)
        assert half_pair_reduction_identity(1, 3, 1, F(1, 4), 2 * m)


def test_good_pairing_examples():
    z = RootOfUnity(F(1, 5))
    w = RootOfUnity(F(1, 3))
    u = RootOfUnity(F(1, 7))
    pairing = good_pairing([z, z, w, w, u, u])
    assert pairing.pairs == ((0, 1), (2, 3), (4, 5))
    pairing = good_pairing([z, w, w, z, u, u])
    assert pairing.pairs == ((0, 3), (1, 2), (4, 5))
    with pytest.raises(NoGoodPairingError):
        good_pairing([z, z, z, w, w, w])


def test_good_pairing_matches_exhaustive_oracle():
    def oracle(zetas):
        # all ways to match even positions to odd positions
        for perm in itertools.permutations([1, 3, 5]):
            if all(zetas[e] == zetas[o] for e, o in zip([0, 2, 4], perm)):
                return True
        return False

    rng = random.Random(23)
    pool = [RootOfUnity(F(k, 6)) for k in range(6)]
    for _ in range(500):
        zetas = [rng.choice(pool) for _ in range(6)]
        try:
            pairing = good_pairing(zetas)
            ok = True
            for i, j in pairing.pairs:
                assert (i + j) % 2 == 1 and zetas[i] == zetas[j]
        except NoGoodPairingError:
            ok = False
        assert ok == oracle(zetas)


def test_separation_examples():
    assert separation([0, 1, 2]) == 1
    assert separation([0, F(1, 3), 1]) == F(1, 3)
    assert separation([0, F(1, 2), F(4, 5)]) == F(3, 10)
    with pytest.raises(ValueError):
        separation([1])


def test_find_aps_examples():
    pts = [0, 1, 2, 3, 4, 5, F(15, 2)]
    assert find_aps(pts, 6) == ((F(0), F(1), 6),)
    assert find_aps([0, 2, 4, 6], 4) == ((F(0), F(2), 4),)
    assert find_aps([0, 1, 3, 6, 10], 3) == ((F(0), F(3), 3),)


def ap_oracle(points, min_len):
    pts = sorted(points)
    ptset = set(pts)
    found = set()
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = pts[j] - pts[i]
            if pts[i] - d in ptset:
                continue
            length = 2
            x = pts[j] + d
            while x in ptset:
                length += 1
                x += d
            if length >= min_len:
                found.add((pts[i], d, length))
    return tuple(sorted(found))


def test_find_aps_against_oracle_and_reflection():
    rng = random.Random(31)
    for _ in range(200):
        pts = sorted(
            {F(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(rng.randint(2, 10))}
        )
        got = find_aps(pts, 3)
        assert got == ap_oracle(pts, 3)
        mirrored = find_aps([-p for p in pts], 3)
        assert len(mirrored) == len(got)
        for start, diff, length in got:
            assert (-(start + (length - 1) * diff), diff, length) in mirrored


def test_ap_extension_check():
    om = IntervalUnion.from_unit_cells([0, 4, 2]).scaled(F(1, 3))
    assert ap_extension_check(om, 1, 50)
    om1 = IntervalUnion.from_pieces([(0, 1)])
    assert ap_extension_check(om1, 1, 50)
    bad = IntervalUnion.from_pieces([(0, F(1, 2)), (F(3, 4), F(1, 2))])
    with pytest.raises(PreconditionError):
        ap_extension_check(bad, F(1, 2), 10)


def test_ap_extension_random_tilers():
    # random translate-structured sets satisfy the progression hypothesis
    rng = random.Random(37)
    count = 0
    while count < 40:
        d = rng.randint(1, 4)
        parts = _random_cover_runs(rng, d)
        if parts is None:
            continue
        om = IntervalUnion.from_pieces(parts).scaled(F(1, d))
        count += 1
        assert ap_extension_check(om, d, 50)
        assert d_tiles(om, d)


def _random_cover_runs(rng, d):
    # up to three runs of unit cells whose residues cover Z_d exactly once
    for _ in range(50):
        lengths = []
        remaining = d
        while remaining and len(lengths) < 3:
            take = rng.randint(1, remaining) if len(lengths) < 2 else remaining
            lengths.append(take)
            remaining -= take
        starts = [rng.randint(0, 3 * d) for _ in lengths]
        cells = sorted(
            c for s, ln in zip(starts, lengths) for c in range(s, s + ln)
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
        if len(runs) > 3:
            continue
        return runs
    return None


def test_spectrum_ap_extension():
    om = IntervalUnion.from_unit_cells([0, 4, 2]).scaled(F(1, 3))
    ps = PeriodicSet(F(1), (F(0),))
    win = FiniteSpectrumWindow.from_periodic(ps, 8)
    rep = spectrum_ap_extension(om, win, 0, 1)
    assert rep.holds

    om4, ps4 = construct_unit4_pair(1, 1, 1)
    win4 = FiniteSpectrumWindow.from_periodic(ps4, 6)
    assert spectrum_ap_extension(om4, win4, 0, 1).holds

    # a hole beyond the first six points is found with its witness
    pts = [x for x in win.points if x != 7]
    win_hole = FiniteSpectrumWindow.from_points(pts, 8)
    rep = spectrum_ap_extension(om, win_hole, 0, 1)
    assert not rep.holds and rep.witness == (F(7), None)

    with pytest.raises(PreconditionError):
        spectrum_ap_extension(om, FiniteSpectrumWindow.from_points([0, 1, 2], 8), 0, 1)


def test_rank_case_equal_cells():
    om = IntervalUnion.from_pieces([(0, F(1, 3)), (1, F(1, 3)), (2, F(1, 3))])
    rep = rank_case(om, 3, F(1, 3))
    assert rep.rank == 1 and rep.kind == "equal-cell-decomposition"
    l2, l3, k1, k2, k3, d_int = rep.witness
    assert (l2, l3) == (3, 6)
    assert (k1, k2, k3) == (1, 1, 1)
    assert k1 + k2 + k3 == d_int == 3


def test_rank_case_distinct_nodes():
    om = IntervalUnion.from_unit_cells([0, 4, 2]).scaled(F(1, 3))
    rep = rank_case(om, 2, 1)
    assert rep.rank == 3 and rep.kind == "forced-equalities"
    for i, j, _ in rep.witness:
        assert (i + j) % 2 == 1


def test_rank_case_two_nodes():
    om = IntervalUnion.from_pieces([(0, F(1, 2)), (F(1, 2), F(1, 4)), (F(3, 4), F(1, 4))])
    rep = rank_case(om, 2, 1)
    assert rep.rank == 2 and rep.kind == "paired-cancellation"
    assert len(rep.witness) >= 1


def test_rank_case_relabeling_invariance():
    pieces = [(0, F(1, 3)), (1, F(1, 3)), (2, F(1, 3))]
    base = rank_case(IntervalUnion.from_pieces(pieces), 3, F(1, 3))
    for perm in itertools.permutations(pieces):
        rep = rank_case(IntervalUnion.from_pieces(perm), 3, F(1, 3))
        assert rep.rank == base.rank and rep.witness == base.witness


def test_rank_case_preconditions():
    om = IntervalUnion.from_pieces([(0, F(1, 3)), (1, F(1, 3)), (2, F(1, 3))])
    with pytest.raises(PreconditionError):
        rank_case(om, 3, 3)  # lam inside dZ
    with pytest.raises(PreconditionError):
        rank_case(om, 3, F(1, 2))  # lam not in the zero set
    om2 = IntervalUnion.from_unit_cells([0, 4, 2]).scaled(F(1, 3))
    with pytest.raises(PreconditionError):
        rank_case(om2, 2, F(5, 2))  # kd - lam leaves the zero set


# ---------------------------------------------------------------------------
# the residue checks against the pairwise Fraction loops they replaced
# ---------------------------------------------------------------------------


def _reference_member(om):
    # unreduced and uncached: the boundary sum itself at every difference
    memo = {}

    def member(lam):
        if lam not in memo:
            memo[lam] = lam == 0 or boundary_sum(om, lam).is_zero()
        return memo[lam]

    return member


def reference_check_orthogonality(om, spectrum):
    member = _reference_member(om)
    pts = spectrum.points
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if not member(pts[j] - pts[i]):
                return False, (pts[i], pts[j])
    return True, None


def reference_ap_extension_check(om, d, window_k):
    member = _reference_member(om)
    d = F(d)
    if d <= 0:
        raise PreconditionError("d must be positive")
    for k in range(2 * len(om.pieces)):
        if not member(k * d):
            raise PreconditionError(f"progression point {k}*d is not in the zero set")
    for k in range(1, window_k + 1):
        if not member(k * d) or not member(-k * d):
            return False
    return True


def reference_spectrum_ap_extension(om, spectrum, a, d):
    member = _reference_member(om)
    a, d = F(a), F(d)
    if d <= 0:
        raise PreconditionError("d must be positive")
    pts = set(spectrum.points)
    for k in range(2 * len(om.pieces)):
        if a + k * d not in pts:
            raise PreconditionError(
                f"progression point a + {k}d is missing from the spectrum"
            )
    w = spectrum.window
    k = (-w - a) // d
    while a + k * d <= w:
        x = a + k * d
        k += 1
        if abs(x) > w:
            continue
        if x not in pts:
            return False, (x, None)
        for p in spectrum.points:
            if p != x and not member(x - p):
                return False, (x, p)
    return True, None


def _outcome(fn, *args):
    try:
        result = fn(*args)
    except PreconditionError as exc:
        return "raised", str(exc)
    if isinstance(result, SpectrumApReport):
        return result.holds, result.witness
    return result


def _family_cases():
    cases = [construct_unit3_pair(j, r, s) for j in (0, 1, 2) for r, s in ((0, 0), (1, 2))]
    cases += [construct_unit4_pair(l, r, s) for l in (1, 2, 3) for r, s in ((1, 1), (3, 1))]
    cases += [construct_half_pair(n, k, k0, r) for n, k, k0, r in (
        (1, 1, 1, F(1, 4)), (3, 9, 3, F(1, 3)), (2, 6, 2, F(1, 5)), (6, 18, 2, F(1, 6)))]
    return cases


def _random_points(rng, om, periods):
    """Multiples of q in a window of `periods` q's, plus a few extras.

    Most extras are in the zero set, hence orthogonal to every multiple of
    q, so a violation between two of them comes late in the scan.
    """
    q = om.endpoint_denominator()
    window = q * periods

    def extra():
        return F(rng.randint(-window * 12, window * 12), rng.randint(1, 12) * 12) % window

    points = {q * k for k in range(-periods, periods + 1)}
    for _ in range(rng.choice((0, 1, 2, 3))):
        x = extra()
        for _ in range(30 if rng.random() < 0.8 else 0):
            if boundary_sum(om, x).is_zero():
                break
            x = extra()
        points.add(x)
    return FiniteSpectrumWindow.from_points(points, window)


def _zero_set_extras(omega, pset):
    """Extra cosets in the zero set: orthogonal to 0 and to the lattice,
    so a violation (with another coset) comes late in a scan."""
    return [e for e in (pset.period * F(t, den) for den in range(2, 13)
                        for t in range(1, den))
            if e not in pset.cosets and boundary_sum(omega, e).is_zero()]


def test_check_orthogonality_matches_pairwise_loop():
    rng = random.Random(81)
    for omega, pset in _family_cases():
        inside = _zero_set_extras(omega, pset)
        extras = ((), (pset.period * F(rng.randrange(1, 9), 9),), tuple(inside[:2]))
        for window, extra in itertools.product((3, 6), extras):
            spec = FiniteSpectrumWindow.from_periodic(
                PeriodicSet(pset.period, pset.cosets + extra), window)
            rep = check_orthogonality(omega, spec)
            assert (rep.orthogonal, rep.violation) == reference_check_orthogonality(omega, spec)
    for _ in range(150):
        om = random_union(rng)
        spec = _random_points(rng, om, rng.choice((6, 12)))
        rep = check_orthogonality(om, spec)
        assert (rep.orthogonal, rep.violation) == reference_check_orthogonality(om, spec)


def test_ap_extension_check_matches_per_k_loop():
    rng = random.Random(82)
    unions = [om for om, _ in _family_cases()]
    unions += [random_union(rng) for _ in range(120)]
    unions += [IntervalUnion.from_pieces(_random_cover_runs(rng, d)).scaled(F(1, d))
               for d in (1, 2, 3, 4, 6) for _ in range(4)]
    for om in unions:
        for d in (F(1), F(2), F(1, 2), F(rng.randint(1, 12), rng.randint(1, 6))):
            window_k = rng.choice((1, 12, 50, 200))
            assert _outcome(ap_extension_check, om, d, window_k) == _outcome(
                reference_ap_extension_check, om, d, window_k)


def test_spectrum_ap_extension_matches_pairwise_loop():
    rng = random.Random(83)
    for omega, pset in _family_cases():
        inside = _zero_set_extras(omega, pset)[:1]
        for window in (4, 7):
            full = pset.points_in_window(window)
            for start in (c - 3 * pset.period for c in pset.cosets):
                for removed in (None, start + pset.period * rng.randint(6, 8)):
                    points = [p for p in full if p != removed]
                    extras = [pset.period * F(rng.randrange(1, 7), 7)]
                    extras += inside
                    if rng.random() < 0.5:
                        points.append(rng.choice(extras))
                    spec = FiniteSpectrumWindow.from_points(points, window)
                    for d in (pset.period, 2 * pset.period):
                        got = _outcome(spectrum_ap_extension, omega, spec, start, d)
                        assert got == _outcome(
                            reference_spectrum_ap_extension, omega, spec, start, d)
    for _ in range(80):
        om = random_union(rng)
        spec = _random_points(rng, om, 10)
        q = om.endpoint_denominator()
        start = q * rng.randint(-2, 0)
        d = rng.choice((q, q, 2 * q, F(q, rng.randint(1, 3))))
        if rng.random() < 0.3:
            hole = start + d * rng.randint(6, 12)
            spec = FiniteSpectrumWindow.from_points(
                [p for p in spec.points if p != hole], spec.window)
        got = _outcome(spectrum_ap_extension, om, spec, start, d)
        assert got == _outcome(reference_spectrum_ap_extension, om, spec, start, d)


# ---------------------------------------------------------------------------
# the integer window form against Fraction points
# ---------------------------------------------------------------------------


def reference_verify_spectral_pair(om, pset, window):
    # Fraction points from the shift loop, every pair in order, each
    # difference asked of in_zero_set: the first violation is named
    pts = reference_points_in_window(pset, window)
    member = {}
    for i, j in itertools.combinations(range(len(pts)), 2):
        diff = pts[j] - pts[i]
        if diff not in member:
            member[diff] = in_zero_set(om, diff)
        if not member[diff]:
            return False, (pts[i], pts[j])
    return True, None


def test_verify_spectral_pair_matches_the_fraction_reference():
    rng = random.Random(91)
    cases = [construct_unit3_pair(j, rng.randint(-2, 2), rng.randint(-2, 2))
             for j in (0, 1, 2) for _ in range(2)]
    cases += [construct_unit4_pair(l, rng.choice((-3, -1, 1, 3)), rng.choice((-1, 1, 3)))
              for l in (1, 2, 3) for _ in range(2)]
    cases += [construct_half_pair(n, k, k0, r) for n, k, k0, r in (
        (1, 1, 1, F(1, 4)), (3, 9, 3, F(1, 3)), (2, 6, 2, F(1, 5)), (6, 18, 2, F(1, 6)),
        (5, 15, 5, F(2, 7)))]
    checked = {True: 0, False: 0}
    for omega, pset in cases:
        v = rng.choice((5, 7, 11))
        perturbed = PeriodicSet(pset.period,
                                pset.cosets + (pset.period * F(rng.randrange(1, v), v),))
        windows = (12, 24, F(rng.randint(1, 60), rng.randint(1, 6)))
        for spectrum, window in itertools.product((pset, perturbed), windows):
            rep = verify_spectral_pair(omega, spectrum, window)
            assert rep.window == window
            expected = reference_verify_spectral_pair(omega, spectrum, window)
            assert (rep.orthogonal, rep.violation) == expected
            assert rep.density_matches == (spectrum.density == omega.measure)
            checked[rep.orthogonal] += 1
    assert checked[True] > 20 and checked[False] > 20


def test_from_points_sorts_and_deduplicates_to_the_periodic_window():
    rng = random.Random(92)
    for _ in range(200):
        period = F(rng.randint(1, 12), rng.randint(1, 6))
        cosets = [F(0)] + [F(rng.randint(-20, 20), rng.randint(1, 9))
                           for _ in range(rng.randint(0, 3))]
        pset = PeriodicSet(period, tuple(cosets))
        window = F(rng.randint(0, 30), rng.randint(1, 4))
        points = list(reference_points_in_window(pset, window))
        shuffled = points + rng.sample(points, len(points) // 2)
        rng.shuffle(shuffled)
        win = FiniteSpectrumWindow.from_points(shuffled, window)
        assert win == FiniteSpectrumWindow.from_periodic(pset, window)
        assert win.points == tuple(points)
        assert win.scale == math.lcm(window.denominator, *(p.denominator for p in points))
    with pytest.raises(ValueError, match="0 must belong to the point set"):
        FiniteSpectrumWindow.from_points([F(1, 2), 1], 2)
    with pytest.raises(ValueError, match=r"points must lie in \[-window, window\]"):
        FiniteSpectrumWindow.from_points([0, F(5, 2)], 2)


def test_scaled_window_counts_its_points_before_building_them(monkeypatch):
    rng = random.Random(93)
    for _ in range(300):
        period = F(rng.randint(1, 12), rng.randint(1, 6))
        cosets = [F(0)] + [F(rng.randint(-20, 20), rng.randint(1, 9))
                           for _ in range(rng.randint(0, 3))]
        pset = PeriodicSet(period, tuple(cosets))
        window = F(rng.randint(-3, 30), rng.randint(1, 4))
        count = len(reference_points_in_window(pset, window))
        monkeypatch.setattr(spectra, "MAX_WINDOW_POINTS", count)
        scale, ints = pset.scaled_window(window)
        assert tuple(F(x, scale) for x in ints) == reference_points_in_window(pset, window)
        if count:
            monkeypatch.setattr(spectra, "MAX_WINDOW_POINTS", count - 1)
            with pytest.raises(WorkLimitError, match=f"holds {count} points"):
                pset.scaled_window(window)


def test_a_window_beyond_the_point_limit_is_refused_at_once():
    pset = PeriodicSet(F(1), (F(0), F(1, 3), F(2, 3)))
    omega = IntervalUnion.from_unit_cells([0, 2, 4])
    for window in (10**9, 10**30):
        with pytest.raises(WorkLimitError, match=str(spectra.MAX_WINDOW_POINTS)):
            verify_spectral_pair(omega, pset, window)
    # points k/3 with |k| <= (MAX_WINDOW_POINTS - 1)/2: one below the limit
    reach = F(spectra.MAX_WINDOW_POINTS - 1, 6)
    assert len(pset.scaled_window(reach)[1]) == spectra.MAX_WINDOW_POINTS - 1


def test_ap_extension_check_beyond_the_k_limit_is_refused_before_its_loop(monkeypatch):
    omega = IntervalUnion.from_unit_cells([0, 2, 4])
    calls = []
    monkeypatch.setattr(spectra, "in_zero_set",
                        lambda om, lam: calls.append(lam) or in_zero_set(om, lam))
    with pytest.raises(WorkLimitError, match=str(spectra.MAX_AP_K)):
        ap_extension_check(omega, F(1, 3), spectra.MAX_AP_K + 1)
    assert calls == []
    assert ap_extension_check(omega, F(1, 3), 40)
    assert len(calls) == 2 * 3 + 2 * 40
