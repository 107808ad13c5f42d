"""Tests of the benchmark itself: its checks and its span recorder.

Each check must pass the program's real result and must count the operation
as failed when handed a deliberately wrong verdict or witness.
"""

import dataclasses
import json
from dataclasses import replace
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MODS = run.load_program()


def failures(ops, results):
    """Failed-operation count when one round produced these results."""
    failed, _ = run.judge(ops, [{"results": results}], MODS)
    return failed


def first_ops(workload, check, count=1, skip=()):
    ops = workloads.build(workload, MODS, seed=7)
    picked = [op for op in ops if op.check == check and op.kind not in skip]
    return picked[:count]


def real(op):
    return run.run_op(MODS, op, None)


def tiling_pair(ops, i):
    """The Newman / brute-force operations on one set, re-indexed as a pair."""
    return [dataclasses.replace(ops[i + k], info={**ops[i + k].info, "partner": 1 - k})
            for k in (0, 1)]


# --- span recorder ---------------------------------------------------------------


def test_self_time_is_span_minus_children():
    ticks = iter([0, 10, 40, 50, 55, 100])
    rec = spans.SpanRecorder(clock=lambda: next(ticks))

    def child():
        return None

    def parent():
        rec.call("child", child, (), {})
        rec.call("child", child, (), {})
        return None

    rec.call("parent", parent, (), {})
    # parent spans 0..100 with children 10..40 and 50..55
    assert rec.self_ns["parent"] == 100 - 30 - 5
    assert rec.self_ns["child"] == 35
    assert rec.max_ns["child"] == 30
    assert rec.calls == {"parent": 1, "child": 2}
    assert [s[3] for s in rec.spans] == [-1, 0, 0]


def test_install_wraps_every_holder_and_restores():
    rec = spans.SpanRecorder()
    original = MODS["intervals"].in_zero_set
    restore = spans.install(rec, MODS)
    try:
        assert MODS["spectra"].in_zero_set is MODS["intervals"].in_zero_set
        assert MODS["spectra"].in_zero_set is not original
        omega = MODS["intervals"].IntervalUnion.from_unit_cells((0, 1, 3))
        MODS["spectra"].ap_extension_check(omega, 4, 3)
    finally:
        restore()
    assert MODS["spectra"].in_zero_set is original is MODS["intervals"].in_zero_set
    assert rec.calls["intervals.in_zero_set"] == 2 * 3 + 2 * 3
    assert rec.calls["spectra.ap_extension_check"] == 1
    metrics = spans.layer_metrics(rec, 1)
    assert metrics["intervals.in_zero_set.calls"] == 12
    assert metrics["spectra.ap_extension_check.self_ms"] > 0


# --- checks: wrong verdicts and witnesses fail ----------------------------------


def cli_text(result, edit):
    status, text = result
    report = json.loads(text)
    status = edit(report, status)
    return status, json.dumps(report)


SPECTRAL_SKIP = ("level_function.q10000", "level_function.q100000")


@pytest.mark.parametrize("check, mutate", [
    ("spectral_pair", lambda r: replace(r, orthogonal=not r.orthogonal)),
    ("spectral_pair", lambda r: replace(r, completeness="not-unitary")),
    ("spectral_pair", lambda r: replace(r, density_matches=not r.density_matches)),
    ("level_function", lambda r: replace(r, values=(r.values[0] + 1,) + r.values[1:])),
    ("level_function", lambda r: replace(r, cell_width=r.cell_width / 2)),
    ("d_tiles", lambda r: not r),
    ("ap_extension", lambda r: not r if isinstance(r, bool) else True),
    ("spectrum_ap", lambda r: replace(r, holds=not r.holds,
                                      witness=None if r.witness else (F(0), F(1, 3)))),
    ("rank", lambda r: replace(r, rank=r.rank % 3 + 1)),
    ("rank", lambda r: replace(r, witness=("within-pairs",) if r.rank == 2 else (0,) * 6)),
    ("cli_construct", lambda r: cli_text(r, lambda rep, s: rep["omega"]["pieces"].pop() and s)),
    ("cli_ortho", lambda r: cli_text(r, lambda rep, s: 1 - s)),
    ("cli_ap", lambda r: cli_text(r, lambda rep, s: rep.update(tiles=not rep["tiles"]) or s)),
    ("cli_ap_spectrum", lambda r: cli_text(r, lambda rep, s: rep.update(holds=False) or 1)),
    ("cli_rank", lambda r: cli_text(r, lambda rep, s: rep.update(rank=3) or s)),
])
def test_spectral_checks_reject_wrong_results(check, mutate):
    (op,) = first_ops("spectral_pairs", check, skip=SPECTRAL_SKIP)
    result = real(op)
    assert failures([op], [result]) == 0
    assert failures([op], [mutate(result)]) == 1


def test_violation_must_be_a_real_nonzero():
    ops = workloads.build("spectral_pairs", MODS, seed=7)
    op = next(o for o in ops if o.kind.startswith("ortho.perturbed"))
    rep = real(op)
    assert not rep.orthogonal and failures([op], [rep]) == 0
    assert failures([op], [replace(rep, violation=(F(0), F(1)))]) == 1


def test_newman_and_brute_force_must_agree():
    ops = workloads.build("tiling_search", MODS, seed=7)
    i = next(i for i, op in enumerate(ops)
             if op.check == "newman" and len(op.info["set"]) == 3
             and not MODS["ztiling"].newman_tiles(op.info["set"]).tiles
             and op.info["set"][-1] - op.info["set"][0] < 8)
    pair = tiling_pair(ops, i)
    newman, brute = real(pair[0]), real(pair[1])
    assert failures(pair, [newman, brute]) == 0
    # a wrong "tiles" verdict also makes the partner's agreement fail
    assert failures(pair, [replace(newman, tiles=True), brute]) == 2


def test_tiling_witness_is_counted_directly():
    ops = workloads.build("tiling_search", MODS, seed=7)
    i = next(i for i, op in enumerate(ops)
             if op.check == "newman" and MODS["ztiling"].newman_tiles(op.info["set"]).tiles)
    pair = tiling_pair(ops, i)
    newman, brute = real(pair[0]), real(pair[1])
    assert failures(pair, [newman, brute]) == 0
    bad = replace(brute, period=brute.period + 1)
    assert failures(pair, [newman, bad]) == 1


@pytest.mark.parametrize("check, mutate", [
    ("patterns", lambda r: r[:-1] if len(r) > 1 else ()),
    ("cli_newman", lambda r: cli_text(r, lambda rep, s: rep.update(tiles=not rep["tiles"]) or s)),
    ("cli_tile_search", lambda r: cli_text(r, lambda rep, s: rep.update(found=not rep["found"]) or s)),
    ("cli_pattern", lambda r: cli_text(r, lambda rep, s: rep.update(motifHits=["X"]) or s)),
])
def test_tiling_checks_reject_wrong_results(check, mutate):
    (op,) = first_ops("tiling_search", check)
    result = real(op)
    assert failures([op], [result]) == 0
    assert failures([op], [mutate(result)]) == 1


def test_patterns_outside_criterion_5_fail():
    (op,) = first_ops("tiling_search", "patterns")
    pats = real(op)
    ptype = type(pats[0])
    lengths = op.info["lengths"]
    n = op.info["window"]
    labels = "BAC" * n
    by = dict(zip("ABC", lengths))
    placements, cursor = [], F(0)
    for lab in labels:
        placements.append((cursor, lab))
        cursor += by[lab]
    odd = ptype(F(n), lengths, tuple(placements))
    assert failures([op], [pats + (odd,)]) == 1


@pytest.mark.parametrize("kind", ["classify.type1", "classify.type2", "classify.type3",
                                  "classify.none"])
def test_classify_rejects_wrong_tags_and_witnesses(kind):
    ops = workloads.build("vanishing_sums", MODS, seed=7)
    op = next(o for o in ops if o.kind == kind)
    tag = real(op)
    assert failures([op], [tag]) == 0
    other = "type1" if tag.tag != "type1" else "type2"
    assert failures([op], [replace(tag, tag=other)]) == 1
    if tag.witness is not None:
        wrong = {"type1": ((0, 2), (1, 3), (4, 5)), "type2": ((0, 2, 4), (1, 3, 5))}
        bad = wrong.get(tag.tag, (tag.witness[0], (0, 1, 2, 4), (3, 5)))
        if bad != tag.witness:
            assert failures([op], [replace(tag, witness=bad)]) == 1


def test_enumeration_rejects_wrong_family():
    op = workloads.Op("e", "vansum.enumerate_type2_type2", (12,), "enumeration", {"order": 12})
    rep = real(op)
    assert failures([op], [rep]) == 0
    assert failures([op], [replace(rep, max_family=4)]) == 1
    witness = rep.family_witness
    bad = witness[:2] + (("1/12",) + witness[2][1:],)
    assert failures([op], [replace(rep, family_witness=bad)]) == 1


def test_weight6_rejects_wrong_counts():
    op = workloads.Op("w", "vansum.verify_weight6_classification", (10,), "weight6", {"order": 10})
    rep = real(op)
    assert failures([op], [rep]) == 0
    assert failures([op], [replace(rep, checked=rep.checked - 1)]) == 1
    assert failures([op], [replace(rep, vanishing=rep.vanishing + 1)]) == 1


@pytest.mark.parametrize("check, mutate", [
    ("cli_vansum_classify", lambda r: cli_text(r, lambda rep, s: rep.update(tag="type3") or s)),
    ("cli_weight6", lambda r: cli_text(r, lambda rep, s: rep.update(checked=1) or s)),
])
def test_vansum_cli_checks_reject_wrong_results(check, mutate):
    (op,) = first_ops("vanishing_sums", check)
    result = real(op)
    assert failures([op], [result]) == 0
    assert failures([op], [mutate(result)]) == 1


@pytest.mark.parametrize("kind", ["is_zero.order_le_60", "is_zero.order_61_1024"])
def test_kernel_verdicts_are_checked_by_value(kind):
    ops = workloads.build("cyclo_kernel", MODS, seed=7)
    for op in [o for o in ops if o.kind == kind][:6]:
        verdict = real(op)
        assert failures([op], [verdict]) == 0
        assert failures([op], [not verdict]) == 1


@pytest.mark.parametrize("check", ["cli_zeroset", "cli_complete"])
def test_kernel_cli_exit_status_must_match(check):
    (op,) = first_ops("cyclo_kernel", check)
    status, text = real(op)
    assert failures([op], [(status, text)]) == 0
    assert failures([op], [(1 - status, text)]) == 1


def test_floats_only_in_numeric_cross_check():
    (op,) = first_ops("cyclo_kernel", "cli_zeroset")
    result = real(op)
    assert failures([op], [cli_text(result, lambda rep, s: rep.update(extra=0.5) or s)]) == 1


def test_exceptions_fail_unless_expected():
    (op,) = first_ops("spectral_pairs", "spectral_pair")
    assert failures([op], [RuntimeError("boom")]) == 1
    (op,) = first_ops("spectral_pairs", "ap_extension", count=1)
    assert failures([op], [ValueError("d must be positive")]) == 1


def test_later_rounds_are_judged_when_they_differ():
    (op,) = first_ops("cyclo_kernel", "is_zero")
    verdict = real(op)
    rounds = [{"results": [verdict]}, {"results": [verdict]}, {"results": [not verdict]}]
    assert run.judge([op], rounds, MODS)[0] == 1
