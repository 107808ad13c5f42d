"""Golden reports of the command line subcommands.

Each file under tests/golden/ holds, per case, the input, the exit status
and the report of one run.  The `ortho_*` and `ap_*` files were written once
from the Fraction-per-pair implementation of `ortho` and `ap`; the integer
residue checks must reproduce them byte for byte.  The `cli_*` files hold
full reports, `"config"` block included, of every subcommand, written from
the argparse tree that gave every subcommand every option; the parser that
declares only the options each subcommand reads must reproduce them.
"""

import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest

from spectile.cli import main
from spectile.intervals import IntervalUnion
from spectile.spectra import (
    FiniteSpectrumWindow,
    PeriodicSet,
    construct_half_pair,
    construct_unit3_pair,
    construct_unit4_pair,
    spectrum_ap_extension,
)

F = Fraction
GOLDEN = Path(__file__).resolve().parent / "golden"

UNIT3 = ((0, 0, 0), (0, 1, 2), (1, 0, 1), (1, 2, 0), (2, 1, 1))
UNIT4 = ((1, 1, 1), (1, 1, 3), (2, 1, 3), (2, 3, 1), (3, 1, 1))
HALF = ((1, 1, 1, F(1, 4)), (1, 3, 1, F(1, 3)), (3, 9, 3, F(1, 3)),
        (2, 6, 2, F(1, 5)), (6, 18, 2, F(1, 6)))


def _json(obj) -> str:
    return json.dumps(obj.to_json_dict())


def _ortho_cases(pairs):
    cases = []
    for label, (omega, pset) in pairs:
        for window in (12, 24):
            argv = ["ortho", "--omega", _json(omega), "--spectrum", _json(pset),
                    "--window", str(window)]
            cases.append((f"{label} w{window}", argv))
    return cases


def _perturbed():
    # one extra coset off each construction's lattice
    pairs = []
    for args in UNIT3:
        pairs.append((f"unit3 {args}", *construct_unit3_pair(*args), F(5, 7)))
    for i, args in enumerate(UNIT4):
        pairs.append((f"unit4 {args}", *construct_unit4_pair(*args), F(i + 1, 14)))
    for i, args in enumerate(HALF):
        pairs.append((f"half {args[:3]} r={args[3]}", *construct_half_pair(*args),
                      F(4 * i + 2, 11)))
    # extra cosets inside the zero set, so the first violation comes later
    for args, extra in (((0, 1, 2), F(1, 6)), ((1, 0, 1), F(5, 9)),
                        ((1, 2, 0), F(8, 9)), ((2, 1, 1), F(5, 27))):
        pairs.append((f"unit3 {args}", *construct_unit3_pair(*args), extra))
    for args, extra in (((2, 1, 3), F(3, 8)), ((3, 1, 1), F(5, 16))):
        pairs.append((f"unit4 {args}", *construct_unit4_pair(*args), extra))
    for args, extra in (((3, 9, 3, F(1, 3)), F(5, 3)), ((2, 6, 2, F(1, 5)), F(3, 2)),
                        ((6, 18, 2, F(1, 6)), F(5, 6))):
        pairs.append((f"half {args[:3]} r={args[3]}", *construct_half_pair(*args),
                      extra))
    return [(f"{label} + {extra}",
             (omega, PeriodicSet(pset.period, pset.cosets + (extra,))))
            for label, omega, pset, extra in pairs]


def _omega_json(pieces) -> str:
    return _json(IntervalUnion.from_pieces(pieces))


# Sets with and without the progression hypothesis, including a set whose
# measure is not 1 and a fractional difference.
AP_SETS = (
    ([(0, F(1, 3)), (F(4, 3), F(1, 3)), (F(2, 3), F(1, 3))], ("1", "2", "3")),
    ([(F(1, 2), F(1, 2)), (F(5, 2), F(1, 2))], ("1", "2", "4")),
    ([(F(-5, 4), F(1, 4)), (F(1, 4), F(2, 4)), (F(7, 4), F(1, 4))], ("1", "4")),
    ([(0, F(1, 5)), (F(6, 5), F(2, 5)), (F(13, 5), F(2, 5))], ("1", "5")),
    ([(0, 1), (2, 1)], ("1", "2", "1/2")),
    ([(0, F(1, 2)), (F(3, 4), F(1, 2))], ("1/2", "1", "2")),
    ([(F(1, 7), F(2, 7)), (F(5, 7), F(3, 7)), (F(11, 7), F(2, 7))], ("1", "7")),
    ([(0, F(1, 3)), (F(1, 2), F(1, 6)), (F(5, 3), F(1, 2))], ("1", "6")),
)


def _ap_cases():
    cases = []
    for pieces, diffs in AP_SETS:
        for d in diffs:
            argv = ["ap", "--omega", _omega_json(pieces), "--difference", d,
                    "--K", "50"]
            cases.append((f"{pieces} d={d}", argv))
    return cases


def _ap_spectrum_cases():
    cases = []
    members = [construct_unit3_pair(*a) for a in UNIT3[:3]]
    members += [construct_unit4_pair(*a) for a in UNIT4[:3]]
    for i, (omega, pset) in enumerate(members):
        for start in pset.cosets:
            argv = ["ap", "--omega", _json(omega), "--spectrum", _json(pset),
                    "--start", str(start), "--difference", str(pset.period),
                    "--window", "12"]
            cases.append((f"member {i} start {start}", argv))
        # an extra coset: the progression is present, orthogonality fails
        extra = PeriodicSet(pset.period, pset.cosets + (pset.period * F(3, 7),))
        argv = ["ap", "--omega", _json(omega), "--spectrum", _json(extra),
                "--start", "0", "--difference", str(pset.period), "--window", "12"]
        cases.append((f"member {i} extra coset", argv))
    return cases


def _removed_point_cases():
    # a + kd with k beyond the first 2n points removed from the window
    cases = []
    members = [construct_unit3_pair(*a) for a in UNIT3]
    members += [construct_unit4_pair(*a) for a in UNIT4]
    for i, (omega, pset) in enumerate(members):
        for window in (12, 24):
            start = pset.cosets[-1]
            removed = start + pset.period * (6 + i % 5)
            full = pset.points_in_window(window)
            points = tuple(p for p in full if p != removed)
            cases.append((f"member {i} w{window} without {removed}",
                          (omega, FiniteSpectrumWindow.from_points(points, window),
                           start, pset.period)))
    return cases


def _cases(*argvs):
    return [(" ".join(argv), list(argv)) for argv in argvs]


def _criterion_1_cases():
    # every set of criterion 1, with the acceptance test's period cap
    cases = []
    for k in (2, 3, 4):
        for a in itertools.combinations(range(13), k):
            diam = a[-1] - a[0]
            cases.append(["tile-search", "--set", ",".join(map(str, a)),
                          "--m-max", str(min(2**diam, 4096))])
    return _cases(*cases)


_RANK_UNIT3 = IntervalUnion.from_pieces([(0, 1), (1, 1), (2, 1)]).scaled(F(1, 3))
_RANK_UNIT3B = construct_unit3_pair(1, 0, 1)[0].scaled(F(1, 3))
_RANK_UNIT4 = construct_unit4_pair(1, 1, 1)[0].scaled(F(1, 4))
_SIX_TERMS = json.dumps({"terms": [[1, "1/5"], [1, "2/5"], [1, "3/5"], [1, "4/5"],
                                   [1, "5/6"], [1, "1/6"]]})
_PAIR_TERMS = json.dumps({"terms": [[1, "0"], [-1, "0"], [1, "1/3"], [-1, "1/3"],
                                    [1, "1/7"], [-1, "1/7"]]})
_UNIT3_OMEGA, _UNIT3_SPECTRUM = map(_json, construct_unit3_pair(0, 1, 2))
_UNIT4_OMEGA, _UNIT4_SPECTRUM = map(_json, construct_unit4_pair(2, 1, 3))
_THREE = _omega_json([(0, F(1, 3)), (F(4, 3), F(1, 3)), (F(2, 3), F(1, 3))])
_ZEROSET = _omega_json([(0, 1), (4, 1), (2, 1)])
_FAR = _omega_json([(0, F(1, 2)), (2, F(1, 3))])


CLI_CASES = {
    "cli_newman": _cases(
        ["newman", "--set", "0,1,3,5"],
        ["newman", "--set", "0,4,2"],
        ["newman", "--set", "0,1,2,3,4,5,6,7"],
        ["newman", "--set", '{"elements": ["0", "9", "18"]}'],
        ["newman", "--set", "{}"]),
    "cli_tile_search": _cases(
        ["tile-search", "--set", "0,1,3,2"],
        ["tile-search", "--set", "0,64"],
        ["tile-search", "--set", "0,1,3,5", "--m-max", "64"],
        ["tile-search", "--set", "0,1,64"]) + _criterion_1_cases(),
    "cli_pattern": _cases(
        ["pattern", "--lengths", "5/12,1/3,1/4", "--window", "2", "--motif", "AA"],
        ["pattern", "--lengths", "1/3,1/3,1/3", "--window", "3", "--motif", "ABC"],
        ["pattern", "--lengths", "1/2,1/4,1/4", "--window", "5/2"],
        ["pattern", "--lengths", "1/2,1/3,1/6", "--window", "2"]),
    "cli_zeroset": _cases(
        ["zeroset", "--omega", _ZEROSET, "--frequency", "1/3"],
        ["zeroset", "--omega", _ZEROSET, "--frequency", "1/2"],
        ["zeroset", "--omega", _FAR, "--frequency", "1/100003"],
        ["zeroset", "--omega", _FAR, "--frequency", "1/1000000016000000063"],
        ["zeroset", "--omega", "{oops", "--frequency", "1"]),
    "cli_ortho": _cases(
        ["ortho", "--omega", _UNIT3_OMEGA, "--spectrum", _UNIT3_SPECTRUM],
        ["ortho", "--omega", _UNIT4_OMEGA, "--spectrum", _UNIT4_SPECTRUM,
         "--window", "7/2"],
        ["ortho", "--omega", _UNIT3_OMEGA, "--spectrum", _UNIT4_SPECTRUM],
        ["ortho", "--omega", _UNIT3_OMEGA, "--spectrum", '{"period":["1","1"]}']),
    "cli_complete": _cases(
        ["complete", "--set", "0,4,2", "--mu", "0,1/3,2/3"],
        ["complete", "--set", "0,2", "--mu", "0,1/3"],
        ["complete", "--set", "0,1,4,5", "--mu", "0,1/8,1/2,5/8"]),
    "cli_construct": _cases(
        ["construct", "--family", "unit3", "--j", "1", "--r", "2", "--s", "0"],
        ["construct", "--family", "unit4"],
        ["construct", "--family", "half", "--n", "3", "--k", "9", "--k0", "3",
         "--piece-length", "1/3"],
        ["construct", "--family", "half", "--n", "2", "--k", "5", "--k0", "1"]),
    "cli_ap": _cases(
        ["ap", "--omega", _THREE, "--difference", "1"],
        ["ap", "--omega", _THREE, "--difference", "2", "--K", "7"],
        ["ap", "--omega", _UNIT3_OMEGA, "--spectrum", _UNIT3_SPECTRUM,
         "--difference", "1"],
        ["ap", "--omega", _UNIT4_OMEGA, "--spectrum", _UNIT4_SPECTRUM,
         "--start", "1/2", "--difference", "1", "--window", "6"]),
    "cli_rank": _cases(
        ["rank", "--omega", _json(_RANK_UNIT3), "--difference", "3",
         "--frequency", "1/3"],
        ["rank", "--omega", _json(_RANK_UNIT3B), "--difference", "3",
         "--frequency", "1/3"],
        ["rank", "--omega", _json(_RANK_UNIT4), "--difference", "2",
         "--frequency", "1"],
        ["rank", "--omega", _UNIT3_OMEGA, "--difference", "3", "--frequency", "1"]),
    "cli_vansum_classify": _cases(
        ["vansum-classify", "--vector", _SIX_TERMS],
        ["vansum-classify", "--vector", _PAIR_TERMS],
        ["vansum-classify", "--omega", _THREE, "--frequency", "3/2"],
        ["vansum-classify", "--omega", _THREE],
        ["vansum-classify", "--vector", "{}"]),
    "cli_vansum_enum": _cases(
        ["vansum-enum", "--pair", "type2", "--order", "12"],
        ["vansum-enum", "--pair", "type3", "--order", "30", "--no-assumption"],
        ["vansum-enum", "--pair", "mixed", "--order", "30"],
        ["vansum-enum", "--pair", "type2", "--order", "0"]),
    "cli_verify_weight6": _cases(
        ["verify-weight6", "--order", "6"],
        ["verify-weight6", "--order", "30"],
        ["verify-weight6", "--order", "-1"]),
    "ortho_unit3": _ortho_cases(
        (f"unit3 {a}", construct_unit3_pair(*a)) for a in UNIT3),
    "ortho_unit4": _ortho_cases(
        (f"unit4 {a}", construct_unit4_pair(*a)) for a in UNIT4),
    "ortho_half": _ortho_cases(
        (f"half {a[:3]} r={a[3]}", construct_half_pair(*a)) for a in HALF),
    "ortho_perturbed": _ortho_cases(_perturbed()),
    "ap_k50": _ap_cases(),
    "ap_spectrum": _ap_spectrum_cases(),
}


def render_cli(name: str, tmp_path: Path) -> bytes:
    out = tmp_path / "report.json"
    doc = {}
    for label, argv in CLI_CASES[name]:
        code = main(["--output", str(out), *argv])
        doc[label] = {"argv": argv, "exit": code,
                      "report": json.loads(out.read_text(encoding="utf-8"))}
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


def render_removed_point() -> bytes:
    doc = {}
    for label, (omega, window, start, diff) in _removed_point_cases():
        doc[label] = {
            "omega": omega.to_json_dict(),
            "start": str(start),
            "difference": str(diff),
            "report": spectrum_ap_extension(omega, window, start, diff).to_json_dict(),
        }
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_reports_match_golden(name, tmp_path):
    assert render_cli(name, tmp_path) == (GOLDEN / f"{name}.json").read_bytes()


def test_ap_spectrum_with_a_point_removed_matches_golden():
    golden = (GOLDEN / "ap_spectrum_point_removed.json").read_bytes()
    assert render_removed_point() == golden
