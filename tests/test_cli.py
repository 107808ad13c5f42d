"""Command line interface: subcommands, exit codes, determinism."""

import argparse
import json
import subprocess
import sys
import time

import pytest

from spectile import spectra, vansum, ztiling
from spectile.cli import build_parser, main, run
from spectile.errors import ClassificationError, InvariantError


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_newman_subcommand(capsys):
    code, rep = run_cli(["newman", "--set", "0,1,3,5"], capsys)
    assert code == 0
    assert rep["tiles"] is False
    assert rep["S"] == [0, 1, 2]


def test_tile_search_found_and_absent(capsys):
    code, rep = run_cli(["tile-search", "--set", "0,1,3,2", "--m-max", "64"], capsys)
    assert code == 0 and rep["found"] and rep["period"] == 4
    code, rep = run_cli(["tile-search", "--set", "0,1,3,5", "--m-max", "64"], capsys)
    assert code == 0 and not rep["found"]


@pytest.mark.parametrize(
    "elements, period",
    [("0,64", 128), ("0,2048", 4096), ("0,4096", None)],
)
def test_tile_search_two_point_sets_answer_at_once(elements, period, capsys):
    start = time.monotonic()
    code, rep = run_cli(["tile-search", "--set", elements], capsys)
    assert time.monotonic() - start < 1
    assert code == 0 and rep["found"] is (period is not None)
    if period is not None:
        assert rep["period"] == period
        assert rep["translates"] == list(range(period // 2))


def test_tile_search_beyond_the_work_limit_is_an_input_error(capsys):
    start = time.monotonic()
    code, rep = run_cli(["tile-search", "--set", "0,1,64"], capsys)
    assert time.monotonic() - start < 1
    assert code == 2 and "64" in rep["error"]


def test_pattern_subcommand(capsys):
    code, rep = run_cli(
        ["pattern", "--lengths", "5/12,1/3,1/4", "--window", "2", "--motif", "AA"],
        capsys,
    )
    assert code == 0
    assert sorted(p["labels"] for p in rep["patterns"]) == ["ABCABC", "ACBACB"]
    assert rep["motifHits"] == []


def test_pattern_at_the_default_window_answers(capsys):
    start = time.monotonic()
    code, rep = run_cli(["pattern", "--lengths", "1/2,1/3,1/6"], capsys)
    assert time.monotonic() - start < 5
    assert code == 0 and rep["config"]["window"] == "12"
    assert len(rep["patterns"]) == 12


def test_pattern_window_beyond_the_work_limit_is_an_input_error(capsys):
    wide = str(ztiling.MAX_PATTERN_WINDOW + 1)
    start = time.monotonic()
    argv = ["pattern", "--lengths", "1/2,1/3,1/6", "--window", wide]
    code, rep = run_cli(argv, capsys)
    assert time.monotonic() - start < 1
    assert code == 2 and wide in rep["error"]


def test_zeroset_exit_codes(capsys):
    omega = json.dumps(
        {"pieces": [[["0", "1"], ["1", "1"]], [["4", "1"], ["1", "1"]], [["2", "1"], ["1", "1"]]]}
    )
    code, rep = run_cli(["zeroset", "--omega", omega, "--frequency", "1/3"], capsys)
    assert code == 0 and rep["inZeroSet"]
    code, rep = run_cli(["zeroset", "--omega", omega, "--frequency", "1/2"], capsys)
    assert code == 1 and not rep["inZeroSet"]
    assert rep["numericCrossCheck"] > 1e-9


def test_construct_then_ortho_pipeline(tmp_path, capsys):
    pair_file = tmp_path / "pair.json"
    code = main(
        [
            "--output",
            str(pair_file),
            "construct",
            "--family",
            "unit3",
            "--j",
            "0",
            "--r",
            "1",
            "--s",
            "0",
        ]
    )
    assert code == 0
    code, rep = run_cli(
        ["ortho", "--input", str(pair_file), "--window", "12"], capsys
    )
    assert code == 0
    assert rep["orthogonal"] is True
    assert rep["completeness"] == "unitary"


def test_construct_rejects_bad_parameters(capsys):
    code = main(["construct", "--family", "half", "--n", "2", "--k", "5", "--k0", "1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert "error" in out


def test_complete_subcommand(capsys):
    code, rep = run_cli(["complete", "--set", "0,4,2", "--mu", "0,1/3,2/3"], capsys)
    assert code == 0 and rep["complete"]
    code, rep = run_cli(["complete", "--set", "0,2", "--mu", "0,1/3"], capsys)
    assert code == 1 and not rep["complete"]


def test_ap_subcommand(capsys):
    omega = json.dumps(
        {
            "pieces": [
                [["0", "3"], ["1", "3"]],
                [["4", "3"], ["1", "3"]],
                [["2", "3"], ["1", "3"]],
            ]
        }
    )
    code, rep = run_cli(
        ["ap", "--omega", omega, "--difference", "1", "--K", "50"], capsys
    )
    assert code == 0 and rep["holds"] and rep["tiles"]


def test_ap_input_file_with_a_spectrum_checks_the_spectrum(tmp_path, capsys):
    # the file holds {0,1,2} + [0,1/3) and 3Z + {0,1/3,2/3}: the report is the
    # spectrum's AP extension, as with --spectrum inline, not the --K check
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"omega": json.loads(_THIRDS),
                                "spectrum": json.loads(_THIRDS_SPECTRUM)}))
    tail = ["--difference", "3", "--window", "24"]
    code, from_file = run_cli(["ap", "--input", str(pair)] + tail, capsys)
    inline = ["ap", "--omega", _THIRDS, "--spectrum", _THIRDS_SPECTRUM] + tail
    assert (code, from_file) == run_cli(inline, capsys)
    assert "K" not in from_file and "tiles" not in from_file


def test_ap_reports_no_tiling_verdict_off_measure_one(capsys):
    # d-tiling needs total measure 1; [0, 2] still gets its AP verdict
    code, rep = run_cli(
        ["ap", "--omega", '{"pieces":[[["0","1"],["2","1"]]]}', "--difference", "1"],
        capsys,
    )
    assert code == 0 and rep["holds"] is True
    assert rep["tiles"] is None


def test_rank_subcommand(capsys):
    omega = json.dumps(
        {
            "pieces": [
                [["0", "1"], ["1", "3"]],
                [["1", "1"], ["1", "3"]],
                [["2", "1"], ["1", "3"]],
            ]
        }
    )
    code, rep = run_cli(
        ["rank", "--omega", omega, "--difference", "3", "--frequency", "1/3"], capsys
    )
    assert code == 0
    assert rep["rank"] == 1
    assert rep["witness"]["cellCounts"] == [1, 1, 1]


def test_vansum_classify_subcommand(capsys):
    vector = json.dumps(
        {
            "terms": [
                [1, "1/5"], [1, "2/5"], [1, "3/5"], [1, "4/5"],
                [1, "5/6"], [1, "1/6"],
            ]
        }
    )
    code, rep = run_cli(["vansum-classify", "--vector", vector], capsys)
    assert code == 0 and rep["tag"] == "type3"


def test_vansum_enum_subcommand(capsys):
    code, rep = run_cli(
        ["vansum-enum", "--pair", "type2", "--order", "30"], capsys
    )
    assert code == 0
    assert rep["type2type2"]["maxFamily"] == 3
    assert rep["assumptionFilter"] is True


def test_verify_weight6_subcommand(capsys):
    code, rep = run_cli(["verify-weight6", "--order", "6"], capsys)
    assert code == 0 and rep["ok"]


def test_malformed_json_reports_position(capsys):
    code = main(["zeroset", "--omega", "{oops", "--frequency", "1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert "line" in out and "column" in out


_UNIT = '{"pieces":[[["0","1"],["1","1"]]]}'


@pytest.mark.parametrize(
    "args",
    [
        ["zeroset", "--omega", "{}", "--frequency", "1"],
        ["zeroset", "--omega", '{"pieces":[[["1","0"],["1","1"]]]}', "--frequency", "1"],
        ["zeroset", "--omega", _UNIT, "--frequency", "1/0"],
        ["tile-search", "--set", "{}"],
        ["ortho", "--omega", _UNIT, "--spectrum", '{"period":["1","1"]}'],
        ["vansum-classify", "--vector", "{}"],
    ],
    ids=["no-pieces", "zero-denominator-pair", "zero-denominator-string",
         "no-elements", "no-cosets", "no-terms"],
)
def test_malformed_input_is_a_clean_input_error(args, capsys):
    code, rep = run_cli(args, capsys)
    assert code == 2
    assert "error" in rep


@pytest.mark.parametrize(
    "pair, order", [("type2", "0"), ("type3", "-30")], ids=["type2-zero", "type3-negative"]
)
def test_vansum_enum_rejects_nonpositive_orders(pair, order, capsys):
    code, rep = run_cli(["vansum-enum", "--pair", pair, "--order", order], capsys)
    assert code == 2
    assert rep == {"error": "order bound must be positive"}


@pytest.mark.parametrize("pair", ["all", "type2", "type3", "mixed"])
def test_vansum_enum_order_beyond_the_work_limit_is_an_input_error(pair, capsys):
    order = str(vansum.MAX_INTERACTION_ORDER + 30)
    start = time.monotonic()
    code, rep = run_cli(["vansum-enum", "--pair", pair, "--order", order], capsys)
    assert time.monotonic() - start < 1
    assert code == 2 and order in rep["error"]


def test_verify_weight6_order_beyond_the_work_limit_is_an_input_error(capsys):
    order = str(vansum.MAX_WEIGHT6_ORDER + 1)
    code, rep = run_cli(["verify-weight6", "--order", order], capsys)
    assert code == 2
    assert rep == {"error": f"order bound {order} exceeds the limit 60"}


_UNIT3_OMEGA = '{"pieces":[[["0","1"],["1","1"]],[["2","1"],["1","1"]],[["4","1"],["1","1"]]]}'
_UNIT3_SPECTRUM = '{"period":["1","1"],"cosets":[["0","1"],["1","3"],["2","3"]]}'


@pytest.mark.parametrize(
    "args, limit",
    [
        (["ortho", "--omega", _UNIT3_OMEGA, "--spectrum", _UNIT3_SPECTRUM,
          "--window", "1000000000"], spectra.MAX_WINDOW_POINTS),
        (["ap", "--omega", _UNIT3_OMEGA, "--spectrum", _UNIT3_SPECTRUM,
          "--difference", "1", "--window", "1000000000"], spectra.MAX_WINDOW_POINTS),
        (["ap", "--omega", _UNIT3_OMEGA, "--difference", "1", "--K", "1000000000"],
         spectra.MAX_AP_K),
    ],
    ids=["ortho-window", "ap-spectrum-window", "ap-K"],
)
def test_windows_and_K_beyond_the_work_limit_are_input_errors(args, limit, capsys):
    start = time.monotonic()
    code, rep = run_cli(args, capsys)
    assert time.monotonic() - start < 1
    assert code == 2 and str(limit) in rep["error"]


def test_a_broken_rank_case_invariant_is_reported_as_refuted(monkeypatch, capsys):
    def broken(*args):
        raise InvariantError("shared-node cancellation failed")

    monkeypatch.setattr(spectra, "rank_case", broken)
    code, rep = run_cli(["rank", "--omega", _THIRDS, "--difference", "3",
                         "--frequency", "1/3"], capsys)
    assert (code, rep) == (1, {"error": "shared-node cancellation failed"})


def test_a_sum_outside_the_trichotomy_is_reported_as_refuted(monkeypatch, capsys):
    def broken(vec):
        raise ClassificationError("vanishing six-term sum outside the three known shapes")

    monkeypatch.setattr(vansum, "classify", broken)
    vector = '{"terms": [[1, "0"], [-1, "0"], [1, "1/3"], [-1, "1/3"], [1, "1/2"], [-1, "1/2"]]}'
    code, rep = run_cli(["vansum-classify", "--vector", vector], capsys)
    assert (code, rep) == (
        1, {"error": "vanishing six-term sum outside the three known shapes"})


def test_zeroset_at_a_large_prime_order(capsys):
    omega = '{"pieces":[[["0","1"],["1","2"]],[["2","1"],["1","3"]]]}'
    start = time.monotonic()
    code, rep = run_cli(["zeroset", "--omega", omega, "--frequency", "1/100003"], capsys)
    assert time.monotonic() - start < 5
    assert code == 1 and rep["inZeroSet"] is False


def test_zeroset_with_two_large_prime_denominators(capsys):
    # q = 1048583 * 1048589 is beyond trial division and not prime, but at
    # lam = 1048583 the roots' orders all divide 1048589, a prime.
    omega = ('{"pieces":[[["0","1"],["1","1048583"]],'
             '[["1","1"],["1","1048589"]]]}')
    start = time.monotonic()
    code, rep = run_cli(["zeroset", "--omega", omega, "--frequency", "1048583"], capsys)
    assert time.monotonic() - start < 1
    assert code == 1 and rep["inZeroSet"] is False


@pytest.mark.parametrize(
    "frequency, code",
    [
        ("1/10000000000000061", 1),  # a prime order: answered
        ("1/1000000016000000063", 2),  # 1000000007 * 1000000009: out of budget
    ],
)
def test_zeroset_at_orders_beyond_trial_division(frequency, code, capsys):
    omega = '{"pieces":[[["0","1"],["1","2"]],[["2","1"],["1","3"]]]}'
    start = time.monotonic()
    got, rep = run_cli(["zeroset", "--omega", omega, "--frequency", frequency], capsys)
    assert time.monotonic() - start < 1
    assert got == code
    if code == 1:
        assert rep["inZeroSet"] is False
    else:
        assert "error" in rep


def test_reports_are_deterministic(capsys):
    args = ["newman", "--set", "0,4,2"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    assert first == second


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "spectile.cli", "newman", "--set", "0,4,2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["tiles"] is True


_THIRDS = '{"pieces":[[["0","1"],["1","3"]],[["1","1"],["1","3"]],[["2","1"],["1","3"]]]}'
_THIRDS_SPECTRUM = '{"period":["3","1"],"cosets":[["0","1"],["1","3"],["2","3"]]}'

# The options each subcommand reads; --output belongs to the main parser.
OPTIONS = {
    "newman": {"--set"},
    "tile-search": {"--set", "--m-max"},
    "pattern": {"--lengths", "--motif", "--window"},
    "zeroset": {"--omega", "--frequency", "--input"},
    "ortho": {"--omega", "--spectrum", "--window", "--input"},
    "complete": {"--set", "--mu"},
    "construct": {"--family", "--j", "--l", "--r", "--s", "--n", "--k", "--k0",
                  "--piece-length"},
    "ap": {"--omega", "--spectrum", "--difference", "--start", "--K", "--window",
           "--input"},
    "rank": {"--omega", "--difference", "--frequency", "--input"},
    "vansum-classify": {"--vector", "--omega", "--frequency", "--input"},
    "vansum-enum": {"--pair", "--order", "--no-assumption"},
    "verify-weight6": {"--order"},
}


def _flags(parser):
    return {flag for action in parser._actions for flag in action.option_strings
            if flag not in ("-h", "--help")}


def test_each_subcommand_takes_only_the_options_it_reads():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert _flags(parser) == {"--output"}
    assert {name: _flags(p) for name, p in sub.choices.items()} == OPTIONS
    assert 1 + sum(len(flags) for flags in OPTIONS.values()) == 44


class _ReadRecorder(argparse.Namespace):
    """A namespace that adds to `read` the name of each option read."""

    read: set = set()

    def __getattribute__(self, name):
        if name in object.__getattribute__(self, "__dict__"):
            _ReadRecorder.read.add(name)
        return object.__getattribute__(self, name)


def test_run_reads_every_option_a_subcommand_declares(tmp_path):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"omega": json.loads(_THIRDS),
                                "spectrum": json.loads(_THIRDS_SPECTRUM)}))
    vector = json.dumps({"terms": [[1, "0"], [-1, "0"], [1, "1/3"], [-1, "1/3"],
                                   [1, "1/7"], [-1, "1/7"]]})
    cases = [
        ["newman", "--set", "0,1"],
        ["tile-search", "--set", "0,1"],
        ["pattern", "--lengths", "5/12,1/3,1/4", "--window", "2", "--motif", "AB"],
        ["zeroset", "--input", str(pair), "--frequency", "1/3"],
        ["ortho", "--input", str(pair), "--spectrum", _THIRDS_SPECTRUM],
        ["complete", "--set", "0,4,2", "--mu", "0,1/3,2/3"],
        ["construct", "--family", "unit3"],
        ["construct", "--family", "unit4"],
        ["construct", "--family", "half", "--n", "3", "--k", "9", "--k0", "3",
         "--piece-length", "1/3"],
        ["ap", "--input", str(pair), "--difference", "3", "--window", "24"],
        ["ap", "--omega", _THIRDS, "--spectrum", _THIRDS_SPECTRUM, "--difference", "3",
         "--window", "24"],
        ["ap", "--omega", _THIRDS, "--difference", "3", "--K", "5"],
        ["rank", "--input", str(pair), "--difference", "3", "--frequency", "1/3"],
        ["vansum-classify", "--vector", vector],
        ["vansum-classify", "--input", str(pair), "--frequency", "1/3"],
        ["vansum-enum", "--pair", "type2", "--order", "12"],
        ["verify-weight6", "--order", "6"],
    ]
    declared, read = {}, {}
    for argv in cases:
        args = _ReadRecorder(**vars(build_parser().parse_args(argv)))
        _ReadRecorder.read = set()
        status, _ = run(args)
        assert status == 0, argv
        declared[argv[0]] = set(vars(args)) - {"output", "subcommand"}
        read.setdefault(argv[0], set()).update(_ReadRecorder.read - {"output", "subcommand"})
    assert read == declared
    assert {name: {"--" + dest.replace("_", "-") for dest in dests}
            for name, dests in declared.items()} == OPTIONS


@pytest.mark.parametrize(
    "args",
    [
        ["newman", "--set", "0,1", "--window", "3"],
        ["newman", "--set", "0,1", "--input", "a.json"],
        ["tile-search", "--set", "0,1", "--order", "30"],
        ["complete", "--set", "0,2", "--mu", "0,1/2", "--no-assumption"],
        ["verify-weight6", "--m-max", "8"],
    ],
)
def test_an_option_the_subcommand_does_not_read_is_refused(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "args",
    [
        ["pattern", "--lengths", "1/4,1/4,1/2", "--window", "x"],
        ["ortho", "--omega", _THIRDS, "--spectrum", _THIRDS_SPECTRUM, "--window", "1/0"],
        ["ap", "--omega", _THIRDS, "--difference", "3", "--K", "-5"],
        ["ap", "--omega", _THIRDS, "--difference", "3", "--K", "0"],
    ],
    ids=["window-not-a-number", "window-zero-denominator", "K-negative", "K-zero"],
)
def test_bad_option_values_are_clean_input_errors(args, capsys):
    code, rep = run_cli(args, capsys)
    assert code == 2
    assert list(rep) == ["error"]


def test_unwritable_output_is_a_clean_input_error(tmp_path, capsys):
    target = tmp_path / "missing" / "r.json"
    code, rep = run_cli(["--output", str(target), "newman", "--set", "0,1"], capsys)
    assert code == 2
    assert "r.json" in rep["error"]
    assert not target.exists()


def test_the_parser_is_built_once():
    assert build_parser() is build_parser()
