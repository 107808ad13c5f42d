"""Batch command line front end with JSON input and output.

    spectile [--output PATH] SUBCOMMAND [OPTIONS]

Each subcommand takes only the options it reads; any other is an argparse
error (exit 2).  --omega and --spectrum take inline JSON; --input names a
JSON file holding them, under those keys or as the whole document.  ap
checks a spectrum given inline or under the file's "spectrum" key, else --K.

    newman           --set
    tile-search      --set --m-max
    pattern          --lengths --motif --window
    zeroset          --omega --frequency --input
    ortho            --omega --spectrum --window --input
    complete         --set --mu
    construct        --family --j --l --r --s --n --k --k0 --piece-length
    ap               --omega --spectrum --difference --start --K --window --input
    rank             --omega --difference --frequency --input
    vansum-classify  --vector --omega --frequency --input
    vansum-enum      --pair --order --no-assumption
    verify-weight6   --order

Every report echoes its configuration (window, order bound, period cap and
assumption filter, at their defaults where the subcommand has no such
option) and emits exact rationals as strings; floats appear only in fields
named numericCrossCheck.  Exit status: 0 when the computation succeeded (and
any verified claim holds), 1 when a checked claim is refuted (the report
carries the witness) or a proved case split meets a case outside it (the
report carries an "error"), 2 on input or precondition errors and on inputs
beyond a stated work limit.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional, Sequence

from . import spectra, vansum, ztiling
from .cyclotomic import RootOfUnity, as_fraction
from .errors import ClassificationError, InvariantError, PreconditionError
from .intervals import IntervalUnion, d_tiles, fourier_indicator, in_zero_set
from .jsonio import fraction_to_str, json_field, parse_fraction
from .spectra import FiniteSpectrumWindow, PeriodicSet
from .ztiling import IntegerSet

OK, REFUTED, BAD_INPUT = 0, 1, 2
DEFAULT_WINDOW = "12"
DEFAULT_ORDER = 60


def _config(args: argparse.Namespace) -> dict:
    """The configuration every report echoes; an option the subcommand does
    not take echoes its default."""
    window = as_fraction(getattr(args, "window", DEFAULT_WINDOW))
    return {
        "subcommand": args.subcommand,
        "window": fraction_to_str(window),
        "orderBound": getattr(args, "order", DEFAULT_ORDER),
        "mMax": getattr(args, "m_max", ztiling.DEFAULT_PERIOD_CAP),
        "assumptionFilter": not getattr(args, "no_assumption", False),
    }


def _parse_set(text: str) -> IntegerSet:
    if text.strip().startswith("{"):
        return IntegerSet.from_json_dict(json.loads(text))
    return IntegerSet(tuple(int(x) for x in text.split(",")))


def _load(args: argparse.Namespace, key: str, cls):
    """cls from the inline JSON option --key, else from the --input file,
    where it is the key field or the whole document."""
    text = getattr(args, key)
    if text:
        return cls.from_json_dict(json.loads(text))
    if args.input:
        data = _read_json(args.input)
        return cls.from_json_dict(data[key] if key in data else data)
    raise ValueError(f"missing --{key} or --input")


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def run(args: argparse.Namespace) -> tuple[int, dict]:
    """Dispatch one subcommand; returns (exit status, report dict)."""
    name = args.subcommand
    report: dict = {"config": _config(args)}

    if name == "newman":
        aset = _parse_set(args.set)
        res = ztiling.newman_tiles(aset)
        report.update(res.to_json_dict())
        report["set"] = aset.to_json_dict()
        return OK, report

    if name == "tile-search":
        aset = _parse_set(args.set)
        witness = ztiling.brute_force_tile_period(aset, args.m_max)
        report["set"] = aset.to_json_dict()
        report["found"] = witness is not None
        if witness is not None:
            report.update(witness.to_json_dict())
        return OK, report

    if name == "pattern":
        lengths = [parse_fraction(x) for x in args.lengths.split(",")]
        patterns = ztiling.pattern_search(lengths, as_fraction(args.window))
        report["patterns"] = [p.to_json_dict() for p in patterns]
        if args.motif:
            report["motif"] = args.motif
            report["motifHits"] = [
                p.labels for p in patterns if ztiling.motif_scan(p, args.motif)
            ]
        return OK, report

    if name == "zeroset":
        omega = _load(args, "omega", IntervalUnion)
        lam = parse_fraction(args.frequency)
        member = in_zero_set(omega, lam)
        report["frequency"] = fraction_to_str(lam)
        report["inZeroSet"] = member
        report["numericCrossCheck"] = abs(fourier_indicator(omega, float(lam)))
        return (OK if member else REFUTED), report

    if name == "ortho":
        omega = _load(args, "omega", IntervalUnion)
        pset = _load(args, "spectrum", PeriodicSet)
        res = spectra.verify_spectral_pair(omega, pset, as_fraction(args.window))
        report.update(res.to_json_dict())
        return (OK if res.orthogonal else REFUTED), report

    if name == "complete":
        aset = _parse_set(args.set)
        mus = [parse_fraction(x) for x in args.mu.split(",")]
        ok = spectra.completeness_matrix(aset, mus)
        report["complete"] = ok
        return (OK if ok else REFUTED), report

    if name == "construct":
        family = args.family
        if family == "unit3":
            omega, pset = spectra.construct_unit3_pair(args.j, args.r, args.s)
        elif family == "unit4":
            omega, pset = spectra.construct_unit4_pair(args.l, args.r, args.s)
        elif family == "half":
            omega, pset = spectra.construct_half_pair(
                args.n, args.k, args.k0, parse_fraction(args.piece_length)
            )
        else:
            raise ValueError(f"unknown family {family!r}")
        report["omega"] = omega.to_json_dict()
        report["spectrum"] = pset.to_json_dict()
        return OK, report

    if name == "ap":
        omega = _load(args, "omega", IntervalUnion)
        d = parse_fraction(args.difference)
        if args.spectrum or args.input and "spectrum" in _read_json(args.input):
            pset = _load(args, "spectrum", PeriodicSet)
            window = FiniteSpectrumWindow.from_periodic(pset, as_fraction(args.window))
            res = spectra.spectrum_ap_extension(
                omega, window, parse_fraction(args.start), d
            )
            report.update(res.to_json_dict())
            return (OK if res.holds else REFUTED), report
        holds = spectra.ap_extension_check(omega, d, args.K)
        report["holds"] = holds
        report["K"] = args.K
        # d-tiling is defined for total measure 1 only; report it as absent
        # otherwise instead of failing a check that succeeded.
        tiles_defined = d.denominator == 1 and omega.measure == 1
        report["tiles"] = d_tiles(omega, int(d)) if tiles_defined else None
        return (OK if holds else REFUTED), report

    if name == "rank":
        omega = _load(args, "omega", IntervalUnion)
        res = spectra.rank_case(
            omega, parse_fraction(args.difference), parse_fraction(args.frequency)
        )
        report.update(res.to_json_dict())
        return OK, report

    if name == "vansum-classify":
        if args.omega or args.input:
            omega = _load(args, "omega", IntervalUnion)
            vec = vansum.SignedRootVector.from_frequency(
                omega, parse_fraction(args.frequency)
            )
        else:
            data = json.loads(args.vector)
            vec = vansum.SignedRootVector(
                tuple(
                    (int(sign), RootOfUnity(parse_fraction(e)))
                    for sign, e in json_field(data, "terms")
                )
            )
        tag = vansum.classify(vec)
        report["tag"] = tag.tag
        report["valueExponents"] = [
            fraction_to_str(e) for e in vec.value_exponents()
        ]
        return OK, report

    if name == "vansum-enum":
        pair = args.pair
        sections = {
            "type2": ("type2type2", vansum.enumerate_type2_type2),
            "type3": ("type3type3", vansum.enumerate_type3_type3),
            "mixed": ("type3type2", vansum.enumerate_type3_type2),
        }
        chosen = sections if pair == "all" else {pair: sections[pair]}
        assumption_filter = not args.no_assumption
        report["orderBound"] = args.order
        report["assumptionFilter"] = assumption_filter
        for key, (label, fn) in chosen.items():
            res = fn(args.order, assumption_filter)
            report[label] = res.to_json_dict()
        return OK, report

    if name == "verify-weight6":
        res = vansum.verify_weight6_classification(args.order)
        report.update(res.to_json_dict())
        return (OK if res.ok else REFUTED), report

    raise ValueError(f"unknown subcommand {name!r}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectile",
        description="Exact checks for interval-union spectra and integer tilings.",
    )
    parser.add_argument("--output", default="-", help="report path, '-' for stdout")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("newman")
    p.add_argument("--set", required=True)

    p = sub.add_parser("tile-search")
    p.add_argument("--set", required=True)
    p.add_argument("--m-max", type=int, default=ztiling.DEFAULT_PERIOD_CAP)

    p = sub.add_parser("pattern")
    p.add_argument("--lengths", required=True)
    p.add_argument("--motif", default=None)
    p.add_argument("--window", default=DEFAULT_WINDOW)

    p = sub.add_parser("zeroset")
    p.add_argument("--omega", default=None)
    p.add_argument("--frequency", required=True)
    p.add_argument("--input", default=None)

    p = sub.add_parser("ortho")
    p.add_argument("--omega", default=None)
    p.add_argument("--spectrum", default=None)
    p.add_argument("--window", default=DEFAULT_WINDOW)
    p.add_argument("--input", default=None)

    p = sub.add_parser("complete")
    p.add_argument("--set", required=True)
    p.add_argument("--mu", required=True)

    p = sub.add_parser("construct")
    p.add_argument("--family", required=True, choices=["unit3", "unit4", "half"])
    p.add_argument("--j", type=int, default=0)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--k0", type=int, default=1)
    p.add_argument("--piece-length", default="1/4")

    p = sub.add_parser("ap")
    p.add_argument("--omega", default=None)
    p.add_argument("--spectrum", default=None)
    p.add_argument("--difference", required=True)
    p.add_argument("--start", default="0")
    p.add_argument("--K", type=int, default=50)
    p.add_argument("--window", default=DEFAULT_WINDOW)
    p.add_argument("--input", default=None)

    p = sub.add_parser("rank")
    p.add_argument("--omega", default=None)
    p.add_argument("--difference", required=True)
    p.add_argument("--frequency", required=True)
    p.add_argument("--input", default=None)

    p = sub.add_parser("vansum-classify")
    p.add_argument("--vector", default=None)
    p.add_argument("--omega", default=None)
    p.add_argument("--frequency", default="0")
    p.add_argument("--input", default=None)

    p = sub.add_parser("vansum-enum")
    p.add_argument("--pair", default="all", choices=["type2", "type3", "mixed", "all"])
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p.add_argument("--no-assumption", action="store_true")

    p = sub.add_parser("verify-weight6")
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status, report = run(args)
    except json.JSONDecodeError as exc:
        status = BAD_INPUT
        report = {
            "error": f"malformed JSON: {exc.msg}",
            "line": exc.lineno,
            "column": exc.colno,
        }
    except (ClassificationError, InvariantError) as exc:
        # a counterexample to a proved case split refutes the checker's claim
        status, report = REFUTED, {"error": str(exc)}
    except (PreconditionError, ValueError, TypeError, OSError) as exc:
        status, report = BAD_INPUT, {"error": str(exc)}
    text = json.dumps(report, sort_keys=True, indent=2)
    if args.output == "-":
        print(text)
        return status
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        # the report cannot reach its file, so the error goes to stdout
        print(json.dumps({"error": str(exc)}, sort_keys=True, indent=2))
        return BAD_INPUT
    return status


if __name__ == "__main__":
    sys.exit(main())
