"""Batch command line front end with JSON input and output.

Every subcommand echoes its configuration and emits exact rationals as
strings; floats appear only in fields named numericCrossCheck.  Exit status:
0 when the computation succeeded (and any verified claim holds), 1 when a
checked claim is refuted (the report carries the witness), 2 on input or
precondition errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import spectra, vansum, ztiling
from .cyclotomic import RootOfUnity, as_fraction
from .errors import PreconditionError
from .intervals import IntervalUnion, d_tiles, fourier_indicator, in_zero_set
from .jsonio import fraction_to_str, json_field, parse_fraction
from .spectra import FiniteSpectrumWindow, PeriodicSet
from .ztiling import IntegerSet

OK, REFUTED, BAD_INPUT = 0, 1, 2


@dataclass
class RunConfig:
    subcommand: str
    window: Fraction = Fraction(12)
    order_bound: int = 60
    m_max: int = ztiling.DEFAULT_PERIOD_CAP
    assumption_filter: bool = True
    output: str = "-"

    def echo(self) -> dict:
        return {
            "subcommand": self.subcommand,
            "window": fraction_to_str(self.window),
            "orderBound": self.order_bound,
            "mMax": self.m_max,
            "assumptionFilter": self.assumption_filter,
        }


def _parse_set(text: str) -> IntegerSet:
    if text.strip().startswith("{"):
        return IntegerSet.from_json_dict(json.loads(text))
    return IntegerSet(tuple(int(x) for x in text.split(",")))


def _parse_omega(args: argparse.Namespace) -> IntervalUnion:
    if getattr(args, "omega", None):
        return IntervalUnion.from_json_dict(json.loads(args.omega))
    if getattr(args, "input", None):
        with open(args.input, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if "omega" in data:
            return IntervalUnion.from_json_dict(data["omega"])
        return IntervalUnion.from_json_dict(data)
    raise ValueError("missing --omega or --input")


def _parse_spectrum(args: argparse.Namespace) -> PeriodicSet:
    if getattr(args, "spectrum", None):
        return PeriodicSet.from_json_dict(json.loads(args.spectrum))
    if getattr(args, "input", None):
        with open(args.input, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if "spectrum" in data:
            return PeriodicSet.from_json_dict(data["spectrum"])
        return PeriodicSet.from_json_dict(data)
    raise ValueError("missing --spectrum or --input")


def run(config: RunConfig, args: argparse.Namespace) -> tuple[int, dict]:
    """Dispatch one subcommand; returns (exit status, report dict)."""
    name = config.subcommand
    report: dict = {"config": config.echo()}

    if name == "newman":
        aset = _parse_set(args.set)
        res = ztiling.newman_tiles(aset)
        report.update(res.to_json_dict())
        report["set"] = aset.to_json_dict()
        return OK, report

    if name == "tile-search":
        aset = _parse_set(args.set)
        witness = ztiling.brute_force_tile_period(aset, config.m_max)
        report["set"] = aset.to_json_dict()
        report["found"] = witness is not None
        if witness is not None:
            report.update(witness.to_json_dict())
        return OK, report

    if name == "pattern":
        lengths = [parse_fraction(x) for x in args.lengths.split(",")]
        patterns = ztiling.pattern_search(lengths, config.window)
        report["patterns"] = [p.to_json_dict() for p in patterns]
        if args.motif:
            report["motif"] = args.motif
            report["motifHits"] = [
                p.labels for p in patterns if ztiling.motif_scan(p, args.motif)
            ]
        return OK, report

    if name == "zeroset":
        omega = _parse_omega(args)
        lam = parse_fraction(args.frequency)
        member = in_zero_set(omega, lam)
        report["frequency"] = fraction_to_str(lam)
        report["inZeroSet"] = member
        report["numericCrossCheck"] = abs(fourier_indicator(omega, float(lam)))
        return (OK if member else REFUTED), report

    if name == "ortho":
        omega = _parse_omega(args)
        pset = _parse_spectrum(args)
        res = spectra.verify_spectral_pair(omega, pset, config.window)
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
        omega = _parse_omega(args)
        d = parse_fraction(args.difference)
        if getattr(args, "spectrum", None):
            pset = _parse_spectrum(args)
            window = FiniteSpectrumWindow.from_periodic(pset, config.window)
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
        omega = _parse_omega(args)
        res = spectra.rank_case(
            omega, parse_fraction(args.difference), parse_fraction(args.frequency)
        )
        report.update(res.to_json_dict())
        return OK, report

    if name == "vansum-classify":
        if getattr(args, "omega", None) or getattr(args, "input", None):
            omega = _parse_omega(args)
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
        report["orderBound"] = config.order_bound
        report["assumptionFilter"] = config.assumption_filter
        for key, (label, fn) in chosen.items():
            res = fn(config.order_bound, config.assumption_filter)
            report[label] = res.to_json_dict()
        return OK, report

    if name == "verify-weight6":
        res = vansum.verify_weight6_classification(config.order_bound)
        report.update(res.to_json_dict())
        return (OK if res.ok else REFUTED), report

    raise ValueError(f"unknown subcommand {name!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectile",
        description="Exact checks for interval-union spectra and integer tilings.",
    )
    parser.add_argument("--output", default="-", help="report path, '-' for stdout")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--window", default="12")
        p.add_argument("--order", type=int, default=60)
        p.add_argument("--m-max", type=int, default=ztiling.DEFAULT_PERIOD_CAP)
        p.add_argument("--no-assumption", action="store_true")
        p.add_argument("--input", default=None)

    p = sub.add_parser("newman")
    p.add_argument("--set", required=True)
    common(p)

    p = sub.add_parser("tile-search")
    p.add_argument("--set", required=True)
    common(p)

    p = sub.add_parser("pattern")
    p.add_argument("--lengths", required=True)
    p.add_argument("--motif", default=None)
    common(p)

    p = sub.add_parser("zeroset")
    p.add_argument("--omega", default=None)
    p.add_argument("--frequency", required=True)
    common(p)

    p = sub.add_parser("ortho")
    p.add_argument("--omega", default=None)
    p.add_argument("--spectrum", default=None)
    common(p)

    p = sub.add_parser("complete")
    p.add_argument("--set", required=True)
    p.add_argument("--mu", required=True)
    common(p)

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
    common(p)

    p = sub.add_parser("ap")
    p.add_argument("--omega", default=None)
    p.add_argument("--spectrum", default=None)
    p.add_argument("--difference", required=True)
    p.add_argument("--start", default="0")
    p.add_argument("--K", type=int, default=50)
    common(p)

    p = sub.add_parser("rank")
    p.add_argument("--omega", default=None)
    p.add_argument("--difference", required=True)
    p.add_argument("--frequency", required=True)
    common(p)

    p = sub.add_parser("vansum-classify")
    p.add_argument("--vector", default=None)
    p.add_argument("--omega", default=None)
    p.add_argument("--frequency", default="0")
    common(p)

    p = sub.add_parser("vansum-enum")
    p.add_argument("--pair", default="all", choices=["type2", "type3", "mixed", "all"])
    common(p)

    p = sub.add_parser("verify-weight6")
    common(p)

    return parser


def _emit(report: dict, output: str) -> None:
    text = json.dumps(report, sort_keys=True, indent=2)
    if output == "-":
        print(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = RunConfig(
        subcommand=args.subcommand,
        window=as_fraction(getattr(args, "window", "12")),
        order_bound=getattr(args, "order", 60),
        m_max=getattr(args, "m_max", ztiling.DEFAULT_PERIOD_CAP),
        assumption_filter=not getattr(args, "no_assumption", False),
        output=args.output,
    )
    try:
        status, report = run(config, args)
    except json.JSONDecodeError as exc:
        _emit(
            {
                "error": f"malformed JSON: {exc.msg}",
                "line": exc.lineno,
                "column": exc.colno,
            },
            config.output,
        )
        return BAD_INPUT
    except (PreconditionError, ValueError, TypeError, OSError) as exc:
        _emit({"error": str(exc)}, config.output)
        return BAD_INPUT
    _emit(report, config.output)
    return status


if __name__ == "__main__":
    sys.exit(main())
