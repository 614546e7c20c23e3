"""Command-line front end: tables, polynomial families, Taylor series, and
the identity-verification suites.

Exit codes: 0 on success (all verdicts passing for ``verify``), 1 when any
verification fails, 2 on usage errors.  Rationals are written ``p/q`` on the
command line; decimal input is rejected to keep everything exact.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .derivative_polys import FAMILIES, family_json_obj, family_poly
from .exact import parse_rational
from .special_numbers import TABLE_KINDS, table_json_obj, table_rows
from .verify import SUITE_NAMES, Verdict, instance, riccati_series, run_suite, v_series

FORMATS = ("plain", "json", "csv")


def _rational_arg(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


# Lets bare negative rationals like -1/2 pass as option values; without this
# argparse would read them as option strings (--r=-1/2 works either way).
_NEGATIVE_RATIONAL = re.compile(r"^-\d+(?:/\d+)?$")


def _allow_negative_rationals(parser: argparse.ArgumentParser) -> None:
    parser._negative_number_matcher = _NEGATIVE_RATIONAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="derivpoly",
        description="Exact special-number triangles, derivative polynomials, "
                    "and identity verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="print a number table")
    p_table.add_argument("kind", choices=TABLE_KINDS)
    p_table.add_argument("--n", type=int, required=True,
                         help="largest row (triangles) or index (Bernoulli)")
    p_table.add_argument("--format", choices=FORMATS, default="plain")

    p_poly = sub.add_parser("poly", help="print one polynomial of a family")
    p_poly.add_argument("family", choices=FAMILIES)
    p_poly.add_argument("--n", type=int, required=True)
    p_poly.add_argument("--r", type=_rational_arg)
    p_poly.add_argument("--a", type=_rational_arg)
    p_poly.add_argument("--b", type=_rational_arg)
    p_poly.add_argument("--d", type=_rational_arg)
    p_poly.add_argument("--format", choices=FORMATS, default="plain")

    p_series = sub.add_parser(
        "series", help="Taylor coefficients of u or its companion v")
    p_series.add_argument("which", choices=("riccati", "v"))
    p_series.add_argument("--r", type=_rational_arg)
    p_series.add_argument("--a", type=_rational_arg)
    p_series.add_argument("--b", type=_rational_arg)
    p_series.add_argument("--d", type=_rational_arg, default=Fraction(0))
    p_series.add_argument("--u0", type=_rational_arg)
    p_series.add_argument("--v0", type=_rational_arg, default=Fraction(1))
    p_series.add_argument("--order", type=int, required=True)
    p_series.add_argument("--q", type=_rational_arg,
                          help="logistic carrying capacity (with --p, --s)")
    p_series.add_argument("--p", type=_rational_arg,
                          help="logistic offset coefficient")
    p_series.add_argument("--s", type=_rational_arg,
                          help="logistic rate")
    p_series.add_argument("--format", choices=FORMATS, default="plain")

    p_verify = sub.add_parser("verify", help="run identity suites")
    p_verify.add_argument("suite", choices=SUITE_NAMES)
    p_verify.add_argument("--n-max", type=int)
    p_verify.add_argument("--m-max", type=int)
    p_verify.add_argument("--order", type=int)
    p_verify.add_argument("--u0", type=_rational_arg)
    p_verify.add_argument("--a", type=_rational_arg)
    p_verify.add_argument("--b", type=_rational_arg)
    p_verify.add_argument("--d", type=_rational_arg)
    p_verify.add_argument("--tol", type=float)
    p_verify.add_argument("--format", choices=FORMATS, default="plain")

    for p in (parser, p_table, p_poly, p_series, p_verify):
        _allow_negative_rationals(p)
    return parser


def _print_rows(rows: list[list[str]], fmt: str, kind: str) -> None:
    if fmt == "plain":
        for row in rows:
            print(" ".join(row))
    elif fmt == "json":
        print(json.dumps(table_json_obj(kind, rows), sort_keys=True))
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerows(rows)


def _cmd_table(args, parser) -> int:
    if args.n < 1:
        parser.error(f"--n must be >= 1, got {args.n}")
    rows = table_rows(args.kind, args.n)
    _print_rows(rows, args.format, args.kind)
    return 0


def _cmd_poly(args, parser) -> int:
    try:
        poly = family_poly(args.family, args.n,
                           r=args.r, a=args.a, b=args.b, d=args.d)
    except ValueError as exc:
        parser.error(str(exc))
    coeffs = poly.to_coeff_strings() or ["0"]
    if args.format == "plain":
        print(" ".join(coeffs))
    elif args.format == "json":
        print(json.dumps(family_json_obj(args.family, args.n, poly,
                                         r=args.r, a=args.a, b=args.b,
                                         d=args.d), sort_keys=True))
    else:
        csv.writer(sys.stdout, lineterminator="\n").writerow(coeffs)
    return 0


def _logistic_to_riccati(args, parser):
    """Map the logistic parameterization (q, p, s) to (r, a, b, u0, v0)."""
    if args.r is not None or args.a is not None or args.b is not None \
            or args.u0 is not None:
        parser.error("give either --q/--p/--s or --r/--a/--b/--u0, not both")
    if args.q is None or args.p is None or args.s is None:
        parser.error("the logistic form needs all of --q, --p, --s")
    if args.q <= 0 or args.s <= 0 or args.p <= 0:
        parser.error("logistic parameters require q > 0, p > 0, s > 0")
    r = -args.s / args.q
    u0 = args.q / (1 + args.p)
    return r, args.q, Fraction(0), u0, u0


def _cmd_series(args, parser) -> int:
    if args.order < 1:
        parser.error(f"--order must be >= 1, got {args.order}")
    if args.q is not None or args.p is not None or args.s is not None:
        r, a, b, u0, v0 = _logistic_to_riccati(args, parser)
    else:
        if args.r is None or args.a is None or args.b is None or args.u0 is None:
            parser.error("need --r, --a, --b and --u0 (or the logistic flags)")
        r, a, b, u0, v0 = args.r, args.a, args.b, args.u0, args.v0
    try:
        inst = instance(r, a, b, u0, d=args.d, v0=v0, order=args.order)
    except ValueError as exc:
        parser.error(str(exc))
    series = riccati_series(inst) if args.which == "riccati" else v_series(inst)
    if args.format == "plain":
        print(" ".join(str(c) for c in series.coeffs))
    elif args.format == "json":
        print(json.dumps(series.to_json_obj(), sort_keys=True))
    else:
        csv.writer(sys.stdout, lineterminator="\n").writerow(
            [str(c) for c in series.coeffs])
    return 0


def _format_verdict_plain(v: Verdict) -> str:
    status = "PASS" if v.passed else ("INCONCLUSIVE" if v.inconclusive else "FAIL")
    parts = [status, v.identity]
    parts.extend(f"{k}={v.params[k]}" for k in sorted(v.params))
    if not v.passed:
        parts.append(f"first_failure={v.first_failure}")
        if v.witness:
            parts.append(f"lhs={v.witness['lhs']}")
            parts.append(f"rhs={v.witness['rhs']}")
    return " ".join(parts)


def _cmd_verify(args, parser) -> int:
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol > 0):
        parser.error("--tol must be positive and finite")
    try:
        verdicts = run_suite(args.suite, n_max=args.n_max, m_max=args.m_max,
                             order=args.order, u0=args.u0, a=args.a,
                             b=args.b, d=args.d, tol=args.tol)
    except ValueError as exc:
        parser.error(str(exc))
    if args.format == "plain":
        for v in verdicts:
            print(_format_verdict_plain(v))
    elif args.format == "json":
        for v in verdicts:
            print(json.dumps(v.to_json_obj(), sort_keys=True))
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        for v in verdicts:
            writer.writerow([
                v.identity,
                json.dumps(v.params, sort_keys=True),
                "pass" if v.passed else ("inconclusive" if v.inconclusive
                                         else "fail"),
                "" if v.first_failure is None else v.first_failure,
                v.witness["lhs"] if v.witness else "",
                v.witness["rhs"] if v.witness else "",
            ])
    return 0 if all(v.passed for v in verdicts) else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "table":
        return _cmd_table(args, parser)
    if args.command == "poly":
        return _cmd_poly(args, parser)
    if args.command == "series":
        return _cmd_series(args, parser)
    return _cmd_verify(args, parser)


if __name__ == "__main__":
    sys.exit(main())
