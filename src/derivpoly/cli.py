"""Command-line front end: tables, polynomial families, Taylor series, and
the identity-verification suites.

Exit codes: 0 on success (all verdicts passing for ``verify``), 1 when any
verification fails, 2 on usage errors.  Rationals are written ``p/q`` on the
command line; decimal input is rejected to keep everything exact.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .derivative_polys import FAMILIES, family_json_obj, family_poly
from .exact import parse_rational
from .special_numbers import TABLE_KINDS, table_rows
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

    p_poly = sub.add_parser("poly", help="print one polynomial of a family")
    p_poly.add_argument("family", choices=FAMILIES)
    p_poly.add_argument("--n", type=int, required=True)
    p_poly.add_argument("--r", type=_rational_arg)
    p_poly.add_argument("--a", type=_rational_arg)
    p_poly.add_argument("--b", type=_rational_arg)
    p_poly.add_argument("--d", type=_rational_arg)

    p_series = sub.add_parser(
        "series", help="Taylor coefficients of u or its companion v")
    p_series.add_argument("which", choices=("riccati", "v"))
    p_series.add_argument("--r", type=_rational_arg)
    p_series.add_argument("--a", type=_rational_arg)
    p_series.add_argument("--b", type=_rational_arg)
    p_series.add_argument("--d", type=_rational_arg, default=Fraction(0))
    p_series.add_argument("--u0", type=_rational_arg)
    p_series.add_argument("--v0", type=_rational_arg)
    p_series.add_argument("--order", type=int, required=True)
    p_series.add_argument("--q", type=_rational_arg,
                          help="logistic carrying capacity (with --p, --s)")
    p_series.add_argument("--p", type=_rational_arg,
                          help="logistic offset coefficient")
    p_series.add_argument("--s", type=_rational_arg,
                          help="logistic rate")

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

    for p in (p_table, p_poly, p_series, p_verify):
        p.add_argument("--format", choices=FORMATS, default="plain")
    for p in (parser, p_table, p_poly, p_series, p_verify):
        _allow_negative_rationals(p)
    return parser


def _emit(fmt: str, plain, as_json, as_csv=None) -> None:
    """Print a command's output in format ``fmt``.

    ``plain`` and ``as_csv`` (default: ``plain``) return rows of strings,
    printed space-separated or as csv lines; ``as_json`` returns objects,
    printed one sorted-key JSON object per line.  Each is a zero-argument
    callable, and only the one for ``fmt`` runs.  ``json`` and ``csv`` are
    imported where they are used, so a plain command never loads them.
    """
    if fmt == "json":
        import json
        for obj in as_json():
            print(json.dumps(obj, sort_keys=True))
    elif fmt == "csv":
        import csv
        csv.writer(sys.stdout, lineterminator="\n").writerows((as_csv or plain)())
    else:
        for row in plain():
            print(" ".join(row))


def _cmd_table(args) -> int:
    rows = table_rows(args.kind, args.n)
    _emit(args.format, lambda: rows, lambda: [{"kind": args.kind, "rows": rows}])
    return 0


def _cmd_poly(args) -> int:
    params = {"r": args.r, "a": args.a, "b": args.b, "d": args.d}
    poly = family_poly(args.family, args.n, **params)
    _emit(args.format, lambda: [poly.to_coeff_strings() or ["0"]],
          lambda: [family_json_obj(args.family, args.n, poly, **params)])
    return 0


def _logistic_to_riccati(args):
    """Map the logistic form (q, p, s) to (r, a, b, u0, v0), with v0 = u0."""
    if args.r is not None or args.a is not None or args.b is not None \
            or args.u0 is not None or args.v0 is not None:
        raise ValueError("the logistic flags exclude --r/--a/--b/--u0/--v0")
    if args.q is None or args.p is None or args.s is None:
        raise ValueError("the logistic form needs all of --q, --p, --s")
    if args.q <= 0 or args.s <= 0 or args.p <= 0:
        raise ValueError("logistic parameters require q > 0, p > 0, s > 0")
    r = -args.s / args.q
    u0 = args.q / (1 + args.p)
    return r, args.q, Fraction(0), u0, u0


def _cmd_series(args) -> int:
    if args.q is not None or args.p is not None or args.s is not None:
        r, a, b, u0, v0 = _logistic_to_riccati(args)
    else:
        if args.r is None or args.a is None or args.b is None or args.u0 is None:
            raise ValueError("need --r, --a, --b and --u0 (or the logistic flags)")
        r, a, b, u0 = args.r, args.a, args.b, args.u0
        v0 = Fraction(1) if args.v0 is None else args.v0
    inst = instance(r, a, b, u0, d=args.d, v0=v0, order=args.order)
    series = riccati_series(inst) if args.which == "riccati" else v_series(inst)
    _emit(args.format, lambda: [[str(c) for c in series.coeffs]],
          lambda: [series.to_json_obj()])
    return 0


def _plain_verdict(v: Verdict) -> list[str]:
    parts = [v.status.upper(), v.identity]
    parts.extend(f"{k}={v.params[k]}" for k in sorted(v.params))
    if not v.passed:
        parts.append(f"first_failure={v.first_failure}")
        if v.witness:
            parts.append(f"lhs={v.witness['lhs']}")
            parts.append(f"rhs={v.witness['rhs']}")
    return parts


def _csv_verdict(v: Verdict) -> list[str]:
    import json
    return [
        v.identity,
        json.dumps(v.params, sort_keys=True),
        v.status,
        "" if v.first_failure is None else v.first_failure,
        v.witness["lhs"] if v.witness else "",
        v.witness["rhs"] if v.witness else "",
    ]


def _cmd_verify(args) -> int:
    verdicts = run_suite(args.suite, n_max=args.n_max, m_max=args.m_max,
                         order=args.order, u0=args.u0, a=args.a, b=args.b,
                         d=args.d, tol=args.tol)
    _emit(args.format, lambda: map(_plain_verdict, verdicts),
          lambda: map(Verdict.to_json_obj, verdicts),
          lambda: map(_csv_verdict, verdicts))
    return 0 if all(v.passed for v in verdicts) else 1


_COMMANDS = {"table": _cmd_table, "poly": _cmd_poly, "series": _cmd_series,
             "verify": _cmd_verify}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; the library's ValueError on bad input is a usage
    error (exit 2).  The command runs without CPython's int-to-str digit
    limit, since exact output is the product; the caller's limit is restored."""
    parser = build_parser()
    args = parser.parse_args(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        parser.error(str(exc))
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
