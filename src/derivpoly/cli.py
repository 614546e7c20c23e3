"""Command-line front end: tables, polynomial families, Taylor series, and
the identity-verification suites.

Exit codes: 0 on success (all verdicts passing for ``verify``), 1 when any
verification fails, 2 on usage errors.  Rationals are written ``p/q`` on the
command line; decimal input is rejected to keep everything exact.  A
table is written a row at a time in every format, and
``verify.json_object`` writes all JSON text, so no command imports ``json``.

The command line is parsed from one table, ``COMMANDS``, which also writes
the ``--help`` text.  It stands in for ``argparse`` because most commands
finish in well under a tenth of a second: importing ``argparse`` (with
``gettext``), building a parser per command and parsing cost each process
about 8 ms, more than the package's own modules take to import.

For the same reason a process ends through ``run``, the entry point of both
the ``derivpoly`` script and ``python -m derivpoly``: after ``main`` it runs
the ``atexit`` handlers, flushes stdout and stderr and ends the process with
``os._exit``.  CPython's teardown, which would clear every module, run the
final garbage collections and free every memoized row and polynomial after
the last byte of output, is skipped: it cost 4-6 ms of CPU, about an eighth
of a command that does no work (2-vCPU host, CPython 3.11.7)."""

from __future__ import annotations

import atexit
import os
import sys
from collections.abc import Sequence
from fractions import Fraction
from types import SimpleNamespace

from .derivative_polys import FAMILIES, family_poly
from .exact import UsageError, parse_rational
from .special_numbers import TABLE_KINDS, table_lines
from .verify import (SUITE_NAMES, Verdict, instance, json_object,
                     riccati_series, run_suite, series_height, v_series)


def _emit(fmt: str, plain, as_json, as_csv=None) -> None:
    """Print a command's output in format ``fmt``.

    ``plain`` and ``as_csv`` (default: ``plain``) return rows of strings,
    printed space-separated or as csv lines; ``as_json`` returns pieces of
    JSON text, written as they come, each line ending in its own newline.
    Each is a zero-argument callable, and only the one for ``fmt`` runs, so
    a row that its source makes on demand is written before the next is
    made, in every format.  ``verify.json_object`` writes all JSON text
    without ``json``, and ``csv`` is imported where it is used, so a plain
    or json command loads neither module and a csv command only ``csv``.
    """
    if fmt == "json":
        sys.stdout.writelines(as_json())
    elif fmt == "csv":
        import csv
        csv.writer(sys.stdout, lineterminator="\n").writerows((as_csv or plain)())
    else:
        for row in plain():
            print(" ".join(row))


def _cmd_table(args) -> int:
    """Print a table, each row as it is made.  JSON writes the text of
    ``{"kind": kind, "rows": [row, ...]}`` a row at a time, so no format
    holds the table."""
    rows = table_lines(args.kind, args.n)

    def as_json():
        yield f'{{"kind": {json_object(args.kind)}, "rows": ['
        for i, row in enumerate(rows):
            yield (", " if i else "") + json_object(row)
        yield "]}\n"

    _emit(args.format, lambda: rows, as_json)
    return 0


def _cmd_poly(args) -> int:
    params = {"a": args.a, "b": args.b, "d": args.d}
    coefficients = family_poly(args.family, args.n, **params).to_coeff_strings()
    _emit(args.format, lambda: [coefficients or ["0"]],
          lambda: [json_object({"family": args.family, "n": args.n,
                                "params": {k: None if v is None else str(v)
                                           for k, v in params.items()},
                                "coefficients": coefficients}) + "\n"])
    return 0


def _logistic_to_riccati(args):
    """Map the logistic form (q, p, s) to (r, a, b, u0, v0), with v0 = u0."""
    if args.r is not None or args.a is not None or args.b is not None \
            or args.u0 is not None or args.v0 is not None:
        raise UsageError("the logistic flags exclude --r/--a/--b/--u0/--v0")
    if args.q is None or args.p is None or args.s is None:
        raise UsageError("the logistic form needs all of --q, --p, --s")
    if args.q <= 0 or args.s <= 0 or args.p <= 0:
        raise UsageError("logistic parameters require q > 0, p > 0, s > 0")
    r = -args.s / args.q
    u0 = args.q / (1 + args.p)
    return r, args.q, Fraction(0), u0, u0


#: The largest ``series --order``: at the limit, ``series riccati`` and
#: ``series v`` compute and print in about 10 s (9.5-11.0 s at the
#: benchmark's parameters r = 1/3, a = 2/3, b = 4/3, d = 4/3, u0 = 1/3 on a
#: 2-vCPU Xeon, CPython 3.11); the u recurrence's convolution dominates.
#: It holds up to ``SERIES_SMALL_HEIGHT``; taller parameters get the lower
#: limit of ``_series_order_limit``.
SERIES_ORDER_LIMIT = 1300
#: The largest ``verify.series_height`` at which ``SERIES_ORDER_LIMIT``
#: holds: every parameter set drawn from thirds up to 5/3, as the
#: benchmark's are.
SERIES_SMALL_HEIGHT = 7


def _series_cost(order: int, height: int) -> int:
    """Estimated cost of a ``series`` command: coefficient n has about
    n (log2 n + height) bits, and the convolution, the reduction of each
    ``Fraction`` and its printing each cost about the square of that per
    coefficient."""
    return order ** 3 * (order.bit_length() + height) ** 2


def _series_order_limit(height: int) -> int:
    """The largest order, at most ``SERIES_ORDER_LIMIT``, whose estimated
    cost at ``height`` is within that of the limit at small heights."""
    budget = _series_cost(SERIES_ORDER_LIMIT, SERIES_SMALL_HEIGHT)
    order = SERIES_ORDER_LIMIT
    while order and _series_cost(order, height) > budget:
        order -= 1
    return order


def _cmd_series(args) -> int:
    if args.q is not None or args.p is not None or args.s is not None:
        r, a, b, u0, v0 = _logistic_to_riccati(args)
    else:
        if args.r is None or args.a is None or args.b is None or args.u0 is None:
            raise UsageError("need --r, --a, --b and --u0 (or the logistic flags)")
        r, a, b, u0 = args.r, args.a, args.b, args.u0
        v0 = Fraction(1) if args.v0 is None else args.v0
    riccati = args.which == "riccati"
    height = series_height(r, a, b, u0, None if riccati else args.d)
    limit = _series_order_limit(height)
    if args.order > limit:
        raise UsageError(f"need --order <= {limit} at parameters of height "
                         f"{height}, got {args.order}")
    inst = instance(r, a, b, u0, d=args.d, v0=v0, order=args.order)
    series = riccati_series(inst) if riccati else v_series(inst)
    coefficients = [str(c) for c in series.coeffs]
    _emit(args.format, lambda: [coefficients],
          lambda: [json_object({"order": args.order,
                                "coefficients": coefficients}) + "\n"])
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


def _json_verdict(v: Verdict) -> str:
    """The verdict's JSON line, written by ``json_object``.  Every witness
    is the text of a number, a ``Poly`` or a tuple, or a fixed text of
    ``verify``, none of which JSON escapes; anything else raises."""
    return json_object(v.to_json_obj())


def _csv_verdict(v: Verdict) -> list[str]:
    """The verdict's csv row; its params column is the JSON text that the
    verdict made once, at construction."""
    return [
        v.identity,
        v._params_text,
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
          lambda: (_json_verdict(v) + "\n" for v in verdicts),
          lambda: map(_csv_verdict, verdicts))
    return 0 if all(v.passed for v in verdicts) else 1


FORMATS = ("plain", "json", "csv")
_RATIONAL = (parse_rational, None, False)
_INT = (int, None, False)
_FORMAT = (FORMATS, "plain", False)

# -h, and --help or a prefix of it that names no other option.
_HELP = ("-h", "--h", "--he", "--hel", "--help")

#: Command -> (its function, help line, positional argument, the choices of
#: the positional, {option: (converter or choices, default, required)}).
COMMANDS = {
    "table": (_cmd_table, "print a number table", "kind", TABLE_KINDS,
              {"--n": (int, None, True), "--format": _FORMAT}),
    "poly": (_cmd_poly, "print one polynomial of a family", "family", FAMILIES,
             {"--n": (int, None, True), "--a": _RATIONAL, "--b": _RATIONAL,
              "--d": _RATIONAL, "--format": _FORMAT}),
    "series": (_cmd_series, "Taylor coefficients of u or its companion v, from "
               "--r/--a/--b/--u0 or logistic --q/--p/--s", "which", ("riccati", "v"),
               {"--r": _RATIONAL, "--a": _RATIONAL, "--b": _RATIONAL,
                "--d": (parse_rational, Fraction(0), False), "--u0": _RATIONAL,
                "--v0": _RATIONAL, "--order": (int, None, True), "--q": _RATIONAL,
                "--p": _RATIONAL, "--s": _RATIONAL, "--format": _FORMAT}),
    "verify": (_cmd_verify, "run identity suites", "suite", SUITE_NAMES,
               {"--n-max": _INT, "--m-max": _INT, "--order": _INT,
                "--u0": _RATIONAL, "--a": _RATIONAL, "--b": _RATIONAL,
                "--d": _RATIONAL, "--tol": (float, None, False),
                "--format": _FORMAT}),
}


def _help(command: str) -> str:
    """The ``--help`` text of ``command``: usage, choices and options."""
    _, what, positional, choices, options = COMMANDS[command]
    lines = [f"usage: derivpoly {command} {positional.upper()} [options]",
             f"  {what}", f"  {positional.upper()}: one of {', '.join(choices)}"]
    for flag, (convert, default, required) in options.items():
        kind = ("{" + ",".join(convert) + "}" if isinstance(convert, tuple)
                else {int: "INT", float: "FLOAT"}.get(convert, "P/Q"))
        lines.append(f"  {flag} {kind}" + (" (required)" if required else ""
                     if default is None else f" (default {default})"))
    return "\n".join(lines)


def parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """Read ``argv`` (after ``derivpoly``) by ``COMMANDS``.

    Options take ``--opt value`` or ``--opt=value``, before or after the
    positional; a unique prefix names an option, the last of a repeated
    option wins and a value may start with ``-`` (``--r -1/2``).  ``-h`` or
    ``--help`` prints the help and exits 0; anything else that the table does
    not accept raises ``UsageError``.
    """
    command = argv[0] if argv else ""
    if command not in COMMANDS:
        if command in _HELP:
            print("\n\n".join(map(_help, COMMANDS)))
            raise SystemExit(0)
        raise UsageError(f"no command {command!r} (see -h)")
    _, _, positional, choices, options = COMMANDS[command]
    specs = {positional: (choices, None, True), **options}
    values = {name: spec[1] for name, spec in specs.items()}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in _HELP:
            print(_help(command))
            raise SystemExit(0)
        if token.startswith("-"):
            name, eq, text = token.partition("=")
            matches = [flag for flag in options if flag.startswith(name)]
            if name not in options and len(matches) != 1:
                raise UsageError(f"unknown or ambiguous option {token!r}")
            name = name if name in options else matches[0]
            if not eq:
                text = next(tokens, None)
                if text is None:
                    raise UsageError(f"{name} expects a value")
        elif values[positional] is None:
            name, text = positional, token
        else:
            raise UsageError(f"unexpected argument {token!r}")
        convert = specs[name][0]
        try:
            values[name] = (convert(text) if callable(convert)
                            else convert[convert.index(text)])
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"invalid {name} {text!r} (see -h)") from None
    missing = [name for name, spec in specs.items() if spec[2] and values[name] is None]
    if missing:
        raise UsageError(f"missing {', '.join(missing)}")
    return SimpleNamespace(command=command, **{
        name.lstrip("-").replace("-", "_"): value for name, value in values.items()})


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command of ``argv`` (default ``sys.argv[1:]``).  Bad input,
    from the parser or as the library's ``UsageError``, is a usage error: a
    message on stderr and exit 2; any other exception propagates.  The
    command runs without CPython's int-to-str digit limit, since exact
    output is the product; the caller's limit is restored."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parse_args(argv)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return COMMANDS[args.command][0](args)
        finally:
            sys.set_int_max_str_digits(limit)
    except UsageError as exc:
        prog = f"derivpoly {argv[0]}" if argv and argv[0] in COMMANDS else "derivpoly"
        print(f"{prog}: error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _drop_stdout() -> int:
    """Point fd 1 at ``os.devnull`` once its reader is gone, so that no later
    write or flush fails again, and return the exit code 1 (the advice of
    the ``signal`` module's documentation on SIGPIPE)."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 1


def run(argv: Sequence[str] | None = None) -> None:
    """Run ``main`` as a whole process and end it, without CPython's teardown;
    it never returns.

    The exit code is what ``main`` returns or the code of its
    ``SystemExit``.  The ``atexit`` handlers run and stdout and stderr are
    flushed, in the order of the interpreter's own shutdown, and then
    ``os._exit`` ends the process.  A reader that closed the pipe, before
    the first write or in the middle of the output, raises
    ``BrokenPipeError`` from ``main`` or the flush: stdout then goes to
    ``os.devnull`` and the process exits 1 with nothing on stderr.  If a
    flush fails otherwise, or the code is neither an int nor None,
    ``sys.exit`` leaves the process to the interpreter's own exit, which
    reports it as it always does.  Any other exception from ``main``
    propagates.
    """
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except BrokenPipeError:
        code = _drop_stdout()
    if code is None or isinstance(code, int):
        atexit._run_exitfuncs()
        try:
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:  # None when the descriptor was closed
                    stream.flush()
        except BrokenPipeError:
            code = _drop_stdout()
        except (OSError, ValueError):
            sys.exit(code)
        os._exit(code or 0)
    sys.exit(code)


if __name__ == "__main__":
    run()
