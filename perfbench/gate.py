"""Correctness gate for the outputs of one pass over a workload.

``check_pass`` takes the argv lists and the (exit code, stdout bytes) of each
command and returns, per command, the list of problems found; an empty list
means the command passed.  The checks are independent of the program: table
outputs are compared with stored digests and row sums, series coefficients
are checked against their ODE recurrences with this file's own ``Fraction``
code, and verdict lines must all be PASS, with the same verdict set in every
``verify all`` format.

The digests in ``digests.json`` are the SHA-256 of the plain stdout of each
fixed-size table command at the commit that defined the benchmark.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from fractions import Fraction
from pathlib import Path

DIGESTS = json.loads((Path(__file__).with_name("digests.json")).read_text())


def digest(out: bytes) -> str:
    return hashlib.sha256(out).hexdigest()


def _option(argv: list[str], name: str, default=None) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else default


def verdicts(argv: list[str], text: str) -> list[tuple[str, str]]:
    """(status, key) per verdict of a verify output, in any format.

    The status is pass, fail or inconclusive; the key is the identity and its
    sorted parameters as the plain format prints them.
    """
    fmt = _option(argv, "--format", "plain")
    if fmt == "plain":
        out = []
        for line in text.splitlines():
            status, _, key = line.partition(" ")
            out.append((status.lower(), key))
        return out
    if fmt == "csv":
        rows = [(row[2], row[0], json.loads(row[1]))
                for row in csv.reader(io.StringIO(text))]
    else:
        rows = []
        for line in text.splitlines():
            obj = json.loads(line)
            status = ("pass" if obj["pass"] else
                      "inconclusive" if obj.get("inconclusive") else "fail")
            rows.append((status, obj["identity"], obj["params"]))
    return [(status, " ".join([identity] + [f"{k}={params[k]}" for k in sorted(params)]))
            for status, identity, params in rows]


def _triangle_rows(text: str, n: int, row_sum, problems: list[str]) -> None:
    rows = [[int(v) for v in line.split(" ")] for line in text.splitlines()]
    if len(rows) != n:
        problems.append(f"expected {n} rows, got {len(rows)}")
    for i, row in enumerate(rows, start=1):
        if len(row) != i or sum(row) != row_sum(i):
            problems.append(f"row {i} has the wrong length or sum")
            return


def _series_params(argv: list[str]) -> dict:
    return {k: Fraction(_option(argv, f"--{k}"))
            for k in ("r", "a", "b", "d", "u0")}


def _check_riccati(argv, c: list[Fraction], problems: list[str]) -> None:
    """(n+1) c_{n+1} = r ([z^n]u^2 - (a+b) c_n + ab [n = 0])."""
    p = _series_params(argv)
    if c[0] != p["u0"]:
        problems.append("u(0) != u0")
    s, q = p["a"] + p["b"], p["a"] * p["b"]
    for n in range(len(c) - 1):
        conv = sum(c[i] * c[n - i] for i in range(n + 1))
        if (n + 1) * c[n + 1] != p["r"] * (conv - s * c[n] + (q if n == 0 else 0)):
            problems.append(f"riccati recurrence fails at n={n}")
            return


def _check_v(argv, w: list[Fraction], c: list[Fraction] | None,
             problems: list[str]) -> None:
    """(n+1) w_{n+1} = r ([z^n](v u) + (d - (a+b)/2) w_n), v(0) = 1."""
    if c is None or len(c) != len(w):
        problems.append("no checked riccati series with the same parameters")
        return
    p = _series_params(argv)
    if w[0] != 1:
        problems.append("v(0) != 1")
    shift = p["d"] - (p["a"] + p["b"]) / 2
    for n in range(len(w) - 1):
        conv = sum(w[i] * c[n - i] for i in range(n + 1))
        if (n + 1) * w[n + 1] != p["r"] * (conv + shift * w[n]):
            problems.append(f"v recurrence fails at n={n}")
            return


def check_pass(argvs: list[list[str]],
               results: list[tuple[int, bytes]]) -> list[list[str]]:
    """Problems per command of one pass; ``results`` is (exit code, stdout)."""
    report: list[list[str]] = []
    verdict_sets = []
    riccati: dict[tuple, list[Fraction]] = {}
    for argv, (code, out) in zip(argvs, results):
        problems: list[str] = []
        report.append(problems)
        if code != 0:
            problems.append(f"exit code {code}")
        text = out.decode()
        key = " ".join(argv)
        if argv[0] == "verify":
            found = verdicts(argv, text)
            problems.extend(f"verdict {status}: {name}"
                            for status, name in found if status != "pass")
            if not found:
                problems.append("no verdicts printed")
            keys = sorted(key for _, key in found)
            if argv[1] == "all":
                verdict_sets.append((problems, keys))
        elif argv[0] == "table":
            if DIGESTS.get(key) != digest(out):
                problems.append("table output does not match its digest")
            n = int(_option(argv, "--n"))
            if argv[1] == "eulerian":
                _triangle_rows(text, n, math.factorial, problems)
            elif argv[1] == "macmahon":
                _triangle_rows(text, n, lambda m: 2 ** (m - 1) * math.factorial(m - 1),
                               problems)
        elif argv[0] == "series":
            coeffs = [Fraction(v) for v in text.split()]
            if len(coeffs) != int(_option(argv, "--order")) + 1:
                problems.append("wrong number of coefficients")
            params = tuple(argv[2:])
            if argv[1] == "riccati":
                _check_riccati(argv, coeffs, problems)
                if not problems:
                    riccati[params] = coeffs
            else:
                _check_v(argv, coeffs, riccati.get(params), problems)
        else:
            problems.append(f"no check for command {key!r}")
    if verdict_sets:
        first = verdict_sets[0][1]
        for problems, keys in verdict_sets[1:]:
            if keys != first:
                problems.append("verdict set differs between formats")
    return report
