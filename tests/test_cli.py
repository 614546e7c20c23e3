import ast
import contextlib
import csv
import hashlib
import importlib.util
import inspect
import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import derivpoly.cli as cli
import derivpoly.verify as verify_mod
from derivpoly import derivative_polys, special_numbers
from derivpoly.derivative_polys import FAMILIES, FAMILY_LIMITS
from derivpoly.exact import UsageError, parse_rational
from derivpoly.special_numbers import TABLE_KINDS, TABLE_LIMITS, bernoulli_number
from derivpoly.verify import SUITE_NAMES

from conftest import FAULTS


#: Suite -> the option that bounds it.
BOUND_OPTIONS = {
    **dict.fromkeys(("theorem1", "theorem2", "theorem3", "lemma1",
                     "classical", "integrals", "relations"), "n_max"),
    "egf": "order", "grosset-veselov": "m_max",
}


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_cli_error(capsys, *argv):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(list(argv))
    capsys.readouterr()
    return excinfo.value.code


class TestTable:
    def test_eulerian_plain(self, capsys):
        code, out = run_cli(capsys, "table", "eulerian", "--n", "3")
        assert code == 0
        assert out.splitlines() == ["1", "1 1", "1 4 1"]

    def test_macmahon_plain(self, capsys):
        code, out = run_cli(capsys, "table", "macmahon", "--n", "4")
        assert code == 0
        assert out.splitlines()[-1] == "1 23 23 1"

    def test_bernoulli_plain(self, capsys):
        code, out = run_cli(capsys, "table", "bernoulli", "--n", "4")
        assert code == 0
        assert out.splitlines() == ["1", "-1/2", "1/6", "0", "-1/30"]

    def test_json_round_trip(self, capsys):
        code, out = run_cli(capsys, "table", "eulerian", "--n", "5",
                            "--format", "json")
        assert code == 0
        assert json.loads(out) == {"kind": "eulerian", "rows": [
            ["1"], ["1", "1"], ["1", "4", "1"], ["1", "11", "11", "1"],
            ["1", "26", "66", "26", "1"]]}

    def test_csv(self, capsys):
        code, out = run_cli(capsys, "table", "macmahon", "--n", "3",
                            "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["1", "1,1", "1,6,1"]

    def test_usage_errors(self, capsys):
        assert run_cli_error(capsys, "table", "eulerian", "--n", "0") == 2
        assert run_cli_error(capsys, "table", "fibonacci", "--n", "3") == 2
        assert run_cli_error(capsys, "table", "eulerian") == 2

    @pytest.mark.parametrize("kind", TABLE_KINDS)
    def test_n_past_limit_rejected(self, capsys, kind):
        limit = TABLE_LIMITS[kind]
        assert run_cli_error(capsys, "table", kind, "--n", str(limit + 1)) == 2

    def test_output_past_int_str_digit_limit(self, capsys):
        """B_448 is the first Bernoulli number whose numerator has more than
        640 digits, the lowest int-to-str limit CPython accepts.  ``main``
        prints it anyway and gives the caller back its own limit, also after
        a usage error.  The README's ``table bernoulli --n 2300`` stays within
        the table's own limit."""
        assert TABLE_LIMITS["bernoulli"] >= 2300
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out = run_cli(capsys, "table", "bernoulli", "--n", "460")
            assert sys.get_int_max_str_digits() == 640
            assert run_cli_error(capsys, "table", "bernoulli", "--n", "0") == 2
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(old)
        assert code == 0
        rows = out.splitlines()
        assert len(rows) == 461
        assert len(rows[448].split("/")[0]) > 640
        assert rows[448] == str(bernoulli_number(448))

    @pytest.mark.parametrize("kind", ["eulerian", "macmahon"])
    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    def test_streamed_table_prints_table_rows(self, capsys, kind, fmt):
        """The streamed table prints exactly the rows of ``table_rows``."""
        special_numbers.reset_caches()
        rows = special_numbers.table_rows(kind, 200)
        special_numbers.reset_caches()
        code, out = run_cli(capsys, "table", kind, "--n", "200",
                            "--format", fmt)
        assert code == 0
        assert out == _table_text(kind, rows, fmt)

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    def test_streamed_table_prints_faulty_rows_as_computed(
            self, capsys, request, fmt):
        """Under a faulty recurrence the rows are not palindromes, and the
        streamed table prints every entry as ``eulerian_row`` computes it,
        below and above the stored rows."""
        request.getfixturevalue("mutated_eulerian_recurrence")
        code, out = run_cli(capsys, "table", "eulerian", "--n", "200",
                            "--format", fmt)
        rows = [special_numbers.eulerian_row(n) for n in range(1, 201)]
        assert any(row != row[::-1] for row in rows)
        assert code == 0
        assert out == _table_text(
            "eulerian", [[str(v) for v in row] for row in rows], fmt)


def _table_text(kind, rows, fmt):
    """The text ``table`` prints for ``rows`` of ``kind`` in ``fmt``."""
    if fmt == "json":
        return json.dumps({"kind": kind, "rows": rows}, sort_keys=True) + "\n"
    sep = "," if fmt == "csv" else " "
    return "".join(sep.join(row) + "\n" for row in rows)


class TestPoly:
    def test_p_family(self, capsys):
        code, out = run_cli(capsys, "poly", "P", "--n", "2", "--a", "0",
                            "--b", "1")
        assert code == 0
        assert out.strip() == "0 -1 1"

    def test_q_family_json(self, capsys):
        code, out = run_cli(capsys, "poly", "Q", "--n", "2", "--a", "0",
                            "--b", "1", "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "family": "Q",
            "n": 2,
            "params": {"a": "0", "b": "1", "d": None},
            "coefficients": ["1", "-8", "8"],
        }

    def test_json_round_trip(self, capsys):
        from derivpoly.derivative_polys import family_poly
        from derivpoly.polyseries import Poly

        code, out = run_cli(capsys, "poly", "S", "--n", "3", "--a", "0",
                            "--b", "1", "--d", "1/3", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        expected = family_poly("S", 3, a=Fraction(0), b=Fraction(1),
                               d=Fraction(1, 3))
        assert [parse_rational(s) for s in obj["coefficients"]] == \
            list(expected.coeffs)

    @pytest.mark.parametrize("family, params", [
        ("P", ["--a", "1/3", "--b", "5/3"]),
        ("Q", ["--a", "1/3", "--b", "5/3"]),
        ("S", ["--a", "1/3", "--b", "5/3", "--d", "2/7"]),
    ])
    def test_r_is_refused(self, capsys, family, params):
        """P, Q and S do not depend on r, so ``poly`` takes no ``--r``: the
        command without it prints the member, and with it is a usage error
        that names the unknown option."""
        argv = ("poly", family, "--n", "6", *params)
        code, out = run_cli(capsys, *argv)
        assert code == 0 and out
        with pytest.raises(SystemExit) as excinfo:
            cli.main([*argv, "--r", "-1/2"])
        assert excinfo.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "--r" in err

    def test_e_family(self, capsys):
        code, out = run_cli(capsys, "poly", "E", "--n", "3")
        assert code == 0
        assert out.strip() == "0 1 4 1"

    def test_s_family_negative_shift(self, capsys):
        code, out = run_cli(capsys, "poly", "S", "--n", "1", "--a", "0",
                            "--b", "1", "--d", "-1/2")
        assert code == 0
        assert out.strip() == "-2 2"

    @pytest.mark.parametrize("argv, message", [
        (("poly", "P", "--n", "0", "--a", "0", "--b", "1"), "need n >= 1, got 0"),
        (("poly", "E", "--n", "-1"), "need n >= 0, got -1"),
    ])
    def test_n_below_first_member_rejected(self, capsys, argv, message):
        """The builder's refusal is the command's usage error, as it is."""
        with pytest.raises(SystemExit) as excinfo:
            cli.main(list(argv))
        assert excinfo.value.code == 2
        assert capsys.readouterr() == ("", f"derivpoly poly: error: {message}\n")

    def test_usage_errors(self, capsys):
        assert run_cli_error(capsys, "poly", "P", "--n", "2", "--a", "1",
                             "--b", "1") == 2
        assert run_cli_error(capsys, "poly", "P", "--n", "2", "--a", "0") == 2
        assert run_cli_error(capsys, "poly", "S", "--n", "1", "--a", "0",
                             "--b", "1") == 2
        assert run_cli_error(capsys, "poly", "Z", "--n", "1") == 2
        assert run_cli_error(capsys, "poly", "P", "--n", "0", "--a", "0",
                             "--b", "1") == 2
        # parameters the family does not depend on
        assert run_cli_error(capsys, "poly", "E", "--n", "3", "--a", "0",
                             "--b", "1", "--d", "5") == 2
        assert run_cli_error(capsys, "poly", "M", "--n", "2", "--r", "3") == 2
        assert run_cli_error(capsys, "poly", "Q", "--n", "2", "--a", "0",
                             "--b", "1", "--d", "5", "--format", "json") == 2

    @pytest.mark.parametrize("family", FAMILIES)
    def test_n_past_limit_rejected_before_any_work(self, capsys, monkeypatch,
                                                   family):
        """The limit itself reaches the family's builder; limit + 1 exits 2
        without calling it, naming the limit."""
        def work(*args, **kwargs):
            raise RuntimeError("work started")

        monkeypatch.setattr(derivative_polys, f"build_{family}", work)
        params = {"P": ["--a=0", "--b=1"], "Q": ["--a=0", "--b=1"],
                  "S": ["--a=0", "--b=1", "--d=0"]}.get(family, [])
        limit = FAMILY_LIMITS[family]
        with pytest.raises(RuntimeError):
            cli.main(["poly", family, *params, "--n", str(limit)])
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["poly", family, *params, "--n", str(limit + 1)])
        assert excinfo.value.code == 2
        assert f"need n <= {limit} for family {family}" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("family", ["P", "Q", "S"])
    def test_limit_at_the_budget_parameters_reaches_the_builder(
            self, capsys, monkeypatch, family):
        """At n = 1300 and a = 1/3, b = 5/3 (d = 2/3 for S), where the cost
        budget is set, the command passes the bound and reaches the
        builder; the build itself is not run."""
        def work(*args, **kwargs):
            raise RuntimeError("work started")

        monkeypatch.setattr(derivative_polys, f"build_{family}", work)
        d = ["--d", "2/3"] if family == "S" else []
        with pytest.raises(RuntimeError):
            cli.main(["poly", family, "--n", "1300", "--a", "1/3", "--b",
                      "5/3", *d])

    @pytest.mark.parametrize("family", ["P", "Q", "S"])
    def test_costly_parameters_rejected_before_any_work(self, capsys,
                                                        monkeypatch, family):
        """``poly P --n 1300 --a=123456/370367 --b=5/3`` took 18 s, twice
        the limit's build at a = 1/3: its estimated cost is over the
        budget, so it exits 2 at once, naming the reference build, without
        calling the builder; so do Q and S at the same parameters."""
        def work(*args, **kwargs):
            raise RuntimeError("work started")

        monkeypatch.setattr(derivative_polys, f"build_{family}", work)
        d = ["--d", "2/3"] if family == "S" else []
        start = time.perf_counter()
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["poly", family, "--n", "1300", "--a=123456/370367",
                      "--b=5/3", *d])
        assert time.perf_counter() - start < 0.5
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"family {family} at n = 1300 and these parameters" in err
        assert "(n = 1300 at a = 1/3, b = 5/3" in err


class TestSeries:
    def test_fixed_point(self, capsys):
        code, out = run_cli(capsys, "series", "riccati", "--r", "1", "--a", "0",
                            "--b", "1", "--u0", "0", "--order", "5")
        assert code == 0
        assert out.strip() == "0 0 0 0 0 0"

    def test_midpoint(self, capsys):
        code, out = run_cli(capsys, "series", "riccati", "--r", "1", "--a", "0",
                            "--b", "1", "--u0", "1/2", "--order", "2")
        assert code == 0
        assert out.strip() == "1/2 -1/4 0"

    def test_logistic_mapping_matches_direct_form(self, capsys):
        code, logistic = run_cli(capsys, "series", "riccati", "--q", "2",
                                 "--p", "3", "--s", "1", "--order", "8")
        assert code == 0
        code, direct = run_cli(capsys, "series", "riccati", "--r", "-1/2",
                               "--a", "2", "--b", "0", "--u0", "1/2",
                               "--order", "8")
        assert code == 0
        assert logistic == direct

    def test_v_series_json(self, capsys):
        code, out = run_cli(capsys, "series", "v", "--r", "1", "--a", "0",
                            "--b", "1", "--u0", "1/3", "--order", "3",
                            "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj == {"order": 3,
                       "coefficients": ["1", "-1/6", "-7/72", "13/432"]}
        series = verify_mod.v_series(
            verify_mod.instance(1, 0, 1, Fraction(1, 3), order=3))
        assert [parse_rational(c) for c in obj["coefficients"]] == \
            list(series.coeffs)

    def test_usage_errors(self, capsys):
        assert run_cli_error(capsys, "series", "riccati", "--r", "1", "--a",
                             "0", "--b", "1", "--u0", "0", "--order", "0") == 2
        assert run_cli_error(capsys, "series", "riccati", "--r", "0", "--a",
                             "0", "--b", "1", "--u0", "0", "--order", "3") == 2
        assert run_cli_error(capsys, "series", "riccati", "--order", "3") == 2
        assert run_cli_error(capsys, "series", "riccati", "--q", "2", "--p",
                             "3", "--order", "3") == 2
        assert run_cli_error(capsys, "series", "riccati", "--q", "2", "--p",
                             "3", "--s", "1", "--r", "1", "--order", "3") == 2
        assert run_cli_error(capsys, "series", "riccati", "--q", "-2", "--p",
                             "3", "--s", "1", "--order", "3") == 2
        assert run_cli_error(capsys, "series", "riccati", "--r", "1", "--a",
                             "0", "--b", "1", "--u0", "0", "--v0", "0",
                             "--order", "3") == 2
        assert run_cli_error(capsys, "series", "v", "--q", "2", "--p", "3",
                             "--s", "1", "--order", "3", "--v0", "5") == 2

    @pytest.mark.parametrize("which", ["riccati", "v"])
    def test_order_past_limit_rejected_before_any_work(self, capsys,
                                                       monkeypatch, which):
        """The limit itself reaches the oracle; limit + 1 exits 2 without
        building an instance or a series."""
        def work(*args, **kwargs):
            raise RuntimeError("work started")

        for name in ("instance", "riccati_series", "v_series"):
            monkeypatch.setattr(cli, name, work)
        argv = ["series", which, "--r", "1", "--a", "0", "--b", "1",
                "--u0", "1/3", "--order"]
        with pytest.raises(RuntimeError):
            cli.main([*argv, str(cli.SERIES_ORDER_LIMIT)])
        assert run_cli_error(capsys, *argv,
                             str(cli.SERIES_ORDER_LIMIT + 1)) == 2

    @pytest.mark.parametrize("which", ["riccati", "v"])
    def test_order_bound_falls_with_height(self, capsys, monkeypatch, which):
        """At u0 = 123456/370367 (height 23, against 7 for thirds) order 800
        reaches the oracle and order 1000, below the small-height limit,
        exits 2 without building an instance or a series, naming the
        lower limit."""
        def work(*args, **kwargs):
            raise RuntimeError("work started")

        for name in ("instance", "riccati_series", "v_series"):
            monkeypatch.setattr(cli, name, work)
        argv = ["series", which, "--r=1/3", "--a=2/3", "--b=4/3", "--d=4/3",
                "--u0=123456/370367", "--order"]
        with pytest.raises(RuntimeError):
            cli.main([*argv, "800"])
        with pytest.raises(SystemExit) as excinfo:
            cli.main([*argv, "1000"])
        assert excinfo.value.code == 2
        assert "need --order <= 867 at parameters of height 23" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("which,limit", [("riccati", 1300), ("v", 867)])
    def test_order_bound_reads_d_for_v_only(self, capsys, monkeypatch, which,
                                            limit):
        """u never reads d, so a tall d lowers the limit of ``series v``
        alone: order 1301 exits 2 without any work, naming each form's
        limit."""
        def work(*args, **kwargs):
            raise RuntimeError("work started")

        for name in ("instance", "riccati_series", "v_series"):
            monkeypatch.setattr(cli, name, work)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["series", which, "--r=1/3", "--a=2/3", "--b=4/3",
                      "--u0=1/3", "--d=123456/370367", "--order", "1301"])
        assert excinfo.value.code == 2
        assert f"need --order <= {limit} at parameters of height" in \
            capsys.readouterr().err

    def test_decimal_input_rejected(self, capsys):
        assert run_cli_error(capsys, "series", "riccati", "--r", "0.5", "--a",
                             "0", "--b", "1", "--u0", "0", "--order", "3") == 2


PINNED_COMMANDS = {
    "eulerian": ["table", "eulerian", "--n", "30"],
    "macmahon": ["table", "macmahon", "--n", "30"],
    "bernoulli": ["table", "bernoulli", "--n", "30"],
    "bernoulli-poly": ["table", "bernoulli-poly", "--n", "12"],
    "poly-S": ["poly", "S", "--n", "4", "--a", "0", "--b", "1", "--d=-1/2"],
    "series-v": ["series", "v", "--q", "2", "--p", "3", "--s", "1",
                 "--order", "8"],
    # degree-30 members at rational a, b, d: large numerators over large
    # denominators (a = -b makes P and Q sparse)
    **{f"poly-{f}-30-{tag}": ["poly", f, "--n", "30", f"--a={a}", f"--b={b}",
                              *([f"--d={d}"] if f == "S" else [])]
       for tag, (a, b, d) in {"third": ("1/3", "4/3", "-1/2"),
                              "symmetric": ("-2/3", "2/3", "5/3")}.items()
       for f in "PQS"},
    # the large outputs of the benchmark's tables workload, at its seed-1
    # parameters (perfbench/workloads.draw_params(1))
    "bernoulli-400": ["table", "bernoulli", "--n", "400"],
    "bernoulli-poly-120": ["table", "bernoulli-poly", "--n", "120"],
    "eulerian-200": ["table", "eulerian", "--n", "200"],
    "macmahon-200": ["table", "macmahon", "--n", "200"],
    **{f"series-{which}-200": ["series", which, "--order", "200", "--r=1/3",
                               "--a=2/3", "--b=4/3", "--d=4/3", "--u0=1/3"]
       for which in ("riccati", "v")},
}


PINNED_DIGESTS = [
    ("eulerian", "plain", "6197337cfff1a76207005b8ddb9b2925ae29c8f239ba27acdf21c776c21c6651"),
    ("eulerian", "json", "d652e901b24ef0665bb390b5f02912e5c557a80fe03ed60ea5ea9b65d10ce0b4"),
    ("eulerian", "csv", "a280bd8200172d9cf172c3ebb7654e0fd9757e7d90363dfe6dfa1e673d6679a9"),
    ("macmahon", "plain", "1f0ab73c20c65252799941b4d07857a052be4d37f7c80d2c13f62b081fc4ca4f"),
    ("macmahon", "json", "0a20660c68d8a69cac093f321d3af1a0555a70b4a80d0d8a03253335b4bb03c9"),
    ("macmahon", "csv", "ebaad92e218f5b789b64f6af386bffaccb5838d4e0919bcd9784d76a8686b76e"),
    ("bernoulli", "plain", "6634d1e65a5cf3340b5fdae8c0124957dfc26acbeabba646391d31a42dad085a"),
    ("bernoulli", "json", "792ba74b144b3d14e1f9b2fcdc9c6b831b65d986e33a09ef2e4283d4918a995f"),
    ("bernoulli", "csv", "6634d1e65a5cf3340b5fdae8c0124957dfc26acbeabba646391d31a42dad085a"),
    ("bernoulli-poly", "plain", "78ebc1fe560d9049f59f1ce66c24c966d6eee1d06b1484cd62c9eedc47881f8f"),
    ("bernoulli-poly", "json", "a01a8abda3a3d489d8cddfdbba8bc944ebf0731dfbb9161ee68b41cd9a5c674e"),
    ("bernoulli-poly", "csv", "31410263b85a85777ff5101d3b433582b8bc1d2f7adb9660d673dbf8bea3d67d"),
    ("poly-S", "plain", "59f3d4fa4f49df0002a1031f66c5cbe395e9af474516effbfb6c25dea49b4738"),
    ("poly-S", "json", "efd00457019a4352ec1eded0d4620e9fffe3fbfd8c7ae48928a3d5094f384059"),
    ("poly-S", "csv", "19d67b36e253dbd3c650e12f4193969ba9fb55053a51c987859d9c371cf7aff9"),
    ("series-v", "plain", "34ce52f2127eb902a476c4cdb8b3b73c4d6081cc645148ac7b4482560045c57c"),
    ("series-v", "json", "3a926a8efeb5b5376cbca1c08ba2287ff297c96af35a725af7df682742acd1dc"),
    ("series-v", "csv", "ca448c84d060dbc23bd5edc5e47944f96f4775b9d9984d3d7f38b21babc9321c"),
    ("poly-P-30-third", "json", "a0ca2eae40561332214262f2427dd3b1514b432916ccb22b849ac2a8b13273ab"),
    ("poly-Q-30-third", "json", "f5b19f31785a54b50c196b45c552812ddfe8976125c55baea89739bb57c5aa97"),
    ("poly-S-30-third", "json", "ab3139627f3f8d8c74be52a21baf9eee8a3170e2930b4021c20e66452953f90a"),
    ("poly-P-30-symmetric", "json", "9a9b3533406d396300426faf1f8ed3b1a9e6e6b99bd11d58dd2ba0c47a685538"),
    ("poly-Q-30-symmetric", "json", "059e9dd0490371f71d27d75678ff404a6519dd2c576d08c71dd2121a4d51bf9c"),
    ("poly-S-30-symmetric", "json", "7193bcf92f78718b14697b292535de12efc7069a43b056fa31254e10f74e6d99"),
    ("bernoulli-400", "plain", "a77333109bde33d8040f7587d7c904deb23c6e9334373cdb30ab749394077e59"),
    ("bernoulli-400", "json", "d8e2eac39f59571d4b3d1a84bd705b73c0d3c69069bca39a1c5cace8f2306bbb"),
    ("bernoulli-400", "csv", "a77333109bde33d8040f7587d7c904deb23c6e9334373cdb30ab749394077e59"),
    ("bernoulli-poly-120", "plain", "5d2b88e1957a03a40c9d7e1bb90adad9c3c9dfd5e8a7ed4155a4caa3a6bfa37a"),
    ("bernoulli-poly-120", "json", "d161df2b3451874685d0a9df417affe3da751e13661ce3908bf2904594c3de7f"),
    ("bernoulli-poly-120", "csv", "21860e8894e2167105733179c6f53e45169f84e8ed69e489cbfb4201998889c3"),
    ("eulerian-200", "plain", "9805bd997b9645f3f20a9eca805c5e5aa940854784630c35a1cb2ad9dc8472db"),
    ("eulerian-200", "json", "48f8630fa1af11b311a8b31802c150b2419108d41bb80fde7e54b9629fe620b0"),
    ("eulerian-200", "csv", "13ab466330367e015638a1dcdf18a60ed86728ff81e77a5feddc638832c20f01"),
    ("macmahon-200", "plain", "14056c0cc63bd3122e578ef119bf230f8a91045224ed9439fd949e050b5b74b3"),
    ("macmahon-200", "json", "4077ad22565beca7581adcf53dcf6b897a34d99b87e775b6a7625e1f766310d9"),
    ("macmahon-200", "csv", "52fa8569a9f9b486cf6b6e417fd2583f86be9458db3e769fd8c4ac836588b060"),
    ("series-riccati-200", "plain", "da9805b687c94a5e75651d464b0d132dd585ec58262aa5236b4b236835febea7"),
    ("series-riccati-200", "json", "8eb19624a11a334138cf3732b9ecc376c8578af80ebf813cd65d6c044ad249dd"),
    ("series-riccati-200", "csv", "3a63907d126a80a711580af4f6ddbe762a4de0c1634d214a6a697e8a45de2d75"),
    ("series-v-200", "plain", "28635174700f6e86a6fa1b64b387368151a780d1c88878096a19c36f346e503b"),
    ("series-v-200", "json", "2e99a889431db150a3bb80802efa7a1112022dd88f9822979758742911f421ec"),
    ("series-v-200", "csv", "37f82d128e5701adb36d63ad1da815fe51d94fa82b922a7ae50c7a371f6a53b5"),
]


@pytest.mark.parametrize("command, fmt, digest", PINNED_DIGESTS)
def test_output_pinned(capsys, command, fmt, digest):
    """``table``, ``poly`` and ``series`` stdout is pinned byte for byte."""
    code, out = run_cli(capsys, *PINNED_COMMANDS[command], "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_benchmark_table_digests_are_pinned():
    """Every table digest the benchmark checks (``perfbench/digests.json``)
    is the plain pin of the same command here."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"
    bench = json.loads(path.read_text())
    plain = {" ".join(PINNED_COMMANDS[command]): digest
             for command, fmt, digest in PINNED_DIGESTS if fmt == "plain"}
    assert bench == {command: plain.get(command) for command in bench}


THEOREM3_20 = ("theorem3", "--n-max", "20")
INTEGRALS_24 = ("integrals", "--n-max", "24", "--a", "2/3", "--b", "4/3",
                "--d", "4/3")
CLASSICAL_40 = ("classical", "--n-max", "40")
GV_40 = ("grosset-veselov", "--m-max", "40")
EGF_16 = ("egf", "--order", "16", "--u0", "1/3")


class TestVerify:
    def test_small_suite_passes(self, capsys):
        code, out = run_cli(capsys, "verify", "lemma1", "--n-max", "4")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(line.startswith("PASS lemma1") for line in lines)

    def test_integral_suite_verdict_count(self, capsys):
        code, out = run_cli(capsys, "verify", "integrals", "--n-max", "12",
                            "--a", "0", "--b", "1")
        assert code == 0
        assert len(out.splitlines()) == 37

    @pytest.mark.parametrize("suite, bound, bounded", [
        ("relations", 1, {"substitution_E", "substitution_M", "integrality"}),
        ("integrals", 2, {"integral_P", "integral_Q", "integral_S"}),
    ])
    def test_n_max_bounds_every_verdict(self, capsys, suite, bound, bounded):
        code, out = run_cli(capsys, "verify", suite, "--n-max", str(bound),
                            "--format", "json")
        assert code == 0
        verdicts = [json.loads(line) for line in out.splitlines()]
        assert {v["identity"] for v in verdicts if "n" in v["params"]} == bounded
        assert max(v["params"].get("n", 0) for v in verdicts) == bound

    def test_json_lines_schema(self, capsys):
        code, out = run_cli(capsys, "verify", "egf", "--format", "json")
        assert code == 0
        for line in out.splitlines():
            obj = json.loads(line)
            assert obj["pass"] is True
            assert set(obj) == {"identity", "params", "pass", "first_failure",
                                "witness"}

    def test_json_lines_match_json_dumps(self):
        """``verify --format json`` writes each line without ``json``: the
        text is that of ``json.dumps(v.to_json_obj(), sort_keys=True)`` for
        every ``verify all`` verdict and for an inconclusive one, and a
        witness that JSON escapes has no line: it raises."""
        def reference(v):
            return json.dumps(v.to_json_obj(), sort_keys=True)

        inconclusive = verify_mod.Verdict("demo", {"tol": 1e-300}, False, 2,
                                          {"lhs": "0.5", "rhs": "1.0"},
                                          inconclusive=True)
        for v in [*verify_mod.run_suite("all"), inconclusive]:
            assert cli._json_verdict(v) == reference(v)
        for text in ('say "x"', "back\\slash", "\u00e9t\u00e9", "tab\there",
                     "\U0001d400"):
            v = verify_mod.Verdict("demo", {"n": 1}, False, 1,
                                   {"lhs": text, "rhs": "1"})
            with pytest.raises(ValueError):
                cli._json_verdict(v)

    @pytest.mark.parametrize("fault", FAULTS)
    def test_json_lines_under_every_fault(self, request, capsys, monkeypatch,
                                          fault):
        """Under each fault of ``FAULTS``, ``verify all --format json`` in
        process writes every line by ``json_object`` (a witness it has no
        text for would raise out of ``main``), and each line is the text of
        ``json.dumps(v.to_json_obj(), sort_keys=True)`` for its verdict:
        the FAIL lines' witnesses need no escaping."""
        request.getfixturevalue(fault)
        verdicts = []

        def recorded(*args, **kwargs):
            verdicts.extend(verify_mod.run_suite(*args, **kwargs))
            return verdicts

        monkeypatch.setattr(cli, "run_suite", recorded)
        code, out = run_cli(capsys, "verify", "all", "--format", "json")
        assert code == 1
        assert sum(not v.passed for v in verdicts) == FAULTS[fault][3]
        assert out.splitlines() == [
            json.dumps(v.to_json_obj(), sort_keys=True) for v in verdicts]

    def test_csv_output(self, capsys):
        code, out = run_cli(capsys, "verify", "lemma1", "--n-max", "2",
                            "--format", "csv")
        assert code == 0
        rows = out.splitlines()
        assert len(rows) == 2
        assert rows[0].startswith("lemma1,")

    def test_deterministic_output(self, capsys):
        _, first = run_cli(capsys, "verify", "egf")
        _, second = run_cli(capsys, "verify", "egf")
        assert first == second

    @pytest.mark.parametrize("fmt, digest", [
        ("plain", "4023c838e8c35c3b1d0071e15a408e5c149fe18269520586f3dd2892a09d070d"),
        ("json", "adcc5acb5358aba21d3a3d2bda9e5e2cb1741dae3e907775b8ede29dd88eb99a"),
        ("csv", "293e1d4a5d0cf19305b28117e2d401074d3b79ca62f9ed5b6f1de73d601c62df"),
    ])
    def test_verify_all_output_pinned(self, capsys, fmt, digest):
        """``verify all`` stdout is pinned byte for byte in every format."""
        code, out = run_cli(capsys, "verify", "all", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv, fmt, digest", [
        (THEOREM3_20, "plain", "4227ea1524743811958a13c4bdeea383022620df0c4d0431e979fffdfc520a8e"),
        (THEOREM3_20, "json", "b2cb08a2242874374f3f685a554aac70d0aa1c6c3caa7842ba5593cb241b37c5"),
        (THEOREM3_20, "csv", "8dac4504ef3ed42817a5a371a9dec72902256fb455e4785530d6b2fc7c4ecabc"),
        (INTEGRALS_24, "plain", "71cc155f114af02fe82e5eb420ef5009f6cc98b4208d54dd50d9303358e54e74"),
        (INTEGRALS_24, "json", "9c7d02f456e99ea164979eaf32af5f04b7804aa40332e00a8e8dfd05782c6002"),
        (INTEGRALS_24, "csv", "ffec2a8f792c9f50254f7fc60b9f5d771746a52dfe6c04de87179bebfd84173b"),
        (CLASSICAL_40, "plain", "3337e9b65da3fc414fe4f80a6871d4d7421bd6fd9a4b2814ef06fc9ac948a0db"),
        (CLASSICAL_40, "json", "522baac1a6c8ec1f47444fee4450608b05aab0130913e8838688d097a54d6575"),
        (CLASSICAL_40, "csv", "92c7734b395677033cbfc483e6b922fa857ed4ab8d15639e486142f09c93ec7d"),
        (GV_40, "plain", "4e0696f50a0ce566ad01a3f3e4f95b7e468db47154ce008986347b12027b98a3"),
        (GV_40, "json", "a0c3e02be86965e11e2172a7aeb54e9fa076c41e3016572272a8f6ab7ee88e08"),
        (GV_40, "csv", "69cafa3d703ff7e58e77c9f6c4c8953cde64212dffd18309ab5b3aabb165d3de"),
        (EGF_16, "plain", "12ea74046a793b6d68b5514b7cbdbad2caf139b41eb3ec656775c83305cf4700"),
        (EGF_16, "json", "fa897ae8d84dd70aecf4aa05ce1b67e82eb2c17c83166606e587d622a6134d26"),
        (EGF_16, "csv", "3da6f4c2478fa5cddd56b64b3f48326b73e586d10a36f2401618bea49af367f3"),
    ])
    def test_builder_suites_output_pinned(self, capsys, argv, fmt, digest):
        """The verify-deep workload's commands that read the builders or the
        Eulerian rows at raised bounds (theorem3, integrals, classical,
        grosset-veselov and egf at one u0) are pinned byte for byte in every
        format."""
        code, out = run_cli(capsys, "verify", *argv, "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_verdict_status_in_every_format(self, capsys, monkeypatch):
        verdicts = [
            verify_mod.Verdict("demo_pass", {"n": 1}, True),
            verify_mod.Verdict("demo_fail", {"n": 2}, False, 2,
                               {"lhs": "0", "rhs": "1"}),
            verify_mod.Verdict("demo_numeric", {"m": 1}, False, 1,
                               {"lhs": "0.5", "rhs": "0.25"},
                               inconclusive=True),
        ]
        monkeypatch.setattr(cli, "run_suite", lambda *a, **k: verdicts)
        code, out = run_cli(capsys, "verify", "lemma1")
        assert code == 1
        assert [line.split()[0] for line in out.splitlines()] == \
            ["PASS", "FAIL", "INCONCLUSIVE"]
        code, out = run_cli(capsys, "verify", "lemma1", "--format", "csv")
        assert code == 1
        assert [row[2] for row in csv.reader(out.splitlines())] == \
            ["pass", "fail", "inconclusive"]
        code, out = run_cli(capsys, "verify", "lemma1", "--format", "json")
        assert code == 1
        objs = [json.loads(line) for line in out.splitlines()]
        assert [obj["pass"] for obj in objs] == [True, False, False]
        assert [obj.get("inconclusive") for obj in objs] == [None, None, True]

    def test_failure_exit_code(self, capsys, monkeypatch):
        failing = verify_mod.Verdict("demo", {"n": 1}, False, 1,
                                     {"lhs": "0", "rhs": "1"})
        monkeypatch.setattr(cli, "run_suite", lambda *a, **k: [failing])
        code, out = run_cli(capsys, "verify", "lemma1")
        assert code == 1
        assert out.startswith("FAIL demo")
        assert "lhs=0" in out

    def test_usage_errors(self, capsys):
        assert run_cli_error(capsys, "verify", "everything") == 2
        assert run_cli_error(capsys, "verify", "lemma1", "--n-max", "0") == 2
        assert run_cli_error(capsys, "verify", "integrals", "--a", "0") == 2
        assert run_cli_error(capsys, "verify", "integrals", "--a", "1",
                             "--b", "1") == 2
        for tol in ("0", "nan", "inf", "1", "1e300"):
            assert run_cli_error(capsys, "verify", "grosset-veselov", "--tol",
                                 tol) == 2
        # options the suite does not honour
        assert run_cli_error(capsys, "verify", "all", "--n-max", "1", "--a",
                             "5", "--b", "7") == 2
        assert run_cli_error(capsys, "verify", "lemma1", "--u0", "1/2",
                             "--m-max", "9", "--order", "3") == 2
        assert run_cli_error(capsys, "verify", "integrals", "--d", "7") == 2
        assert run_cli_error(capsys, "verify", "theorem1", "--order", "5") == 2

    def test_tol_at_or_below_the_quadrature_bound_is_refused(self, capsys):
        """The quadrature accepts a sum only when two rounds differ by at
        most tol/2 less 8 ulps of the sum, so a tol at or below 16 ulps of
        the largest target, 64/21, could never pass: it is refused with exit
        2 and an empty stdout.  One ulp above that bound the suite runs, and
        8e-15 and the default 1e-8 pass."""
        bound = 16 * math.ulp(64 / 21)
        for tol in (1e-15, math.nextafter(bound, 0), bound):
            with pytest.raises(SystemExit) as excinfo:
                cli.main(["verify", "grosset-veselov", "--tol", repr(tol)])
            captured = capsys.readouterr()
            assert (excinfo.value.code, captured.out) == (2, ""), tol
            assert captured.err.startswith(
                "derivpoly verify: error: tol must exceed"), tol
        code, out = run_cli(capsys, "verify", "grosset-veselov", "--tol",
                            repr(math.nextafter(bound, 1)))
        assert code in (0, 1) and len(out.splitlines()) == 11
        for tol in ("8e-15", "1e-8"):
            assert run_cli(capsys, "verify", "grosset-veselov", "--tol",
                           tol)[0] == 0

    @pytest.mark.parametrize("suite", verify_mod._SUB_SUITES)
    def test_bound_below_one_names_the_suites_option(self, capsys, suite):
        """A bound below 1 is refused under the option that the suite
        takes, never under one that it refuses."""
        option = BOUND_OPTIONS[suite]
        flag = "--" + option.replace("_", "-")
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["verify", suite, flag, "0"])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: {option} must be >= 1, got 0\n")

    def test_egf_refuses_a_bad_order_before_a_bad_u0(self, capsys):
        """With both options bad, ``egf`` names the order, as it does when
        the order alone is bad."""
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["verify", "egf", "--order", "0", "--u0", "2"])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: order must be >= 1, got 0\n")

    def test_unknown_flag_rejected(self, capsys):
        assert run_cli_error(capsys, "verify", "lemma1", "--frobnicate") == 2

    def test_missing_subcommand_rejected(self, capsys):
        assert run_cli_error(capsys) == 2


def _json_status(obj: dict) -> str:
    assert set(obj) >= {"identity", "params", "pass", "first_failure",
                        "witness"}
    return ("pass" if obj["pass"] else
            "inconclusive" if obj.get("inconclusive") else "fail")


_TOL_BOUND = 16 * math.ulp(64 / 21)
#: (good, bad) option texts per converter: signs, zero padding and blanks
#: that parse; NaN, infinities, a zero denominator, decimals and empty
#: texts that do not; tolerances on either side of the quadrature's bound.
#: Sizes stay at or below the suites' defaults.
_TEXTS = {
    int: (["1", "3", "8", "007", "+2", " 4"],
          ["0", "-1", "", "1e2", "nan", "2.0"]),
    parse_rational: (["0", "1", "-1", "1/3", "-2/3", "5/3", "+1/2", "03/6"],
                     ["1/0", "", "nan", "inf", "0.5", "1/-3"]),
    float: (["1e-8", "1e-12", "8e-15", repr(math.nextafter(_TOL_BOUND, 1))],
            ["1e-15", repr(_TOL_BOUND), repr(math.nextafter(_TOL_BOUND, 0)),
             "0", "-1e-8", "1", "nan", "inf", "-inf", "", "1e300"]),
}


@st.composite
def _command_lines(draw):
    """An argv of a command of ``COMMANDS`` (or an unknown one): mostly a
    positional from its choices, its required options and any of the
    others (for a suite, mostly of those it takes), each with a good text
    for its converter three times in four, as ``--opt value`` or
    ``--opt=value``."""
    command = draw(st.sampled_from([*cli.COMMANDS, "tables"]))
    if command not in cli.COMMANDS:
        return [command, "eulerian", "--n", "3"]
    _, _, _, choices, options = cli.COMMANDS[command]
    argv = [command]
    if draw(st.integers(0, 9)):
        argv.append(draw(st.sampled_from([*choices, "nope"])))
    pool = list(options)
    suite = verify_mod.SUITES.get(argv[-1]) if command == "verify" else None
    if suite is not None and draw(st.integers(0, 3)):
        pool = ["--format", *("--" + name.replace("_", "-") for name in
                              inspect.signature(suite).parameters)]
    flags = [flag for flag, spec in options.items() if spec[2]]
    flags += draw(st.lists(st.sampled_from(pool), max_size=len(pool),
                           unique=True))
    for flag in flags:
        convert = options[flag][0]
        good, bad = ((convert, ("xml", "")) if isinstance(convert, tuple)
                     else _TEXTS[convert])
        text = draw(st.sampled_from(good if draw(st.integers(0, 3)) else bad))
        argv += ([f"{flag}={text}"] if draw(st.booleans()) else [flag, text])
    return argv


SERIES_ARGS = ("--r", "1", "--a", "0", "--b", "1", "--u0", "1/3")


class TestParser:
    """The parser reads every option form the README documents, and rejects
    bad input as a usage error (exit 2)."""

    @pytest.mark.parametrize("argv, spelled_out", [
        # --opt=value
        (("table", "eulerian", "--n=5", "--format=json"),
         ("table", "eulerian", "--n", "5", "--format", "json")),
        # options before the positional
        (("verify", "--n-max", "2", "lemma1"), ("verify", "lemma1", "--n-max", "2")),
        (("poly", "--n", "3", "--a", "0", "--b", "1", "P"),
         ("poly", "P", "--n", "3", "--a", "0", "--b", "1")),
        # bare negative rationals as values
        (("poly", "S", "--n", "4", "--a", "0", "--b", "1", "--d", "-1/2"),
         ("poly", "S", "--n", "4", "--a", "0", "--b", "1", "--d=-1/2")),
        (("poly", "P", "--n", "3", "--a", "-2", "--b", "-1/2"),
         ("poly", "P", "--n", "3", "--a=-2", "--b=-1/2")),
        # a unique prefix names an option
        (("verify", "lemma1", "--n", "2"), ("verify", "lemma1", "--n-max", "2")),
        (("series", "riccati", *SERIES_ARGS, "--ord", "3", "--form", "json"),
         ("series", "riccati", *SERIES_ARGS, "--order", "3", "--format", "json")),
        (("verify", "grosset-veselov", "--m", "2", "--t=1e-6"),
         ("verify", "grosset-veselov", "--m-max", "2", "--tol", "1e-6")),
        # the last of a repeated option wins
        (("table", "macmahon", "--n", "9", "--format", "csv", "--n", "4",
          "--format", "plain"), ("table", "macmahon", "--n", "4")),
    ])
    def test_form_matches_spelled_out_command(self, capsys, argv, spelled_out):
        code, out = run_cli(capsys, *argv)
        assert (code, out) == run_cli(capsys, *spelled_out)
        assert code == 0 and out

    @pytest.mark.parametrize("argv", [
        ("-h",), ("--help",), ("--he",), ("table", "-h"), ("poly", "--help"),
        ("series", "riccati", "--h"), ("verify", "lemma1", "--n-max", "2", "-h"),
    ])
    def test_help_exits_0_and_names_the_whole_table(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(list(argv))
        captured = capsys.readouterr()
        assert excinfo.value.code == 0 and captured.err == ""
        commands = [argv[0]] if argv[0] in cli.COMMANDS else list(cli.COMMANDS)
        for command in commands:
            _, _, _, choices, options = cli.COMMANDS[command]
            assert f"derivpoly {command} " in captured.out
            assert all(choice in captured.out for choice in choices)
            assert all(f"{flag} " in captured.out for flag in options)
            assert all(fmt in captured.out for fmt in cli.FORMATS)

    def test_table_is_the_command_line(self):
        """The table holds the commands, options and choices of the README,
        so the help generated from it cannot drift from what is parsed."""
        shape = {command: (spec[2], spec[3], list(spec[4]))
                 for command, spec in cli.COMMANDS.items()}
        assert shape == {
            "table": ("kind", TABLE_KINDS, ["--n", "--format"]),
            "poly": ("family", FAMILIES,
                     ["--n", "--a", "--b", "--d", "--format"]),
            "series": ("which", ("riccati", "v"),
                       ["--r", "--a", "--b", "--d", "--u0", "--v0", "--order",
                        "--q", "--p", "--s", "--format"]),
            "verify": ("suite", SUITE_NAMES,
                       ["--n-max", "--m-max", "--order", "--u0", "--a", "--b",
                        "--d", "--tol", "--format"]),
        }

    REJECTED = [
        (),                                               # no command
        ("tables", "eulerian", "--n", "3"),               # unknown command
        ("--format", "json", "table", "eulerian", "--n", "3"),
        ("table", "eulerian", "--n", "3", "--frobnicate"),  # unknown option
        ("table", "eulerian", "--n", "3", "-x"),
        ("table", "eulerian", "--n", "3", "--=1"),       # ambiguous prefix
        ("table", "eulerian", "--n"),                     # missing value
        ("table", "eulerian", "--n", "three"),            # bad int
        ("table", "eulerian", "--n", "2.0"),
        ("verify", "grosset-veselov", "--tol", "small"),  # bad float
        ("poly", "S", "--n", "2", "--a", "0", "--b", "1", "--d", "0.5"),
        ("poly", "S", "--n", "2", "--a", "0", "--b", "1", "--d", "1/0"),
        ("table", "fibonacci", "--n", "3"),               # choice outside the list
        ("table", "eulerian", "--n", "3", "--format", "xml"),
        ("table", "eulerian", "eulerian", "--n", "3"),    # a second positional
        ("table", "eulerian"),                            # missing required option
        ("series", "riccati", *SERIES_ARGS),
        ("table", "--n", "3"),                            # missing positional
    ]

    @pytest.mark.parametrize("argv", REJECTED + [
        ("table", "eulerian", "--n", "0"),                # the library's UsageError
        ("poly", "E", "--n", "-1"),
        ("verify", "egf", "--order", "0"),
        ("verify", "egf", "--u0", "1"),
        ("series", "riccati", "--q", "2", "--order", "3"),  # the CLI's own check
    ])
    def test_rejection_exits_2_with_empty_stdout(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(list(argv))
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert captured.out == ""
        prog = f"derivpoly {argv[0]}" if argv and argv[0] in cli.COMMANDS \
            else "derivpoly"
        assert captured.err.startswith(f"{prog}: error: ")

    @pytest.mark.parametrize("argv", REJECTED)
    def test_parser_errors_are_usage_errors(self, argv):
        with pytest.raises(UsageError):
            cli.parse_args(argv)

    def test_cli_checks_raise_usage_errors(self):
        assert issubclass(UsageError, ValueError)
        for argv in (("series", "riccati", "--order", "3"),
                     ("series", "v", "--q", "2", "--p", "3", "--s", "-1",
                      "--order", "3"),
                     ("series", "v", "--q", "2", "--p", "3", "--s", "1",
                      "--u0", "1/2", "--order", "3")):
            args = cli.parse_args(argv)
            with pytest.raises(UsageError):
                cli.COMMANDS[args.command][0](args)

    @settings(max_examples=150, deadline=None)
    @given(argv=_command_lines())
    def test_every_command_line_ends_in_output_or_a_usage_error(self, argv):
        """Command lines drawn from ``COMMANDS``, with good and bad values
        for each converter, end in one of two ways and never in a traceback:
        exit 0 (or 1 for ``verify``) with well-formed output, or exit 2 with
        an empty stdout and one ``derivpoly CMD: error:`` line."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        out, err = out.getvalue(), err.getvalue()
        if code == 2:
            prog = "derivpoly " + argv[0] if argv[0] in cli.COMMANDS \
                else "derivpoly"
            assert out == ""
            assert len(err.splitlines()) == 1
            assert err.startswith(f"{prog}: error: ")
            return
        assert err == "" and out.endswith("\n")
        if argv[0] != "verify":
            assert code == 0
            return
        lines, fmt = out.splitlines(), cli.parse_args(argv).format
        if fmt == "json":
            statuses = [_json_status(json.loads(line)) for line in lines]
        elif fmt == "csv":
            statuses = [row[2] for row in csv.reader(lines) if len(row) == 6]
        else:
            statuses = [line.split(" ")[0].lower() for line in lines]
        assert len(statuses) == len(lines)
        assert set(statuses) <= {"pass", "fail", "inconclusive"}
        assert code == (0 if set(statuses) == {"pass"} else 1)

    def test_main_reads_sys_argv(self, capsys, monkeypatch):
        """``run``, the process entry, calls ``main()`` with no argument."""
        monkeypatch.setattr(sys, "argv", ["derivpoly", "table", "eulerian",
                                          "--n", "3"])
        assert cli.main() == 0
        assert capsys.readouterr().out == "1\n1 1\n1 4 1\n"


ROOT = Path(cli.__file__).resolve().parents[2]


def _python(*args, site=False, **kwargs):
    """Run ``python args`` on the package sources and capture the bytes of
    stdout and stderr.  Without ``site``, ``-S`` keeps site hooks of the
    environment out of the picture."""
    kwargs = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **kwargs}
    return subprocess.run([sys.executable, *([] if site else ["-S"]), *args],
                          env={"PYTHONPATH": str(ROOT / "src")}, **kwargs)


def test_module_usage_error_exits_2():
    """``python -m derivpoly`` with bad input: exit 2, an error on stderr,
    nothing on stdout."""
    proc = _python("-m", "derivpoly", "table", "eulerian", "--n", "0")
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert b"derivpoly table: error:" in proc.stderr


@pytest.mark.parametrize("argv, head", [
    (("table", "eulerian", "--n", "3"), b"1\n1 1\n1 4 1\n"),
    (("-h",), b"usage: derivpoly table KIND [options]\n"),
], ids=["table", "help"])
def test_module_success_exits_0(argv, head):
    """A table and the help: exit 0, the output, nothing on stderr."""
    proc = _python("-m", "derivpoly", *argv)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.startswith(head)


#: Run the package as ``python -m derivpoly`` does, after a -c script's setup.
RUN_MODULE = "runpy.run_module('derivpoly', run_name='__main__', alter_sys=True)"


def _with_patched_eulerian_step(patch, *argv):
    """Run ``python -m derivpoly argv`` with the Eulerian recurrence's step
    replaced by ``patch``, an expression of the correct ``step``."""
    script = ("import runpy\nfrom derivpoly import special_numbers\n"
              "step = special_numbers._eulerian_next_row\n"
              f"special_numbers._eulerian_next_row = {patch}\n{RUN_MODULE}")
    return _python("-c", script, *argv)


def test_module_failing_verify_exits_1():
    """The off-by-one Eulerian recurrence of the fault table fails a
    verdict."""
    proc = _with_patched_eulerian_step(
        "lambda n, prev: [x + left for x, left in zip(step(n, prev), (*prev, 0))]",
        "verify", "classical")
    assert (proc.returncode, proc.stderr) == (1, b"")
    assert proc.stdout.startswith(b"FAIL classical")


def test_module_internal_value_error_exits_1():
    """A ValueError inside the library ends in a traceback and exit 1, not
    in a usage error's exit 2.  The table streams its rows, so row 1, made
    before the faulty step, is already written."""
    proc = _with_patched_eulerian_step("lambda n, prev: int('kernel fault')",
                                       "table", "eulerian", "--n", "3")
    assert (proc.returncode, proc.stdout) == (1, b"1\n")
    assert proc.stderr.startswith(b"Traceback (most recent call last):")
    assert proc.stderr.endswith(b"ValueError: invalid literal for int() "
                                b"with base 10: 'kernel fault'\n")


def test_module_runs_atexit_handlers_before_flushing():
    """A handler registered before the run still writes, also text that a
    line-buffered stderr holds until it is flushed."""
    script = ("import atexit, runpy, sys\n"
              "atexit.register(sys.stderr.write, 'atexit handler ran')\n"
              + RUN_MODULE)
    proc = _python("-c", script, "table", "eulerian", "--n", "3")
    assert proc.returncode == 0
    assert proc.stdout == b"1\n1 1\n1 4 1\n"
    assert proc.stderr == b"atexit handler ran"


def test_module_writes_long_output_whole(capsys):
    """Several MB of stdout reach the reader in full before the process
    ends, the same bytes as from ``main`` in process."""
    argv = ["table", "macmahon", "--n", "200"]
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out.encode()
    proc = _python("-m", "derivpoly", *argv)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert len(proc.stdout) > 4_000_000
    assert hashlib.sha256(proc.stdout).digest() == \
        hashlib.sha256(expected).digest()


def test_module_closed_pipe_exits_1():
    """A reader gone before the first write: the final flush fails, stdout
    goes to ``os.devnull`` and the process exits 1 with nothing on stderr."""
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _python("-m", "derivpoly", "table", "eulerian", "--n", "3",
                       stdout=write)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_module_pipe_closed_mid_output_exits_1():
    """A reader gone after 10 bytes of 4.6 MB (``| head -c 10``): a write
    inside ``main`` fails, and the process exits 1 with nothing on stderr."""
    proc = subprocess.Popen(
        [sys.executable, "-S", "-m", "derivpoly", "table", "macmahon", "--n", "200"],
        env={"PYTHONPATH": str(ROOT / "src")}, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE)
    head = proc.stdout.read(10)
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert (head, proc.wait(), stderr) == (b"1\n1 1\n1 6 ", 1, b"")


#: Posix-spawns ``python argv`` with its stdout on ``os.devnull`` and prints
#: its exit code and peak RSS (kB).  A child's ``ru_maxrss`` starts from the
#: resident size of the process that spawned it, so the test runs this small
#: process in between.
SPAWNER = """import os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ,
                     file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)"""


@pytest.mark.parametrize("argv", [("poly", "E", "--n", "500"),
                                  ("table", "eulerian", "--n", "500"),
                                  ("table", "eulerian", "--n", "500",
                                   "--format", "json")])
def test_large_row_commands_keep_few_rows(argv):
    """A command that reads row 500 holds a few rows, not the triangle: its
    peak RSS stays under 30 MB (53 and 94 MB with every row memoized, and
    225 MB for a json table that collects its rows)."""
    proc = _python("-c", SPAWNER, "-S", "-m", "derivpoly", *argv)
    code, peak_kb = map(int, proc.stdout.split())
    assert (code, proc.stderr) == (0, b"")
    assert peak_kb < 30 * 1024


def test_benchmark_commands_match_main_in_process(capsys):
    """Every command of the benchmark's workloads at seed 1, and its no-work
    command, run as the benchmark runs them (``python -m derivpoly`` with
    site hooks on): the same stdout bytes and exit code as ``main`` in
    process."""
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    argvs = [argv for name in workloads.NAMES
             for argv in workloads.commands(name, 1)]
    for argv in [*argvs, workloads.SETUP_COMMAND]:
        code = cli.main(argv)
        out = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        proc = _python("-m", "derivpoly", *argv, site=True)
        assert (proc.returncode, hashlib.sha256(proc.stdout).hexdigest()) == \
            (code, out), argv


def test_console_script_and_module_share_one_entry():
    """The ``derivpoly`` script of ``pyproject.toml`` names the function
    that ``python -m derivpoly`` calls, so both end a process one way."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    script = pyproject["project"]["scripts"]["derivpoly"]
    tree = ast.parse(Path(cli.__file__).with_name("__main__.py").read_text())
    imported = {alias.asname or alias.name: f"derivpoly.{node.module}:{alias.name}"
                for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    called = [imported.get(node.value.func.id) for node in tree.body
              if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)]
    assert called == [script] == ["derivpoly.cli:run"]


def test_import_loads_no_dataclasses_inspect_json_or_csv():
    """Start-up stays lean: importing the CLI pulls in neither ``dataclasses``
    nor ``inspect`` (with ``ast``, ``dis`` and ``tokenize`` behind them),
    neither ``json`` nor ``csv``, neither ``argparse`` nor the ``gettext``
    and ``locale`` behind it, and not ``typing``, which no annotation needs
    at run time.  Whole plain ``table`` and ``verify`` commands, run in
    turn, load none of them either (the verdicts' order needs no ``json``),
    nor do json ``verify``, ``table``, ``poly`` and ``series`` commands
    (``verify.json_object`` writes all their JSON), and a csv ``verify``
    after them loads only ``csv``."""
    code = ("import sys, derivpoly.cli; "
            "lean = ('dataclasses', 'inspect', 'json', 'csv', 'argparse', "
            "'gettext', 'locale', 'typing'); "
            "report = lambda: print(*[m for m in lean if m in sys.modules], "
            "sep=',', file=sys.stderr); "
            "report(); "
            "derivpoly.cli.main(['table', 'eulerian', '--n', '1']); report(); "
            "derivpoly.cli.main(['verify', 'classical', '--n-max', '3']); report(); "
            "derivpoly.cli.main(['verify', 'classical', '--n-max', '3', "
            "'--format', 'json']); report(); "
            "derivpoly.cli.main(['table', 'bernoulli', '--n', '2', "
            "'--format', 'json']); report(); "
            "derivpoly.cli.main(['poly', 'E', '--n', '2', "
            "'--format', 'json']); report(); "
            "derivpoly.cli.main(['series', 'v', '--r', '1', '--a', '0', "
            "'--b', '1', '--u0', '1/3', '--order', '2', "
            "'--format', 'json']); report(); "
            "derivpoly.cli.main(['verify', 'classical', '--n-max', '3', "
            "'--format', 'csv']); report()")
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == [b""] * 7 + [b"csv"]
    assert proc.stdout.splitlines()[:2] == [b"1", b"PASS classical n=1"]
