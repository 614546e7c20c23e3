import csv
import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import derivpoly.cli as cli
import derivpoly.verify as verify_mod
from derivpoly import derivative_polys
from derivpoly.derivative_polys import FAMILIES, FAMILY_LIMITS
from derivpoly.exact import UsageError, parse_rational
from derivpoly.special_numbers import TABLE_KINDS, TABLE_LIMITS, bernoulli_number
from derivpoly.verify import SUITE_NAMES


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
            "params": {"r": None, "a": "0", "b": "1", "d": None},
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

    def test_e_family(self, capsys):
        code, out = run_cli(capsys, "poly", "E", "--n", "3")
        assert code == 0
        assert out.strip() == "0 1 4 1"

    def test_s_family_negative_shift(self, capsys):
        code, out = run_cli(capsys, "poly", "S", "--n", "1", "--a", "0",
                            "--b", "1", "--d", "-1/2")
        assert code == 0
        assert out.strip() == "-2 2"

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
    ("poly-S", "json", "bbbc45a9bd61271f4e9cdad81e9c536c27178cdb6d1248ede0f77d7b60ee70e1"),
    ("poly-S", "csv", "19d67b36e253dbd3c650e12f4193969ba9fb55053a51c987859d9c371cf7aff9"),
    ("series-v", "plain", "34ce52f2127eb902a476c4cdb8b3b73c4d6081cc645148ac7b4482560045c57c"),
    ("series-v", "json", "3a926a8efeb5b5376cbca1c08ba2287ff297c96af35a725af7df682742acd1dc"),
    ("series-v", "csv", "ca448c84d060dbc23bd5edc5e47944f96f4775b9d9984d3d7f38b21babc9321c"),
    ("poly-P-30-third", "json", "c0a96c654d4ec015c4d0fde5fbe2e94066b557fafba90db94c680aa2b58e3b98"),
    ("poly-Q-30-third", "json", "3c5500a3814fc97401b85970eeb82efe790ecb0067b95a0b73c2a827b49ab412"),
    ("poly-S-30-third", "json", "0922b980f3aa58f931d2eac18acf8355a39c0f4df01d6d7eb4b7461aecf8f11c"),
    ("poly-P-30-symmetric", "json", "af8945d039d728ae5a7e080ad39f62f175f970a87a2294c9464b1ccbf5e95204"),
    ("poly-Q-30-symmetric", "json", "a2699f7cc3cd0c15cdc274ee259508164800cd9a190ab195526c7bd36c55a575"),
    ("poly-S-30-symmetric", "json", "4b06242c2feff349e17e8e51f262d7e1a730eec4185b17f373cc1da031e32a88"),
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
        ("relations", 1, {"substitution_E", "substitution_M", "homogeneity_Q",
                          "integrality"}),
        ("integrals", 2, {"integral_P", "integral_Q", "integral_S",
                          "integral_P_symmetric"}),
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
        ("plain", "849973269dea95b10042f22340cd40dd5da5698f19f5a7911112dcecec490dfc"),
        ("json", "9b3088caf0f9be3c9cfcab4e88a03650b64cf213cb47294859f166cf26397263"),
        ("csv", "a3fc5f37d5f2e116be562dac6b944e9a94a5e07ac4d928d134e1dffbd5110662"),
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
        (EGF_16, "plain", "8928c481e6047b66ea2c4613ec6ec3cb1812b2e94c568345437549a6571c771f"),
        (EGF_16, "json", "2923935413e931a02f64ae8fb68048f2e9cb7a8cc8df620ca11ab96e9e1d0754"),
        (EGF_16, "csv", "d8bc32f559c703441b0add62c57a560c405b5bac081a193f0b1bd935c6fb5573"),
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

    def test_unknown_flag_rejected(self, capsys):
        assert run_cli_error(capsys, "verify", "lemma1", "--frobnicate") == 2

    def test_missing_subcommand_rejected(self, capsys):
        assert run_cli_error(capsys) == 2


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
        (("poly", "P", "--n", "3", "--a", "-2", "--b", "1", "--r", "-1/2"),
         ("poly", "P", "--n", "3", "--a=-2", "--b", "1", "--r=-1/2")),
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
                     ["--n", "--r", "--a", "--b", "--d", "--format"]),
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
        ("table", "eulerian", "--n", "0"),                # the library's ValueError
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

    def test_main_reads_sys_argv(self, capsys, monkeypatch):
        """The console script calls ``main()`` with no argument."""
        monkeypatch.setattr(sys, "argv", ["derivpoly", "table", "eulerian",
                                          "--n", "3"])
        assert cli.main() == 0
        assert capsys.readouterr().out == "1\n1 1\n1 4 1\n"


def _python(*args):
    """Run ``python -S args`` on the package sources; ``-S`` keeps site hooks
    of the environment out of the picture."""
    src = Path(cli.__file__).resolve().parents[1]
    return subprocess.run([sys.executable, "-S", *args],
                          env={"PYTHONPATH": str(src)},
                          capture_output=True, text=True)


def test_module_usage_error_exits_2():
    """``python -m derivpoly`` with bad input: exit 2, an error on stderr,
    nothing on stdout."""
    proc = _python("-m", "derivpoly", "table", "eulerian", "--n", "0")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "derivpoly table: error:" in proc.stderr


def test_import_loads_no_dataclasses_inspect_json_or_csv():
    """Start-up stays lean: importing the CLI pulls in neither ``dataclasses``
    nor ``inspect`` (with ``ast``, ``dis`` and ``tokenize`` behind them),
    neither ``json`` nor ``csv``, which only their own formats and the verdict
    sort load, and neither ``argparse`` nor the ``gettext`` and ``locale``
    behind it; a whole plain ``table`` command loads none of them either."""
    code = ("import sys, derivpoly.cli; "
            "lean = ('dataclasses', 'inspect', 'json', 'csv', 'argparse', "
            "'gettext', 'locale'); "
            "print(*[m for m in lean if m in sys.modules], sep=','); "
            "derivpoly.cli.main(['table', 'eulerian', '--n', '1']); "
            "print(*[m for m in lean if m in sys.modules], sep=',')")
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["", "1", ""]
