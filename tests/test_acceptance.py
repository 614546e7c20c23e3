"""Acceptance suite: one test per release criterion.

Each test prints a ``criterion N: PASS/FAIL`` line through the terminal
reporter (see conftest) on top of the usual pytest outcome.  Bounds and
tolerances are fixed here, not configurable: exact checks use equality of
rationals, the single numeric check uses 1e-8.
"""

import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import FunctionType

import pytest

import derivpoly.cli as cli
import derivpoly.verify as V
from derivpoly import derivative_polys, polyseries
from derivpoly import special_numbers as sn
from derivpoly.derivative_polys import (RiccatiParams, build_P, build_Q,
                                       build_S)
from derivpoly.polyseries import Poly, X

from conftest import FAULTS


def criterion(label):
    def deco(fn):
        fn._criterion = label
        return fn
    return deco


@criterion("criterion 1 (Eulerian triangle: anchor row, recurrence == explicit)")
def test_criterion_1_eulerian_triangle():
    start = time.perf_counter()
    assert sn.eulerian_row(3) == (1, 4, 1)
    for n in range(1, 13):
        for k in range(n):
            assert sn.eulerian(n, k) == sn.eulerian_explicit(n, k)
    assert time.perf_counter() - start < 1.0


@criterion("criterion 2 (series oracle vs closed form for u, n <= 15)")
def test_criterion_2_theorem1_oracle():
    start = time.perf_counter()
    for r, a, b, u0 in ((1, 0, 1, Fraction(1, 3)),
                        (-1, -1, 1, Fraction(0)),
                        (Fraction(-1, 2), 2, 0, Fraction(1, 2))):
        verdict = V.check_theorem("theorem1",
                                  V.instance(r, a, b, u0, order=15))
        assert verdict.passed, verdict.to_json_obj()
    assert time.perf_counter() - start < 1.0


@criterion("criterion 3 (series oracle vs closed form for v, n <= 12)")
def test_criterion_3_theorem23_oracle():
    instances = ((1, 0, 1, Fraction(1, 3)),
                 (-1, -1, 1, Fraction(0)),
                 (Fraction(-1, 2), 2, 0, Fraction(1, 2)))
    for r, a, b, u0 in instances:
        verdict = V.check_theorem("theorem2",
                                  V.instance(r, a, b, u0, order=12))
        assert verdict.passed, verdict.to_json_obj()
    for d in (Fraction(1, 4), Fraction(-1, 2)):
        for r, a, b, u0 in instances:
            verdict = V.check_theorem("theorem3",
                                      V.instance(r, a, b, u0, d=d, order=12))
            assert verdict.passed, verdict.to_json_obj()


@criterion("criterion 4 (EGF cross-multiplication suites at order 10)")
def test_criterion_4_egf_suites():
    start = time.perf_counter()
    u0 = Fraction(1, 3)
    verdicts = V.suite_egf(10, u0)
    assert [(v.identity, v.params.get("u0"), v.params.get("d"))
            for v in verdicts] == [
        ("egf_eulerian", None, None), ("egf_a", None, None),
        ("egf_macmahon", None, None), ("closed_form_f", "1/3", None),
        ("closed_form_h", "1/3", "0"), ("closed_form_h", "1/3", "1/4"),
        ("closed_form_h", "1/3", "-1/2")]
    for verdict in verdicts:
        assert verdict.passed, verdict.to_json_obj()
    assert time.perf_counter() - start < 5.0


@criterion("criterion 5 (binomial self-convolution identities, n <= 15)")
def test_criterion_5_polynomial_identities():
    for n in range(1, 16):
        assert V.check_lemma1(n).passed
    assert all(v.passed for v in V._classical_verdicts(range(1, 16)))


@criterion("criterion 6 (integral representations for P, Q, S)")
def test_criterion_6_integral_theorems():
    pairs = ((0, 1), (-1, 1), (3, -2))
    for a, b in pairs:
        verdicts = V.suite_integrals(20, a, b)
        assert _ns(verdicts, "integral_P") == list(range(1, 21))
        assert _ns(verdicts, "integral_Q") == list(range(0, 21))
        assert all(v.passed for v in verdicts)
    triples = ((0, 1, Fraction(1, 3)), (-1, 1, Fraction(1, 2)), (2, 5, -1))
    for a, b, d in triples:
        verdicts = V.suite_integrals(12, a, b, d)
        assert _ns(verdicts, "integral_S") == list(range(1, 13))
        assert all(v.passed for v in verdicts)


def _ns(verdicts, identity):
    """The n of each ``identity`` verdict, in the order given."""
    return [v.params["n"] for v in verdicts if v.identity == identity]


@criterion("criterion 7 (even Bernoulli integral: exact m <= 8, numeric m <= 3)")
def test_criterion_7_grosset_veselov():
    for m in range(1, 9):
        assert V.grosset_veselov_exact(m).passed
    for m in (1, 2, 3):
        assert V.grosset_veselov_numeric(m, 1e-8).passed
    # m = 1 anchor: the quotient integrates to 4/3, pinning B_2 = 1/6
    p = build_P(2, RiccatiParams(-1, -1, 1))
    quotient, rem = divmod(p * p, Poly([1, 0, -1]))
    assert rem.is_zero()
    assert quotient.definite_integral(-1, 1) == Fraction(4, 3)
    assert sn.bernoulli_number(2) == Fraction(1, 6)


@criterion("criterion 8 (integer coefficients of the reduced shifted family)")
def test_criterion_8_integrality():
    base = RiccatiParams(1, 0, 1)
    sp = RiccatiParams(1, 0, 1, Fraction(-1, 2))
    for n in range(1, 21):
        quotient, rem = divmod(build_P(n + 1, base), X)
        assert rem.is_zero()
        s = build_S(n, sp)
        reduced = s * Fraction(1, 2 ** n)
        assert reduced == quotient
        assert all(c.denominator == 1 for c in reduced.coeffs)


@criterion("criterion 9a (command line: verify all exits 0 in under 60 s)")
def test_criterion_9_verify_all_end_to_end():
    start = time.perf_counter()
    # run from the directory that holds the imported package, so the
    # subprocess finds it whether or not derivpoly is installed
    proc = subprocess.run(
        [sys.executable, "-m", "derivpoly", "verify", "all"],
        capture_output=True, text=True, timeout=120,
        cwd=Path(V.__file__).parents[1])
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert lines
    assert all(line.startswith("PASS") for line in lines)
    assert elapsed < 60.0


@criterion("criterion 9b (mutation sanity: off-by-one recurrence breaks 1/2/4/5)")
def test_criterion_9_mutation_sanity(mutated_eulerian_recurrence):
    # criterion 1 collapses: anchor row and route agreement both break
    assert sn.eulerian_row(3) != (1, 4, 1)
    assert any(sn.eulerian(n, k) != sn.eulerian_explicit(n, k)
               for n in range(1, 13) for k in range(n))
    # criterion 2 collapses: the ODE oracle no longer matches the family
    assert not V.check_theorem(
        "theorem1", V.instance(1, 0, 1, Fraction(1, 3), order=15)).passed
    # criterion 4 collapses for the checks that consume the triangle
    failed = {v.identity for v in V.suite_egf(10) if not v.passed}
    assert {"egf_eulerian", "egf_a"} <= failed
    # criterion 5 collapses
    assert not all(V.check_lemma1(n).passed for n in range(1, 16))
    assert not all(v.passed for v in V._classical_verdicts(range(1, 16)))


def test_mutation_of_horner_kernel_fails_built_families(mutated_horner_kernel):
    """An off-by-one coefficient in the P/Q Horner kernel fails the checks
    that build P, Q or S (substitution, integrals, lemma 1), and no theorem:
    theorems 1-3 read the rows at u0 through ``family_value``."""
    failed = {v.identity for v in V.run_suite("all") if not v.passed}
    assert {"substitution_E", "substitution_M", "integral_P", "integral_Q",
            "integral_S", "lemma1"} <= failed
    assert not failed & {"theorem1", "theorem2", "theorem3"}


def test_mutation_of_horner_kernel_fails_theorems(mutated_horner_kernel,
                                                  monkeypatch):
    """An off-by-one coefficient in the P/Q Horner kernel fails theorem 1
    (P against the u oracle) and theorem 2 (Q against the v oracle) when
    the theorems read the built members at u0: the fault is one the
    paper's statements catch, not only the checks that build a family."""
    builders = {"P": build_P, "Q": build_Q, "S": build_S}
    monkeypatch.setattr(V, "family_value", lambda letter, n, params, u:
                        builders[letter](n, params)._eval_pair(u))
    for theorem in ("theorem1", "theorem2"):
        assert not all(v.passed for v in V.run_suite(theorem))


def test_mutation_of_family_value_fails_theorems(mutated_family_value):
    """An off-by-one value at u0 fails theorem 1 (P against the u oracle),
    theorems 2 and 3 (Q and S against the v oracle) and the closed forms."""
    failed = {v.identity for v in V.run_suite("all") if not v.passed}
    assert failed == {"theorem1", "theorem2", "theorem3", "closed_form_f",
                      "closed_form_h"}


def test_mutation_of_poly_eval_fails_verify_all(mutated_poly_eval):
    """An off-by-one ``Poly.eval`` from degree 8 on fails ``verify all``:
    the integer evaluation layer is reached by the verdicts that evaluate a
    built polynomial, and by no theorem."""
    failed = {v.identity for v in V.run_suite("all") if not v.passed}
    assert {"integral_Q", "substitution_E", "substitution_M"} <= failed
    assert not failed & {"theorem1", "theorem2", "theorem3"}


def test_mutation_of_tangent_numbers_fails_verify_all(mutated_tangent_numbers):
    """A doubled T_3 (so a doubled B_6) fails the integral identities, whose
    right sides read Bernoulli numbers, and the even Bernoulli integrals."""
    failed = {v.identity for v in V.run_suite("all") if not v.passed}
    assert {"integral_P", "integral_Q", "grosset_veselov_exact"} <= failed


def test_mutation_of_shift_transform_fails_verify_all(mutated_shift_weight):
    """An off-by-one shift numerator in the shifted MacMahon row step, from
    which S is built, fails theorem 3 (S against the v oracle), the S
    integrals, the closed form of the S generating function and the
    integrality of the reduced S family."""
    failed = {v.identity for v in V.run_suite("all") if not v.passed}
    assert {"theorem3", "integral_S", "closed_form_h", "integrality"} <= failed


def test_mutation_of_exp_transform_fails_verify_all(mutated_exp_transform):
    """An off-by-one k = 2 weight in the binomial (Pascal) transform fails
    the generating-function identities and closed forms, and theorems 2 and
    3, whose v oracle sums by the same transform, but not theorem 1."""
    failed = {v.identity for v in V.run_suite("all") if not v.passed}
    assert failed == {"closed_form_f", "closed_form_h", "egf_a",
                      "egf_eulerian", "egf_macmahon", "theorem2", "theorem3"}


def test_mutation_of_series_oracle_fails_verify_all(mutated_series_oracle):
    """An off-by-one scaled coefficient x_5 in the integer u oracle fails
    theorem 1, and theorems 2 and 3 through the v oracle that reuses it."""
    failed = {v.identity for v in V.run_suite("all") if not v.passed}
    assert {"theorem1", "theorem2", "theorem3"} <= failed


@pytest.mark.parametrize("fault,failing",
                         [(name, row[3]) for name, row in FAULTS.items()])
def test_kernel_fault_fails_pinned_share_of_verify_all(request, fault,
                                                       failing):
    """Each fault of ``FAULTS`` fails exactly its pinned number of the 304
    ``verify all`` verdicts, in exactly its pinned identities.  The
    ``test_mutation_of_*`` tests above state, apart from these measured
    pins, the identities a fault must reach by what each check reads."""
    identities = FAULTS[fault][4]
    request.getfixturevalue(fault)
    verdicts = V.run_suite("all")
    failed = [v.identity for v in verdicts if not v.passed]
    assert (len(failed), len(verdicts)) == (failing, 304)
    assert set(failed) == identities


def _qualified(member) -> str:
    """``module.qualname`` of a function, method or property."""
    member = getattr(member, "fget", getattr(member, "__func__", member))
    return f"{member.__module__.rpartition('.')[2]}.{member.__qualname__}"


def _census() -> set:
    """Every module-level function and ``Poly`` and ``Series`` method of the
    modules that compute, as ``module.qualname``."""
    members = [obj for module in (polyseries, sn, derivative_polys, V)
               for obj in vars(module).values()
               if callable(obj) and not isinstance(obj, type)
               and getattr(obj, "__module__", None) == module.__name__]
    members += [obj for cls in (Poly, polyseries.Series)
                for obj in vars(cls).values()
                if isinstance(obj, (FunctionType, classmethod, staticmethod,
                                    property))]
    return {_qualified(obj) for obj in members}


#: Every member of the census that no row of ``FAULTS`` patches, with the
#: reason it needs no row of its own.
UNFAULTED = {
    **dict.fromkeys([
        *(f"verify.check_{name}" for name in (
            "theorem", "lemma1", "integrality", "eulerian_triangle",
            "macmahon_triangle")),
        "verify.grosset_veselov_exact", "verify.grosset_veselov_numeric",
        "verify._check_egf", "verify._classical_verdicts",
        "verify._substitution_verdicts", "verify._substitution_points",
        "verify._claim", "verify._integral_verdicts",
    ], "a check or its comparison: it states what a fault must break"),
    "derivative_polys._unpacked":
        "reads a failing side back for its witness: the fault digests of "
        "test_verdicts_under_fault_pinned pin it",
    "verify._scan":
        "the comparison of every check: a laxer one still passes correct "
        "kernels, so test_scan_stops_at_first_mismatch pins it on unequal "
        "pairs",
    "verify._cross_sides":
        "the comparison of every exact pair of rationals: a laxer one still "
        "passes correct kernels, so test_cross_sides_compare_as_fractions "
        "pins it on unequal pairs",
    **dict.fromkeys([
        *(f"verify.suite_{name}" for name in (
            "theorem1", "theorem2", "theorem3", "egf", "lemma1", "classical",
            "integrals", "grosset_veselov", "relations")),
        "verify.run_suite", "verify._suite_all", "verify._verdict_sort_key",
        "verify.instance", "verify._oracle_instances", "verify._params",
        "verify._upto", "verify._check_tol",
    ], "runs, labels or validates checks: the count of 304 pins it"),
    "verify.json_object":
        "labels checks and writes all JSON: the count of 304, test_cli's csv "
        "and json verdict digests and test_output_pinned's table, poly and "
        "series json digests pin it",
    **dict.fromkeys([
        "special_numbers.eulerian", "special_numbers.eulerian_row",
        "special_numbers.macmahon", "special_numbers.macmahon_row",
        "special_numbers._macmahon_triangle",
        "special_numbers.bernoulli_number", "special_numbers.bernoulli_numbers",
        "special_numbers._bernoulli_value_pair", "derivative_polys.build_P",
        "derivative_polys.build_Q", "derivative_polys.build_S",
        "derivative_polys._built_once", "derivative_polys._key_part",
        "derivative_polys._family_row",
        "verify.riccati_series", "verify.v_series",
    ], "a memo, lookup or scaling around kernels that have rows"),
    **dict.fromkeys([
        "derivative_polys.build_E", "derivative_polys.build_A",
        "derivative_polys.build_M",
    ], "a triangle row as a Poly: the recurrence rows reach it"),
    **dict.fromkeys([
        "polyseries.Poly.__sub__", "polyseries.Poly.__pow__",
    ], "built on a Poly operation that has a row"),
    **dict.fromkeys([
        "polyseries.Poly.eval", "polyseries.Poly.definite_integral",
        "special_numbers.bernoulli_value",
    ], "the public Fraction of an integer pair whose kernel has a row: no "
       "verdict calls it, and test_polyseries and test_special_numbers pin "
       "it"),
    **dict.fromkeys([
        "polyseries.Poly.__new__", "polyseries.Poly._over",
        "polyseries.Poly._coerce", "polyseries._exact",
        "polyseries.Poly.coefficient",
        "polyseries.Poly.coeffs", "polyseries.Poly.degree",
        "polyseries.Poly.is_zero",
    ], "the canonical form and its accessors: test_polyseries pins them"),
    "polyseries.Poly.__eq__":
        "equality: a laxer one still passes correct kernels, so no verdict "
        "can fail; test_scan_stops_at_first_mismatch pins it on unequal "
        "pairs",
    "polyseries.Poly.__hash__":
        "no verdict hashes a polynomial; tests/test_polyseries.py::"
        "TestCanonicalForm::test_constant_hashes_as_its_scalar does",
    **dict.fromkeys([
        "polyseries.Poly.to_coeff_strings", "polyseries.Poly.__str__",
        "special_numbers.table_rows", "special_numbers.table_lines",
        "derivative_polys.family_poly",
        "verify.series_height",
    ], "command-line input, bounds or output: test_cli's digests pin it"),
    "polyseries.Poly.__repr__":
        "no command prints it; pytest's failure messages do",
    "special_numbers._row_strings":
        "output only, with its own fault test "
        "(test_strings_do_not_assume_symmetric_rows)",
    "special_numbers.reset_caches": "the cache reset that every fault uses",
    **dict.fromkeys([
        "polyseries.Series.__init__", "polyseries.Series.coeffs",
    ], "holds the oracle's coefficients: the oracle rows reach it"),
    "polyseries.Series.__mul__":
        "no library code multiplies series: kept for perfbench/tracing.py's "
        "series_mul target until ROADMAP item 5 drops it",
}


def test_every_kernel_has_a_fault_or_a_reason():
    """The census of computing functions is exactly the members that a row
    of ``FAULTS`` patches plus those ``UNFAULTED`` gives a reason for, so a
    new helper needs a fault row or a stated reason."""
    faulted = {_qualified(vars(owner)[attribute])
               for owner, attribute, *_ in FAULTS.values()}
    assert not faulted & UNFAULTED.keys()
    assert _census() == faulted | UNFAULTED.keys()


def test_no_module_keeps_a_functools_memo():
    """Every memo is module state that ``special_numbers.reset_caches``
    drops before a fault is injected: no module-level callable of the
    computing modules or of the command line is a ``functools`` memo."""
    memos = [f"{module.__name__}.{name}"
             for module in (polyseries, sn, derivative_polys, V, cli)
             for name, obj in vars(module).items()
             if callable(obj) and hasattr(obj, "cache_info")]
    assert memos == []


#: Commands that between them reach every part of ``verify``: ``all`` in
#: each format, an integrals run with an explicit (a, b, d), and both series.
_COMMANDS_THAT_RUN_VERIFY = [
    *(["verify", "all", "--format", fmt] for fmt in ("plain", "json", "csv")),
    ["verify", "integrals", "--n-max", "3", "--a", "0", "--b", "1",
     "--d", "1/3"],
    *(["series", which, "--order", "4", "--r", "1", "--a", "0", "--b", "1",
       "--u0", "1/3"] for which in ("riccati", "v")),
]


#: Commands that between them call every function of ``cli`` but ``run``
#: and ``_drop_stdout``, which only a whole process reaches: the help, each
#: command but verify in json, both forms of series, and verify in each
#: format.
_COMMANDS_THAT_RUN_CLI = [
    ["-h"],
    ["table", "eulerian", "--n", "2", "--format", "json"],
    ["poly", "P", "--n", "2", "--a", "0", "--b", "1", "--format", "json"],
    ["series", "riccati", "--order", "2", "--r", "1", "--a", "0", "--b", "1",
     "--u0", "1/3", "--format", "json"],
    ["series", "v", "--order", "2", "--q", "2", "--p", "3", "--s", "1"],
    *(["verify", "lemma1", "--n-max", "1", "--format", fmt]
      for fmt in ("plain", "json", "csv")),
]


def _uncalled(module, commands) -> list[str]:
    """The module-level functions of ``module`` that none of ``commands``,
    each run by ``cli.main`` in process, calls."""
    functions = {obj.__code__: name for name, obj in vars(module).items()
                 if isinstance(obj, FunctionType)
                 and obj.__module__ == module.__name__}
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for argv in commands:
            try:
                cli.main(argv)
            except SystemExit as exc:  # the help exits 0
                assert exc.code == 0, argv
    finally:
        sys.setprofile(None)
    return sorted(name for code, name in functions.items()
                  if code not in called)


def test_no_verify_function_is_test_only(capsys):
    """Every module-level function of ``verify`` is called by a command, so
    a test of one tests a path that the command line runs."""
    assert _uncalled(V, _COMMANDS_THAT_RUN_VERIFY) == []
    capsys.readouterr()


def test_no_cli_function_is_test_only(capsys):
    """Every module-level function of ``cli`` but ``run`` and
    ``_drop_stdout`` is called by a command in process; those two end a
    whole process, and the subprocess tests of ``test_cli`` reach them."""
    assert _uncalled(cli, _COMMANDS_THAT_RUN_CLI) == ["_drop_stdout", "run"]
    capsys.readouterr()


def test_mutation_reaches_warm_bernoulli_memo(request):
    """A tangent-number fault injected after the Bernoulli memos are warm
    still fails ``verify all`` and changes a Bernoulli polynomial's value,
    and the correct numbers come back once the fault is removed."""
    assert all(v.passed for v in V.run_suite("all"))
    good = sn.bernoulli_numbers(20)
    assert 6 in sn._BERNOULLI_POLYS
    good_value = sn.bernoulli_value(6, Fraction(1, 2))

    def numbers_restored():
        assert sn.bernoulli_numbers(20) == good
        assert sn.bernoulli_value(6, Fraction(1, 2)) == good_value

    request.addfinalizer(numbers_restored)
    request.getfixturevalue("mutated_tangent_numbers")
    assert sn.bernoulli_number(6) == 2 * good[6]
    assert sn.bernoulli_value(6, Fraction(1, 2)) != good_value
    assert any(not v.passed for v in V.run_suite("all"))


#: The first S triple of the integral suite, so S_6 at (0, 1) is memoized.
S_PARAMS = RiccatiParams(1, 0, 1, Fraction(1, 3))
#: Fault -> a family member it corrupts.
CORRUPTED = {"mutated_eulerian_recurrence": "P",
             "mutated_macmahon_recurrence": "Q",
             "mutated_horner_kernel": "P",
             "mutated_shift_weight": "S"}


@pytest.mark.parametrize("fault", CORRUPTED)
def test_mutation_reaches_warm_family_memo(request, fault):
    """A fault injected after the P/Q/S memo is warm still fails ``verify
    all`` and changes the member it corrupts, and the correct families come
    back once the fault is removed."""
    assert all(v.passed for v in V.run_suite("all"))
    params = RiccatiParams(1, 0, 1)
    assert ("build_Q", 6, 0, 1) in sn.FAMILY_CACHE
    assert ("build_S", 6, 0, 1, (1, 3)) in sn.FAMILY_CACHE

    def members():
        return {"P": build_P(6, params), "Q": build_Q(6, params),
                "S": build_S(6, S_PARAMS)}

    good = members()

    def families_restored():
        assert members() == good

    # finalizers run last-in first-out, so this one runs after the fault's
    # teardown has undone the patch and reset the caches
    request.addfinalizer(families_restored)
    request.getfixturevalue(fault)
    changed = CORRUPTED[fault]
    assert members()[changed] != good[changed]
    assert any(not v.passed for v in V.run_suite("all"))


def test_verify_all_builds_each_value_once(monkeypatch):
    """A cold ``verify all`` builds each Bernoulli polynomial and each row of
    each shifted MacMahon triangle once: every call has a key no earlier
    call had, and some rows are shifted.  The substitution checks form
    their sample points once per (a, b)."""
    keys = {"bernoulli_poly": [], "_macmahon_next_row": [],
            "_substitution_points": []}
    bernoulli_poly = sn.bernoulli_poly
    next_row = sn._macmahon_next_row
    substitution_points = V._substitution_points

    def counted_bernoulli_poly(n):
        keys["bernoulli_poly"].append(n)
        return bernoulli_poly(n)

    def counted_next_row(n, prev, *shift):
        keys["_macmahon_next_row"].append((n, *shift))
        return next_row(n, prev, *shift)

    def counted_points(a, b):
        keys["_substitution_points"].append((a, b))
        return substitution_points(a, b)

    sn.reset_caches()
    monkeypatch.setattr(sn, "bernoulli_poly", counted_bernoulli_poly)
    monkeypatch.setattr(sn, "_macmahon_next_row", counted_next_row)
    monkeypatch.setattr(V, "_substitution_points", counted_points)
    try:
        assert all(v.passed for v in V.run_suite("all"))
    finally:
        monkeypatch.undo()
        sn.reset_caches()
    for name, calls in keys.items():
        assert calls, name
        assert len(calls) == len(set(calls)), name
    assert any(len(key) == 3 for key in keys["_macmahon_next_row"])
    assert len(keys["_substitution_points"]) == len(V.RELATION_PARAM_PAIRS)


def test_verify_all_fraction_census():
    """A cold ``verify all`` builds no ``Fraction`` in ``family_value`` or
    in the evaluation and integration of a ``Poly``: their values reach the
    comparisons as integer pairs.  The package's other ``Fraction``
    constructions, counted by the package function that calls
    ``Fraction()``, total 373: the oracles' ``_unscaled`` 178, parameter
    parsing 44, the closed forms' coefficients 44 and the Bernoulli numbers
    38 among them."""
    package = Path(V.__file__).parent
    new = Fraction.__new__.__code__
    callers = {}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is new:
            code = frame.f_back.f_code
            if Path(code.co_filename).parent == package:
                callers[code] = callers.get(code, 0) + 1

    sn.reset_caches()
    sys.setprofile(profile)
    try:
        verdicts = V.run_suite("all")
    finally:
        sys.setprofile(None)
        sn.reset_caches()
    assert len(verdicts) == 304 and all(v.passed for v in verdicts)
    values = [derivative_polys.family_value, Poly.eval, Poly._eval_pair,
              Poly.definite_integral, Poly._integral_pair]
    assert not {f.__code__ for f in values} & callers.keys()
    assert sum(callers.values()) == 373
