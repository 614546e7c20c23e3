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

import pytest

import derivpoly.verify as V
from derivpoly import special_numbers as sn
from derivpoly.derivative_polys import (RiccatiParams, build_P, build_Q,
                                       build_S)
from derivpoly.polyseries import Poly, X


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
        verdict = V.check_theorem1(V.instance(r, a, b, u0, order=15))
        assert verdict.passed, verdict.to_json_obj()
    assert time.perf_counter() - start < 1.0


@criterion("criterion 3 (series oracle vs closed form for v, n <= 12)")
def test_criterion_3_theorem23_oracle():
    instances = ((1, 0, 1, Fraction(1, 3)),
                 (-1, -1, 1, Fraction(0)),
                 (Fraction(-1, 2), 2, 0, Fraction(1, 2)))
    for r, a, b, u0 in instances:
        verdict = V.check_theorem2(V.instance(r, a, b, u0, order=12))
        assert verdict.passed, verdict.to_json_obj()
    for d in (Fraction(1, 4), Fraction(-1, 2)):
        for r, a, b, u0 in instances:
            verdict = V.check_theorem3(V.instance(r, a, b, u0, d=d, order=12))
            assert verdict.passed, verdict.to_json_obj()


@criterion("criterion 4 (EGF cross-multiplication suites at order 10)")
def test_criterion_4_egf_suites():
    start = time.perf_counter()
    u0 = Fraction(1, 3)
    verdicts = [
        V.check_egf_eulerian(10),
        V.check_egf_A(10),
        V.check_egf_macmahon(10),
        V.check_egf_macmahon_halved(10),
        V.check_F_closed_form(u0, 10),
        V.check_H_closed_form(u0, Fraction(0), 10),
        V.check_H_closed_form(u0, Fraction(1, 4), 10),
        V.check_H_closed_form(u0, Fraction(-1, 2), 10),
    ]
    for verdict in verdicts:
        assert verdict.passed, verdict.to_json_obj()
    assert time.perf_counter() - start < 5.0


@criterion("criterion 5 (binomial self-convolution identities, n <= 15)")
def test_criterion_5_polynomial_identities():
    for n in range(1, 16):
        assert V.check_lemma1(n).passed
        assert V.check_classical(n).passed


@criterion("criterion 6 (integral representations for P, Q, S)")
def test_criterion_6_integral_theorems():
    pairs = ((0, 1), (-1, 1), (3, -2))
    for a, b in pairs:
        for n in range(1, 21):
            assert V.check_integral_P(n, a, b).passed
        for n in range(0, 21):
            assert V.check_integral_Q(n, a, b).passed
    triples = ((0, 1, Fraction(1, 3)), (-1, 1, Fraction(1, 2)), (2, 5, -1))
    for a, b, d in triples:
        for n in range(1, 13):
            assert V.check_integral_S(n, a, b, d).passed


@criterion("criterion 7 (even Bernoulli integral: exact m <= 8, numeric m <= 3)")
def test_criterion_7_grosset_veselov():
    for m in range(1, 9):
        assert V.grosset_veselov_exact(m).passed
    for m in (1, 2, 3):
        assert V.grosset_veselov_numeric(m, 1e-8).passed
    # m = 1 anchor: the quotient integrates to 4/3, pinning B_2 = 1/6
    p = build_P(2, RiccatiParams(-1, -1, 1))
    quotient = (p * p).exact_div(Poly([1, 0, -1]))
    assert quotient.definite_integral(-1, 1) == Fraction(4, 3)
    assert sn.bernoulli_number(2) == Fraction(1, 6)


@criterion("criterion 8 (integer coefficients of the reduced shifted family)")
def test_criterion_8_integrality():
    base = RiccatiParams(1, 0, 1)
    sp = RiccatiParams(1, 0, 1, Fraction(-1, 2))
    for n in range(1, 21):
        quotient = build_P(n + 1, base).exact_div(X)
        assert quotient is not None
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
    assert not V.check_theorem1(
        V.instance(1, 0, 1, Fraction(1, 3), order=15)).passed
    # criterion 4 collapses for the checks that consume the triangle
    assert not V.check_egf_eulerian(10).passed
    assert not V.check_egf_A(10).passed
    # criterion 5 collapses
    assert not all(V.check_lemma1(n).passed for n in range(1, 16))
    assert not all(V.check_classical(n).passed for n in range(1, 16))


def test_mutation_of_horner_kernel_fails_theorems(mutated_horner_kernel):
    """An off-by-one coefficient in the P/Q Horner kernel fails theorem 1
    (P against the u oracle) and theorem 2 (Q against the v oracle)."""
    failed = {v.identity for v in V.run_suite("all") if not v.passed}
    assert {"theorem1", "theorem2"} <= failed


def test_mutation_of_poly_eval_fails_verify_all(mutated_poly_eval):
    """An off-by-one ``Poly.eval`` from degree 8 on fails ``verify all``:
    the integer evaluation layer is reached by some verdict."""
    failed = [v for v in V.run_suite("all") if not v.passed]
    assert failed
    assert {"theorem1", "integral_Q", "substitution_E"} <= {
        v.identity for v in failed}


def test_mutation_of_tangent_numbers_fails_verify_all(mutated_tangent_numbers):
    """A doubled T_3 (so a doubled B_6) fails the integral identities, whose
    right sides read Bernoulli numbers, and the even Bernoulli integrals."""
    failed = {v.identity for v in V.run_suite("all") if not v.passed}
    assert {"integral_P", "integral_Q", "grosset_veselov_exact"} <= failed


def test_mutation_of_shift_transform_fails_verify_all(mutated_shift_transform):
    """An off-by-one k = 2 weight in the S binomial transform fails theorem 3
    (S against the v oracle), the S integrals, the closed form of the S
    generating function and the integrality of the reduced S family."""
    failed = {v.identity for v in V.run_suite("all") if not v.passed}
    assert {"theorem3", "integral_S", "closed_form_h", "integrality"} <= failed


def test_mutation_of_exp_transform_fails_verify_all(mutated_exp_transform):
    """An off-by-one k = 2 weight in the binomial sum of the generating-function
    checks fails the generating-function identities and closed forms, and
    nothing else."""
    failed = {v.identity for v in V.run_suite("all") if not v.passed}
    assert failed == {"closed_form_f", "closed_form_h", "egf_a",
                      "egf_eulerian", "egf_macmahon", "egf_macmahon_halved"}


def test_mutation_of_series_oracle_fails_verify_all(mutated_series_oracle):
    """An off-by-one scaled coefficient x_5 in the integer u oracle fails
    theorem 1, and theorems 2 and 3 through the v oracle that reuses it."""
    failed = {v.identity for v in V.run_suite("all") if not v.passed}
    assert {"theorem1", "theorem2", "theorem3"} <= failed


@pytest.mark.parametrize("fault,failing", [("mutated_tangent_numbers", 79),
                                           ("mutated_series_oracle", 13),
                                           ("mutated_horner_kernel", 295),
                                           ("mutated_shift_transform", 51),
                                           ("mutated_exp_transform", 8),
                                           ("mutated_definite_integral", 156),
                                           ("mutated_poly_product", 27)])
def test_kernel_fault_fails_pinned_share_of_verify_all(request, fault, failing):
    """The geometric Bernoulli memo, the halved oracle convolution and the
    integer Horner kernel reach exactly as many ``verify all`` verdicts under
    a kernel fault as the kernels they replaced; the counts of the integer S
    transform, the generating-function binomial sum, the definite integral
    and the polynomial product are pinned as first measured."""
    request.getfixturevalue(fault)
    verdicts = V.run_suite("all")
    assert (sum(not v.passed for v in verdicts), len(verdicts)) == (failing, 341)


def test_mutation_reaches_warm_bernoulli_memo(request):
    """A tangent-number fault injected after the Bernoulli memo is warm
    still fails ``verify all``, and the correct numbers come back once the
    fault is removed."""
    assert all(v.passed for v in V.run_suite("all"))
    good = sn.bernoulli_numbers(20)

    def numbers_restored():
        assert sn.bernoulli_numbers(20) == good

    request.addfinalizer(numbers_restored)
    request.getfixturevalue("mutated_tangent_numbers")
    assert sn.bernoulli_number(6) == 2 * good[6]
    assert any(not v.passed for v in V.run_suite("all"))


@pytest.mark.parametrize("fault", ["mutated_eulerian_recurrence",
                                   "mutated_macmahon_recurrence",
                                   "mutated_horner_kernel"])
def test_mutation_reaches_warm_family_memo(request, fault):
    """A fault injected after the P/Q memo is warm still fails ``verify all``,
    and the correct families come back once the fault is removed."""
    assert all(v.passed for v in V.run_suite("all"))
    params = RiccatiParams(1, 0, 1)
    assert ("build_Q", 6, 0, 1) in sn.FAMILY_CACHE
    good = (build_P(6, params), build_Q(6, params))

    def families_restored():
        assert (build_P(6, params), build_Q(6, params)) == good

    # finalizers run last-in first-out, so this one runs after the fault's
    # teardown has undone the patch and reset the caches
    request.addfinalizer(families_restored)
    request.getfixturevalue(fault)
    assert (build_P(6, params), build_Q(6, params)) != good
    assert any(not v.passed for v in V.run_suite("all"))
