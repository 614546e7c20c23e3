import hashlib
import importlib.util
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import derivpoly.verify as V
from derivpoly import derivative_polys, special_numbers
from derivpoly.derivative_polys import RiccatiParams, build_P
from derivpoly.polyseries import Poly, X


class TestOracleSeries:
    def test_fixed_point(self):
        inst = V.instance(1, 0, 1, 0, order=5)
        assert V.riccati_series(inst).coeffs == (0, 0, 0, 0, 0, 0)

    def test_midpoint_instance(self):
        inst = V.instance(1, 0, 1, Fraction(1, 2), order=2)
        c = V.riccati_series(inst).coeffs
        assert c[1] == Fraction(-1, 4)
        assert c[2] == 0

    def test_logistic_anchor(self):
        inst = V.instance(Fraction(-1, 2), 2, 0, Fraction(1, 2), order=1)
        assert V.riccati_series(inst).coeffs[1] == Fraction(3, 8)

    def test_v_series_shift_vanishes_at_midpoint(self):
        inst = V.instance(1, 0, 1, Fraction(1, 2), order=3)
        assert V.v_series(inst).coeffs[1] == 0

    def test_v_series_first_coefficient(self):
        inst = V.instance(1, 0, 1, Fraction(1, 3), order=3)
        assert V.v_series(inst).coeffs[1] == Fraction(-1, 6)

    def test_instance_validation(self):
        with pytest.raises(ValueError):
            V.instance(1, 0, 1, Fraction(1, 3), v0=0)
        with pytest.raises(ValueError):
            V.instance(1, 0, 1, Fraction(1, 3), order=0)


def fraction_riccati_series(r, a, b, u0, order):
    """Reference u oracle on Fractions: (n+1) c_{n+1} = r [z^n](u-a)(u-b)."""
    c = [u0]
    for n in range(order):
        conv = sum((c[i] * c[n - i] for i in range(n + 1)), Fraction(0))
        c.append(r * (conv - (a + b) * c[n] + (a * b if n == 0 else 0)) / (n + 1))
    return tuple(c)


def fraction_v_series(r, a, b, d, u0, v0, order):
    """Reference v oracle on Fractions: (n+1) w_{n+1} = r [z^n] v(u - (a+b)/2 + d)."""
    c = fraction_riccati_series(r, a, b, u0, order)
    w = [v0]
    for n in range(order):
        conv = sum((w[i] * c[n - i] for i in range(n + 1)), Fraction(0))
        w.append(r * (conv + (d - (a + b) / 2) * w[n]) / (n + 1))
    return tuple(w)


oracle_rationals = st.one_of(
    st.integers(-5, 5).map(Fraction),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
)


def instance_tuples(rationals, max_order: int):
    """(r, a, b, d, u0, v0, order) from ``rationals``, with r, v0 != 0,
    a != b and 1 <= order <= max_order; u0 is drawn free or set to a or b,
    the constant solutions, which random rationals almost never hit."""
    return st.tuples(
        rationals.filter(bool), rationals, rationals, rationals, rationals,
        rationals.filter(bool), st.integers(1, max_order),
        st.sampled_from((4, 1, 2)),
    ).filter(lambda t: t[1] != t[2]).map(lambda t: (*t[:4], t[t[7]], *t[5:7]))


oracle_instances = instance_tuples(oracle_rationals, 40)


class TestIntegerOracle:
    """The oracle runs on integers scaled by one denominator; it must agree
    with the Fraction recurrences of the ODEs it solves, and reach neither
    the triangles nor the families it is compared with."""

    @staticmethod
    def assert_matches_fraction_recurrences(r, a, b, d, u0, v0, order):
        inst = V.instance(r, a, b, u0, d=d, v0=v0, order=order)
        assert V.riccati_series(inst).coeffs == fraction_riccati_series(
            r, a, b, u0, order)
        assert V.v_series(inst).coeffs == fraction_v_series(
            r, a, b, d, u0, v0, order)

    @given(oracle_instances)
    @settings(max_examples=60, deadline=None)
    def test_matches_fraction_recurrences(self, t):
        self.assert_matches_fraction_recurrences(*t)

    def test_shifted_non_integer_instance_at_order_40(self):
        self.assert_matches_fraction_recurrences(
            Fraction(-3, 7), Fraction(5, 2), Fraction(-1, 3), Fraction(2, 9),
            Fraction(7, 5), Fraction(-4, 3), 40)

    @given(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6),
           st.integers(-10 ** 6, 10 ** 6), st.integers(0, 60))
    @settings(max_examples=60, deadline=None)
    def test_halved_convolution_matches_full(self, alpha, beta, mu, order):
        # The reference forms every product of the symmetric convolution.
        x = [mu]
        for n in range(order):
            conv = sum(math.comb(n, i) * x[i] * x[n - i] for i in range(n + 1))
            x.append(conv - (alpha + beta) * x[n]
                     + (alpha * beta if n == 0 else 0))
        assert V._riccati_numerators(alpha, beta, mu, order) == x

    @pytest.mark.parametrize("at", ["a", "b"])
    def test_constant_u_gives_exponential_v(self, at):
        """At u0 = a or u0 = b, u stays constant, so v = v0 e^(kz) with
        k = r(u0 - (a+b)/2 + d): k = r((a-b)/2 + d) at a, r((b-a)/2 + d) at b.
        u0 = b is the oracle's mu = beta branch, u0 = a the other one."""
        r, a, b, d, v0 = (Fraction(-3, 2), Fraction(2, 5), Fraction(-7, 3),
                          Fraction(5, 4), Fraction(-2, 3))
        u0 = a if at == "a" else b
        k = r * (u0 - (a + b) / 2 + d)
        inst = V.instance(r, a, b, u0, d=d, v0=v0, order=12)
        assert V.riccati_series(inst).coeffs == (u0,) + (0,) * 12
        w = V.v_series(inst).coeffs
        assert w == tuple(v0 * k ** n / math.factorial(n) for n in range(13))
        assert w == fraction_v_series(r, a, b, d, u0, v0, 12)

    def test_reaches_no_triangle_or_family(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle consulted a triangle or family")

        for module in (V, derivative_polys, special_numbers):
            for name in dir(module):
                if name.startswith("build_") or name in (
                        "eulerian", "eulerian_row", "macmahon", "macmahon_row"):
                    monkeypatch.setattr(module, name, forbidden)
        monkeypatch.setattr(special_numbers.Triangle, "row", forbidden)
        inst = V.instance(Fraction(-1, 2), Fraction(1, 3), 2, Fraction(3, 4),
                          d=Fraction(5, 6), v0=Fraction(2, 3), order=12)
        V.riccati_series(inst)
        V.v_series(inst)


class TestTheorem1:
    @pytest.mark.parametrize("r,a,b,u0", V.ORACLE_INSTANCES)
    def test_named_instances(self, r, a, b, u0):
        verdict = V.check_theorem("theorem1",
                                  V.instance(r, a, b, u0, order=16))
        assert verdict.passed

    def test_instance_independence(self):
        for u0 in (Fraction(1, 3), Fraction(1, 2), Fraction(-2), Fraction(7, 5)):
            assert V.check_theorem(
                "theorem1", V.instance(1, 0, 1, u0, order=15)).passed

    def test_degenerate_initial_values_pass(self):
        # u0 = a and u0 = b give constant solutions; both sides vanish
        for u0 in (0, 1):
            assert V.check_theorem(
                "theorem1", V.instance(1, 0, 1, u0, order=10)).passed

    def test_mutation_is_detected(self, mutated_eulerian_recurrence):
        verdict = V.check_theorem(
            "theorem1", V.instance(1, 0, 1, Fraction(1, 3), order=16))
        assert not verdict.passed
        assert verdict.first_failure is not None
        assert verdict.witness is not None


class TestTheorems2And3:
    @pytest.mark.parametrize("r,a,b,u0", V.ORACLE_INSTANCES)
    def test_unshifted(self, r, a, b, u0):
        assert V.check_theorem(
            "theorem2", V.instance(r, a, b, u0, order=12)).passed

    def test_scale_freedom_in_v0(self):
        inst = V.instance(1, 0, 1, Fraction(1, 3), v0=Fraction(2, 3), order=12)
        assert V.check_theorem("theorem2", inst).passed

    def test_shifted_requires_d_zero(self):
        with pytest.raises(ValueError):
            V.check_theorem("theorem2", V.instance(1, 0, 1, Fraction(1, 3),
                                                   d=Fraction(1, 4)))

    @pytest.mark.parametrize("d", [Fraction(1, 4), Fraction(-1, 2)])
    @pytest.mark.parametrize("r,a,b,u0", V.ORACLE_INSTANCES)
    def test_shifted(self, r, a, b, u0, d):
        assert V.check_theorem(
            "theorem3", V.instance(r, a, b, u0, d=d, order=12)).passed


class TestTheoremsAtAnyInstance:
    @given(instance_tuples(st.fractions(-5, 5, max_denominator=5), 10))
    @settings(max_examples=60, deadline=None)
    def test_theorems_hold(self, t):
        """Theorems 1-3 at random rational (r, a, b, d, u0, v0), u0 = a and
        u0 = b included; theorem 2 at d = 0, the only shift it states."""
        r, a, b, d, u0, v0, order = t
        for theorem, shift in (("theorem1", d), ("theorem2", 0),
                               ("theorem3", d)):
            inst = V.instance(r, a, b, u0, d=shift, v0=v0, order=order)
            verdict = V.check_theorem(theorem, inst)
            assert verdict.passed, verdict.to_json_obj()


_SCALARS = st.one_of(st.integers(-3, 3),
                     st.fractions(-3, 3, max_denominator=4))
_RING_ELEMENTS = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3).map(Poly))


class TestEgfChecks:
    def test_all_pass_at_default_order(self):
        verdicts = {v.identity: v for v in V.suite_egf(10)}
        assert verdicts["egf_eulerian"].passed
        assert verdicts["egf_a"].passed
        assert verdicts["egf_macmahon"].passed

    def test_order_one_is_trivially_checkable(self):
        verdicts = {v.identity: v for v in V.suite_egf(1)}
        assert verdicts["egf_eulerian"].passed
        assert verdicts["egf_a"].passed

    def test_closed_forms(self):
        for u0 in (Fraction(1, 3), Fraction(1, 2)):
            closed = [v for v in V.suite_egf(10, u0)
                      if v.identity.startswith("closed_form")]
            assert [(v.identity, v.params.get("d")) for v in closed] == [
                ("closed_form_f", None), ("closed_form_h", "0"),
                ("closed_form_h", "1/4"), ("closed_form_h", "-1/2")]
            assert all(v.passed for v in closed)

    def test_u0_outside_unit_interval_rejected(self):
        for bad in (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 3)):
            with pytest.raises(ValueError):
                V.suite_egf(5, bad)

    def test_shifted_series_matches_p_family(self):
        # at d = -1/2 the H-series coefficients are P_{n+1}(u0)/u0
        u0 = Fraction(1, 3)
        base = RiccatiParams(1, 0, 1)
        sp = RiccatiParams(1, 0, 1, Fraction(-1, 2))
        for n in range(0, 10):
            lhs = V.build_S(n, sp).eval(u0) * Fraction(1, 2 ** n)
            assert lhs == build_P(n + 1, base).eval(u0) / u0

    @settings(max_examples=60, deadline=None)
    @given(fs=st.lists(_RING_ELEMENTS, max_size=6), rate=_RING_ELEMENTS)
    def test_exp_transform_is_the_binomial_sum(self, fs, rate):
        gs = V._exp_transform(fs, rate)
        assert len(gs) == len(fs)
        for n, g in enumerate(gs):
            assert g == sum((math.comb(n, k) * rate ** (n - k) * fs[k]
                             for k in range(n + 1)), Fraction(0))

    @settings(max_examples=60, deadline=None)
    @given(fs=st.lists(st.lists(st.integers(-2**15, 2**15), max_size=5),
                       min_size=1, max_size=7),
           rate=st.lists(st.integers(-3, 3), max_size=3))
    @example(fs=[[-2**15]], rate=[])  # a digit at the lower edge
    @example(fs=[[2**15 - 1, -2**15], [-2**15, 2**15 - 1]], rate=[1])
    def test_packed_pascal_pass_is_the_poly_pass(self, fs, rate):
        """On integer polynomials packed at the fewest bytes that hold
        every digit of the data and of the result, so that negative digits
        sit at the edge of the width, the Pascal pass with a packed rate
        reads back as the pass on ``Poly`` objects."""
        polys = V._exp_transform([Poly(f) for f in fs], Poly(rate))
        digits = [0, *rate, *(c for f in fs for c in f),
                  *(c for g in polys for c in g._coeffs)]
        width = max((v if v >= 0 else ~v).bit_length() for v in digits) // 8 + 1
        packed = V._exp_transform([derivative_polys._packed(f, width)
                                   for f in fs],
                                  derivative_polys._packed(rate, width))
        count = max(map(len, fs)) + len(fs) * max(len(rate), 1)
        assert [Poly._over(derivative_polys._digits(g, width, count), 1)
                for g in packed] == polys

    @settings(max_examples=60, deadline=None)
    @given(p=_RING_ELEMENTS, c=_RING_ELEMENTS, d=_RING_ELEMENTS,
           rate=_RING_ELEMENTS, rate1=_RING_ELEMENTS,
           order=st.integers(1, 8), fault=st.none() | st.tuples(
               st.integers(0, 8), st.integers(0, 2), st.integers(-2, 2)))
    @example(p=Poly((1, -1)), c=0, d=1, rate=Poly((0, 2)), rate1=Fraction(1, 2),
             order=8, fault=(7, 1, 1))
    def test_packed_check_is_the_poly_check(self, p, c, d, rate, rate1,
                                             order, fault):
        """``_check_egf`` on packed integers gives the verdict, first
        failure and witness that the same comparison gives on ``Poly`` and
        ``Fraction`` objects.  The data hold exactly: F_n = p rate1^n makes
        (sum F_n t^n/n!) (c + d e^(rate t)) equal c p + d p e^((rate +
        rate1) t) when c = 0 or rate1 = 0; ``fault`` adds k x^i to F_j, so
        a coefficient from j on differs."""
        if rate1 != 0:
            c = 0
        fs = [p * rate1 ** n if n else p for n in range(order + 1)]
        if fault is not None and fault[0] <= order:
            j, i, k = fault
            fs[j] = fs[j] + k * X ** i
        mult, expected = (c, d, rate), (c * p, d * p, rate + rate1)
        polys = any(isinstance(v, Poly) for v in (*fs, *mult, *expected))
        side = Poly._coerce if polys else Fraction
        gs = V._exp_transform(fs, rate)

        def pairs():
            yield 0, side(c * fs[0] + d * gs[0]), side(c * p + d * p)
            for n in range(1, order + 1):
                inverse = Fraction(1, math.factorial(n))
                yield (n, side((c * fs[n] + d * gs[n]) * inverse),
                       side(d * p * (rate + rate1) ** n * inverse))

        assert V._check_egf("egf", fs.__getitem__, order, mult, expected) == \
            V._scan("egf", {"order": order}, pairs())

    def test_macmahon_needs_the_doubled_exponent(self):
        """The README's note: without the doubled exponent the MacMahon EGF
        check fails already at order 1, since M_1(x) = 1 + x."""
        verdict = V._check_egf("egf_macmahon", V.build_M, 10,
                               (1, -X, -X + 1), (0, -X + 1, -X + 1))
        assert not verdict.passed
        assert verdict.first_failure == 1
        assert verdict.witness == {"lhs": "[1, -1]", "rhs": "[1, -2, 1]"}

    def test_mutation_is_detected(self, mutated_eulerian_recurrence):
        failed = {v.identity for v in V.suite_egf(10) if not v.passed}
        assert {"egf_eulerian", "egf_a"} <= failed

    def test_top_coefficient_is_compared(self, mutated_eulerian_recurrence):
        """At order 2 the first corrupted row, E_2, reaches only the top
        coefficient of each product, so that coefficient must be compared."""
        failed = {v.identity for v in V.run_suite("egf", order=2)
                  if not v.passed}
        assert failed == {"egf_eulerian", "egf_a", "closed_form_f"}


class TestPolynomialIdentities:
    def test_lemma1_small_cases(self):
        # n = 1: u^2 - u == (u - 1) u
        assert V.check_lemma1(1).passed
        assert V.check_lemma1(2).passed

    def test_lemma1_range(self):
        assert all(V.check_lemma1(n).passed for n in range(1, 16))

    def test_classical_range(self):
        assert all(v.passed for v in V._classical_verdicts(range(1, 16)))

    def test_mutation_is_detected(self, mutated_eulerian_recurrence):
        assert not all(V.check_lemma1(n).passed for n in range(1, 16))
        assert not all(v.passed for v in V._classical_verdicts(range(1, 16)))

    def test_mutation_fails_classical_at_every_n(self, mutated_eulerian_recurrence):
        """Row 1 is the only correct row left, so the packed row sum must
        fail every n from 2 to the verify-deep bound 40."""
        failing = [v.params["n"] for v in V._classical_verdicts(range(1, 41))
                   if not v.passed]
        assert failing == list(range(2, 41))

    @settings(max_examples=40, deadline=None)
    @given(rows=st.lists(st.integers(-10**6, 10**6).flatmap(
        lambda top: st.lists(st.integers(-abs(top), abs(top)), min_size=1,
                             max_size=6)), min_size=1, max_size=12))
    @example(rows=[[1], [1, 1], [1, 4, 1]])
    @example(rows=[[-128], [127, -128], [-128] * 3])
    def test_packed_sum_is_the_poly_sum(self, rows):
        """With any integer rows of either sign in place of the Eulerian
        ones, each packed verdict, its witness included, is the verdict of
        the same identity summed by Horner's rule in x-1 on ``Poly``
        objects."""
        table = [(1,), *map(tuple, rows)]

        def poly_sum(n):
            acc = Poly(table[0])
            for k in range(1, n):
                acc = acc * (X - 1) + math.comb(n, k) * Poly(table[k])
            return None, Poly(table[n]), acc

        ns = range(1, len(rows) + 1)
        expected = [V._scan("classical", {"n": n}, [poly_sum(n)]) for n in ns]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(V, "eulerian_row", table.__getitem__)
            assert list(V._classical_verdicts(ns)) == expected


def _of(identity, verdicts):
    """The verdicts of one identity, in the order given."""
    return [v for v in verdicts if v.identity == identity]


def _coverage(verdicts, *names):
    """The set of (params[name] for each name, n) of the verdicts."""
    return {(*(v.params[name] for name in names), v.params["n"])
            for v in verdicts}


class TestIntegralChecks:
    def test_p_family_anchors(self):
        verdicts = _of("integral_P", V.suite_integrals(2, 0, 1))
        assert all(v.passed for v in verdicts)
        verdicts = _of("integral_P",
                       V.suite_integrals(3, Fraction(-7, 2), Fraction(5, 3)))
        assert verdicts[-1].params["n"] == 3
        assert all(v.passed for v in verdicts)

    def test_p_family_range(self):
        verdicts = _of("integral_P", V.suite_integrals())
        assert _coverage(verdicts, "a", "b") == {
            (str(a), str(b), n) for a, b in V.INTEGRAL_PAIRS
            for n in range(1, 21)}
        assert all(v.passed for v in verdicts)

    def test_q_family_range(self):
        verdicts = _of("integral_Q", V.suite_integrals())
        assert _coverage(verdicts, "a", "b") == {
            (str(a), str(b), n) for a, b in V.INTEGRAL_PAIRS
            for n in range(0, 21)}
        assert all(v.passed for v in verdicts)

    def test_q_family_spot_value(self):
        # n=2 on (-1, 3): both sides equal -64/3
        params = RiccatiParams(1, -1, 3)
        from derivpoly.derivative_polys import build_Q
        assert build_Q(2, params).definite_integral(-1, 3) == Fraction(-64, 3)
        verdict = _of("integral_Q", V.suite_integrals(2, -1, 3))[-1]
        assert verdict.params["n"] == 2
        assert verdict.passed

    def test_s_family(self):
        verdicts = _of("integral_S", V.suite_integrals())
        assert _coverage(verdicts, "a", "b", "d") == {
            (str(a), str(b), str(d), n) for a, b, d in V.INTEGRAL_S_TRIPLES
            for n in range(1, 13)}
        assert all(v.passed for v in verdicts)

    def test_s_reduces_to_q_at_zero_shift(self):
        verdicts = _of("integral_S", V.suite_integrals(12, 0, 1, 0))
        assert _coverage(verdicts, "d") == {("0", n) for n in range(1, 13)}
        assert all(v.passed for v in verdicts)

    def test_s_spot_value(self):
        verdicts = _of("integral_S",
                       V.suite_integrals(1, 0, 1, Fraction(1, 4)))
        assert [v.params for v in verdicts] == \
            [{"n": 1, "a": "0", "b": "1", "d": "1/4"}]
        assert verdicts[0].passed

    def test_index_validation(self):
        """The P and Q builders refuse an n below their families' first, so
        a stream started there raises before it compares anything."""
        with pytest.raises(ValueError):
            next(V._integral_verdicts("P", range(0, 1), 0, 1))
        with pytest.raises(ValueError):
            next(V._integral_verdicts("Q", range(-1, 0), 0, 1))


class TestGrossetVeselov:
    def test_first_case_by_hand(self):
        # P_2(u;-1,1) = u^2 - 1; quotient is 1 - u^2 with integral 4/3
        p = build_P(2, RiccatiParams(-1, -1, 1))
        assert p == Poly([-1, 0, 1])
        quotient, rem = divmod(p * p, Poly([1, 0, -1]))
        assert (quotient, rem) == (Poly([1, 0, -1]), Poly())
        assert quotient.definite_integral(-1, 1) == Fraction(4, 3)
        assert Fraction(1, 8) * Fraction(4, 3) == Fraction(1, 6)
        assert V.grosset_veselov_exact(1).passed

    def test_exact_range(self):
        assert all(V.grosset_veselov_exact(m).passed for m in range(1, 9))

    def test_numeric_range(self):
        for tol in (1e-8, 1e-10, 1e-12, 1e-13, 1e-14):
            for m in (1, 2, 3):
                assert V.grosset_veselov_numeric(m, tol).passed, (m, tol)

    def test_numeric_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            V.grosset_veselov_numeric(4)
        for tol in (0, math.inf, math.nan, 1.0, 1e-15):
            with pytest.raises(ValueError):
                V.grosset_veselov_numeric(1, tol=tol)

    @pytest.mark.parametrize("tol", [0.0, math.nan, 1.0])
    def test_suite_rejects_tol_before_exact_work(self, monkeypatch, tol):
        def exact_not_expected(m):
            raise AssertionError("exact verdicts ran before tol was checked")

        monkeypatch.setattr(V, "grosset_veselov_exact", exact_not_expected)
        with pytest.raises(ValueError, match="tol"):
            V.run_suite("grosset-veselov", m_max=40, tol=tol)

    def test_unreachable_tolerance_is_inconclusive(self, monkeypatch):
        """A tolerance that the step budget cannot reach is inconclusive,
        never a pass or a failed comparison: with one halving of the 40
        unit steps allowed, the two sums differ by far more than tol/2 at
        every m.  A tol below the rounding of the sums is refused before
        any quadrature (test_cli checks that refusal)."""
        monkeypatch.setattr(V, "QUADRATURE_MAX_STEPS", 80)
        for tol in (1e-8, 1e-14):
            for m in (1, 2, 3):
                verdict = V.grosset_veselov_numeric(m, tol=tol)
                assert verdict.status == "inconclusive", (m, tol)
                assert verdict.to_json_obj()["inconclusive"] is True


class TestRelationChecks:
    def test_substitutions(self):
        verdicts = V.suite_relations()
        for identity, least in (("substitution_E", 1), ("substitution_M", 0)):
            at_01 = [v for v in _of(identity, verdicts)
                     if (v.params["a"], v.params["b"]) == ("0", "1")]
            assert _coverage(at_01) == {(n,) for n in range(least, 13)}
            assert all(v.passed for v in at_01)

    def test_integrality(self):
        assert all(V.check_integrality(n).passed for n in range(0, 21))

    def test_triangle_checks(self):
        assert V.check_eulerian_triangle().passed
        assert V.check_macmahon_triangle().passed

    def test_triangle_mutation_detected(self, mutated_eulerian_recurrence):
        verdict = V.check_eulerian_triangle()
        assert not verdict.passed
        assert verdict.witness is not None

    def test_symmetric_macmahon_fault_detected(self, monkeypatch):
        # M(n,2) and M(n,n-1) doubled from row 6 on: the rows stay symmetric
        # and M(n,1) = 1, so only the explicit type-B sum can catch it.
        step = special_numbers._macmahon_next_row

        def doubled(n, prev):
            row = step(n, prev)
            if n >= 6:
                row[1] *= 2
                row[n - 2] *= 2
            return row

        special_numbers.reset_caches()
        monkeypatch.setattr(special_numbers, "_macmahon_next_row", doubled)
        try:
            rows = [special_numbers.macmahon_row(n) for n in range(1, 21)]
            verdict = V.check_macmahon_triangle()
        finally:
            monkeypatch.undo()
            special_numbers.reset_caches()
        assert all(row == row[::-1] and row[0] == 1 for row in rows)
        assert rows[2:4] == [(1, 6, 1), (1, 23, 23, 1)]
        assert rows[5] != special_numbers.macmahon_row(6)
        assert not verdict.passed
        assert verdict.first_failure == 6


class TestVerdicts:
    def test_json_schema(self):
        verdict = V.check_lemma1(3)
        obj = verdict.to_json_obj()
        assert set(obj) == {"identity", "params", "pass", "first_failure",
                            "witness"}
        assert obj["pass"] is True
        assert obj["witness"] is None

    def test_scan_stops_at_first_mismatch(self):
        def pairs():
            yield 1, 1, 1
            yield 2, Fraction(1, 2), Fraction(1, 3)
            raise AssertionError("a pair after the first mismatch was computed")

        verdict = V._scan("demo", {"n": 2}, pairs())
        assert not verdict.passed
        assert verdict.first_failure == 2
        assert verdict.witness == {"lhs": "1/2", "rhs": "1/3"}
        assert V._scan("demo", {}, iter([(1, 2, 2)])).passed
        # One known-unequal pair of each kind the checks compare: each
        # fails, with that pair as its witness, after an equal pair passes.
        unequal = [
            (Poly([1, 2]), Poly([Fraction(1, 2), 1])),  # numerators (1, 2)
            (Poly([1, 2, 3]), Poly([1, 2, 4])),  # only the top differs
            (X, Poly()),
            ((1, 4, 1), (1, 4, 2)),  # triangle rows
            ("[1, 4, 1]", "[1, 4, 2]"),  # witness texts
            (Poly([1]), V._claim(Poly([1]), False, "exact division")),
        ]
        for lhs, rhs in unequal:
            verdict = V._scan("demo", {}, iter([(1, lhs, lhs), (2, lhs, rhs)]))
            assert (verdict.passed, verdict.first_failure) == (False, 2)
            assert verdict.witness == {"lhs": str(lhs), "rhs": str(rhs)}

    def test_failure_carries_witness(self, mutated_eulerian_recurrence):
        verdict = next(v for v in V.suite_egf(6)
                       if v.identity == "egf_eulerian")
        assert not verdict.passed
        assert set(verdict.witness) == {"lhs", "rhs"}
        obj = verdict.to_json_obj()
        assert obj["pass"] is False
        assert obj["first_failure"] is not None

    def test_scan_decides_every_exact_verdict(self, monkeypatch,
                                              mutated_remainder):
        """With no division exact, every verdict of ``all`` but the three
        numeric cross-checks is one that ``_scan`` returned, and each of the
        28 failures shows the remainder against the claim it breaks."""
        scanned, scan = [], V._scan

        def recording_scan(*args):
            scanned.append(scan(*args))
            return scanned[-1]

        monkeypatch.setattr(V, "_scan", recording_scan)
        verdicts = V.run_suite("all")
        exact = [v for v in verdicts if v.identity != "grosset_veselov_numeric"]
        assert len(verdicts) - len(exact) == 3
        assert {id(v) for v in exact} <= {id(v) for v in scanned}
        failed = [v for v in verdicts if not v.passed]
        assert len(failed) == 28
        assert all(v.witness == {"lhs": "[1]", "rhs": "exact division"}
                   for v in failed)


class TestSuites:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            V.run_suite("everything")

    def test_integral_suite_counts_with_explicit_pair(self):
        verdicts = V.run_suite("integrals", n_max=12, a=Fraction(0), b=Fraction(1))
        assert len(verdicts) == 12 + 13 + 12
        assert all(v.passed for v in verdicts)

    def test_grosset_veselov_suite_counts(self):
        verdicts = V.run_suite("grosset-veselov", m_max=8)
        exact = [v for v in verdicts if v.identity == "grosset_veselov_exact"]
        numeric = [v for v in verdicts if v.identity == "grosset_veselov_numeric"]
        assert (len(exact), len(numeric)) == (8, 3)
        assert all(v.passed for v in verdicts)

    def test_canonical_ordering(self):
        """By identity, then by the params' JSON text with sorted keys: in
        ``integrals``, n=10, 11 and 12 come before n=1."""
        for verdicts in (V.run_suite("lemma1", n_max=5),
                         V.run_suite("integrals", n_max=12)):
            keys = [(v.identity, json.dumps(v.params, sort_keys=True))
                    for v in verdicts]
            assert keys == sorted(keys)
        assert [(v.identity, v.params["n"]) for v in verdicts[:4]] == \
            [("integral_P", 10), ("integral_P", 11), ("integral_P", 12),
             ("integral_P", 1)]

    def test_all_passes(self):
        verdicts = V.run_suite("all")
        assert verdicts
        assert all(v.passed for v in verdicts)

    def test_all_is_sorted_union_of_sub_suites(self):
        per_suite = [V.run_suite(name) for name in V._SUB_SUITES]
        # "all" sorts by identity alone, which needs no identity in two suites
        identities = [{v.identity for v in vs} for vs in per_suite]
        assert all(not (s & t) for i, s in enumerate(identities)
                   for t in identities[i + 1:])
        union = [v for vs in per_suite for v in vs]
        expected = sorted(union, key=V._verdict_sort_key)
        assert [v.to_json_obj() for v in V.run_suite("all")] == \
            [v.to_json_obj() for v in expected]

    def test_options_a_suite_ignores_rejected(self):
        with pytest.raises(ValueError, match="does not take"):
            V.run_suite("all", n_max=1)
        with pytest.raises(ValueError, match="does not take"):
            V.run_suite("lemma1", u0=Fraction(1, 2))
        with pytest.raises(ValueError, match="does not take"):
            V.run_suite("theorem2", order=5)
        with pytest.raises(ValueError, match="together with a and b"):
            V.run_suite("integrals", d=Fraction(7))
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            V.run_suite("lemma1", n_max=0)
        with pytest.raises(ValueError, match="tol must be positive"):
            V.run_suite("grosset-veselov", m_max=1, tol=0.0)

    @pytest.mark.parametrize("call", [
        lambda: V.check_theorem(
            "theorem1", V.instance(1, 0, 1, Fraction(1, 3), order=0)),
        lambda: V.check_theorem(
            "theorem1", V.instance(1, 0, 1, Fraction(1, 3), order=-3)),
        lambda: V.suite_lemma1(0),
        lambda: V.suite_classical(0),
        lambda: V.suite_integrals(n_max=0),
        lambda: V.suite_grosset_veselov(0),
        lambda: V.suite_relations(0),
    ], ids=["theorem1-0", "theorem1-neg", "lemma1", "classical", "integrals",
            "grosset-veselov", "relations"])
    def test_empty_bound_rejected_by_library(self, call):
        """A bound below 1 raises in the checks and suites themselves, not
        only behind run_suite, so no library call passes vacuously."""
        with pytest.raises(ValueError, match="must be >= 1"):
            call()

    def test_every_named_suite_runs(self):
        for name in V.SUITE_NAMES:
            if name == "all":
                continue
            verdicts = V.run_suite(name)
            assert verdicts
            assert all(v.passed for v in verdicts)


_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)


def _per_n_integrals(n_max, a, b, d):
    """The verdicts of ``suite_integrals(n_max, a, b, d)`` from single-n
    calls of the integral streams, each of which sets up its instance and
    forms its power of b - a afresh."""
    def one(family, n, *shift):
        return next(V._integral_verdicts(family, range(n, n + 1), a, b,
                                         *shift))

    ns = range(1, n_max + 1)
    return [*(one("P", n) for n in ns),
            *(one("Q", n) for n in range(n_max + 1)),
            *(one("S", n, d) for n in ns)]


class TestPerInstanceSuites:
    """The suites set up each parameter instance once and advance their
    powers by one product per n; their verdicts equal those of single-n
    calls of the same streams, field for field."""

    @settings(max_examples=25, deadline=None)
    @given(a=_rationals, b=_rationals, d=_rationals,
           n_max=st.integers(min_value=1, max_value=12))
    @example(a=Fraction(2, 3), b=Fraction(4, 3), d=Fraction(4, 3), n_max=24)
    def test_integrals_match_per_n_checks(self, a, b, d, n_max):
        """Random rational a != b and d; the example is verify-deep's
        ``integrals --n-max 24 --a 2/3 --b 4/3 --d 4/3``."""
        assume(a != b)
        assert sorted(V.suite_integrals(n_max, a, b, d),
                      key=V._verdict_sort_key) == \
            sorted(_per_n_integrals(n_max, a, b, d), key=V._verdict_sort_key)

    @pytest.mark.parametrize("fault", ["mutated_poly_eval",
                                       "mutated_tangent_numbers"])
    def test_failures_match_per_n_checks(self, request, fault):
        """Under a fault the per-instance and per-n verdicts fail alike,
        with the same first failures and witnesses."""
        request.getfixturevalue(fault)
        a, b, d = Fraction(1, 3), Fraction(5, 3), Fraction(2, 3)
        suite = V.suite_integrals(16, a, b, d)
        assert suite == _per_n_integrals(16, a, b, d)
        assert not all(v.passed for v in suite)


def _verdicts_digest(verdicts) -> str:
    """SHA-256 of the verdict JSON; numeric quadrature verdicts keep only
    their status, because their float witnesses depend on the quadrature
    rule rather than on the identity."""
    objs = []
    for v in verdicts:
        if v.identity == "grosset_veselov_numeric":
            objs.append({"identity": v.identity, "params": v.params,
                         "status": v.status})
        else:
            objs.append(v.to_json_obj())
    return hashlib.sha256(json.dumps(objs, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("fault,digest", [
    ("mutated_eulerian_recurrence", "2ebff25b431d8e4042fde4cece535319e0bbfb0202a1d599c4c3fb98ead1edf2"),
    ("mutated_macmahon_recurrence", "c7b18889ed525a9e4946610a7c784e0ed3ba71f72dc7f27a5a1d5fe63896a855"),
])
def test_verdicts_under_fault_pinned(request, fault, digest):
    """Every verdict and witness of ``all`` under an injected fault is pinned."""
    request.getfixturevalue(fault)
    assert _verdicts_digest(V.run_suite("all")) == digest


_JSON_PLAIN = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7e,
                                    blacklist_characters='"\\'))
#: Every value ``json_object`` writes: ints, finite floats, plain strs,
#: bools and None, nested in lists and in dicts under plain str keys.
_JSON_VALUES = st.recursive(
    st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | _JSON_PLAIN | st.booleans() | st.none(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_JSON_PLAIN, inner, max_size=4),
    max_leaves=12)


class TestParamsJson:
    """``json_object``, which writes the verdicts' params and lines, writes
    the text of ``json.dumps(value, sort_keys=True)``, the reference,
    without importing ``json``."""

    def test_every_default_verdict(self):
        for v in V.run_suite("all"):
            assert V.json_object(v.params) == json.dumps(v.params, sort_keys=True)

    def test_verify_deep_commands(self):
        """The five verify-deep commands of ``perfbench/workloads.py`` at
        seeds 1-3, read without editing it."""
        from derivpoly import cli
        spec = importlib.util.spec_from_file_location(
            "workloads", Path(cli.__file__).resolve().parents[2]
            / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        for seed in (1, 2, 3):
            for argv in workloads.commands("verify-deep", seed):
                args = cli.parse_args(argv)
                verdicts = V.run_suite(
                    args.suite, n_max=args.n_max, m_max=args.m_max,
                    order=args.order, u0=args.u0, a=args.a, b=args.b, d=args.d,
                    tol=args.tol)
                for v in verdicts:
                    assert V.json_object(v.params) == \
                        json.dumps(v.params, sort_keys=True), argv

    @given(_JSON_VALUES)
    def test_property(self, value):
        assert V.json_object(value) == json.dumps(value, sort_keys=True)

    @pytest.mark.parametrize("value", [
        float("-inf"), "\t", "\x7f", 'a"b', "a\\b", "\u00e9", "\n",
        float("nan"), float("inf"), (1, 2), Fraction(1, 2)])
    def test_refuses_what_it_would_guess(self, value):
        for wrapped in (value, [value], {"x": value}, {"x": [{"y": value}]}):
            with pytest.raises(ValueError):
                V.json_object(wrapped)

    def test_refuses_keys_that_are_not_strings(self):
        for key in (1, None, True, (1,), 'a"b'):
            with pytest.raises(ValueError):
                V.json_object({key: 1})
            with pytest.raises(ValueError):
                V.json_object({"x": [{key: 1}]})
