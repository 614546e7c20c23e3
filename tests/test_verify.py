import hashlib
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
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
# (r, a, b, d, u0, v0, order); u0 is drawn free or set to a or b, the
# constant solutions, which random rationals almost never hit.
oracle_instances = st.tuples(
    oracle_rationals.filter(bool), oracle_rationals, oracle_rationals,
    oracle_rationals, oracle_rationals, oracle_rationals.filter(bool),
    st.integers(1, 40), st.sampled_from((4, 1, 2)),
).filter(lambda t: t[1] != t[2]).map(lambda t: (*t[:4], t[t[7]], *t[5:7]))


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
        verdict = V.check_theorem1(V.instance(r, a, b, u0, order=16))
        assert verdict.passed

    def test_instance_independence(self):
        for u0 in (Fraction(1, 3), Fraction(1, 2), Fraction(-2), Fraction(7, 5)):
            assert V.check_theorem1(V.instance(1, 0, 1, u0, order=15)).passed

    def test_degenerate_initial_values_pass(self):
        # u0 = a and u0 = b give constant solutions; both sides vanish
        assert V.check_theorem1(V.instance(1, 0, 1, 0, order=10)).passed
        assert V.check_theorem1(V.instance(1, 0, 1, 1, order=10)).passed

    def test_mutation_is_detected(self, mutated_eulerian_recurrence):
        verdict = V.check_theorem1(V.instance(1, 0, 1, Fraction(1, 3), order=16))
        assert not verdict.passed
        assert verdict.first_failure is not None
        assert verdict.witness is not None


class TestTheorems2And3:
    @pytest.mark.parametrize("r,a,b,u0", V.ORACLE_INSTANCES)
    def test_unshifted(self, r, a, b, u0):
        assert V.check_theorem2(V.instance(r, a, b, u0, order=12)).passed

    def test_scale_freedom_in_v0(self):
        inst = V.instance(1, 0, 1, Fraction(1, 3), v0=Fraction(2, 3), order=12)
        assert V.check_theorem2(inst).passed

    def test_shifted_requires_d_zero(self):
        with pytest.raises(ValueError):
            V.check_theorem2(V.instance(1, 0, 1, Fraction(1, 3), d=Fraction(1, 4)))

    @pytest.mark.parametrize("d", [Fraction(1, 4), Fraction(-1, 2)])
    @pytest.mark.parametrize("r,a,b,u0", V.ORACLE_INSTANCES)
    def test_shifted(self, r, a, b, u0, d):
        assert V.check_theorem3(V.instance(r, a, b, u0, d=d, order=12)).passed


_SCALARS = st.one_of(st.integers(-3, 3),
                     st.fractions(-3, 3, max_denominator=4))
_RING_ELEMENTS = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3).map(Poly))


class TestEgfChecks:
    def test_all_pass_at_default_order(self):
        assert V.check_egf_eulerian(10).passed
        assert V.check_egf_A(10).passed
        assert V.check_egf_macmahon(10).passed
        assert V.check_egf_macmahon_halved(10).passed

    def test_order_one_is_trivially_checkable(self):
        assert V.check_egf_eulerian(1).passed
        assert V.check_egf_A(1).passed

    def test_closed_forms(self):
        assert V.check_F_closed_form(Fraction(1, 3), 10).passed
        assert V.check_F_closed_form(Fraction(1, 2), 10).passed
        for d in (Fraction(0), Fraction(1, 4), Fraction(-1, 2)):
            assert V.check_H_closed_form(Fraction(1, 3), d, 10).passed

    def test_u0_outside_unit_interval_rejected(self):
        for bad in (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 3)):
            with pytest.raises(ValueError):
                V.check_F_closed_form(bad, 5)
            with pytest.raises(ValueError):
                V.check_H_closed_form(bad, Fraction(1, 4), 5)

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

    def test_macmahon_needs_the_doubled_exponent(self):
        """The README's note: without the doubled exponent the MacMahon EGF
        check fails already at order 1, since M_1(x) = 1 + x."""
        verdict = V._check_egf("egf_macmahon", V.build_M, 10,
                               (1, -X, -X + 1), (0, -X + 1, -X + 1))
        assert not verdict.passed
        assert verdict.first_failure == 1
        assert verdict.witness == {"lhs": "[1, -1]", "rhs": "[1, -2, 1]"}

    def test_mutation_is_detected(self, mutated_eulerian_recurrence):
        assert not V.check_egf_eulerian(10).passed
        assert not V.check_egf_A(10).passed

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
        assert all(V.check_classical(n).passed for n in range(1, 16))

    def test_mutation_is_detected(self, mutated_eulerian_recurrence):
        assert not all(V.check_lemma1(n).passed for n in range(1, 16))
        assert not all(V.check_classical(n).passed for n in range(1, 16))

    def test_mutation_fails_classical_at_every_n(self, mutated_eulerian_recurrence):
        """Row 1 is the only correct row left, so the integer-row sum must
        fail every n from 2 to the verify-deep bound 40."""
        failing = [n for n in range(1, 41) if not V.check_classical(n).passed]
        assert failing == list(range(2, 41))


class TestIntegralChecks:
    def test_p_family_anchors(self):
        assert V.check_integral_P(1, 0, 1).passed
        assert V.check_integral_P(2, 0, 1).passed
        assert V.check_integral_P(3, Fraction(-7, 2), Fraction(5, 3)).passed

    def test_p_family_range(self):
        for a, b in V.INTEGRAL_PAIRS:
            assert all(V.check_integral_P(n, a, b).passed for n in range(1, 21))

    def test_q_family_range(self):
        for a, b in V.INTEGRAL_PAIRS:
            assert all(V.check_integral_Q(n, a, b).passed for n in range(0, 21))

    def test_q_family_spot_value(self):
        # n=2 on (-1, 3): both sides equal -64/3
        params = RiccatiParams(1, -1, 3)
        from derivpoly.derivative_polys import build_Q
        assert build_Q(2, params).definite_integral(-1, 3) == Fraction(-64, 3)
        assert V.check_integral_Q(2, -1, 3).passed

    def test_s_family(self):
        for a, b, d in V.INTEGRAL_S_TRIPLES:
            assert all(V.check_integral_S(n, a, b, d).passed
                       for n in range(1, 13))

    def test_s_reduces_to_q_at_zero_shift(self):
        for n in range(1, 13):
            assert V.check_integral_S(n, 0, 1, 0).passed

    def test_s_spot_value(self):
        assert V.check_integral_S(1, 0, 1, Fraction(1, 4)).passed

    def test_symmetric_interval_form(self):
        assert all(V.check_integral_P_symmetric(n).passed for n in range(1, 17))

    def test_index_validation(self):
        with pytest.raises(ValueError):
            V.check_integral_P(0, 0, 1)
        with pytest.raises(ValueError):
            V.check_integral_Q(-1, 0, 1)
        with pytest.raises(ValueError):
            V.check_integral_S(0, 0, 1, 1)


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
        for tol in (0, math.inf, math.nan, 1.0):
            with pytest.raises(ValueError):
                V.grosset_veselov_numeric(1, tol=tol)

    @pytest.mark.parametrize("tol", [0.0, math.nan, 1.0])
    def test_suite_rejects_tol_before_exact_work(self, monkeypatch, tol):
        def exact_not_expected(m):
            raise AssertionError("exact verdicts ran before tol was checked")

        monkeypatch.setattr(V, "grosset_veselov_exact", exact_not_expected)
        with pytest.raises(ValueError, match="tol"):
            V.run_suite("grosset-veselov", m_max=40, tol=tol)

    def test_unreachable_tolerance_is_inconclusive(self):
        """Below the rounding of the sums the quadrature cannot converge:
        two equal sums must not pass as converged, so every m is
        inconclusive, never a pass or a failed comparison."""
        for tol in (1e-16, 1e-300):
            for m in (1, 2, 3):
                verdict = V.grosset_veselov_numeric(m, tol=tol)
                assert verdict.status == "inconclusive", (m, tol)
                assert verdict.to_json_obj()["inconclusive"] is True


class TestRelationChecks:
    def test_substitutions(self):
        params = RiccatiParams(1, 0, 1)
        assert all(V.check_substitution_E(n, params).passed for n in range(1, 13))
        assert all(V.check_substitution_M(n, params).passed for n in range(0, 13))

    def test_homogeneity(self):
        params = RiccatiParams(1, Fraction(-2, 3), Fraction(3, 2))
        assert all(V.check_homogeneity_Q(n, params).passed for n in range(1, 11))

    def test_integrality(self):
        assert all(V.check_integrality(n).passed for n in range(0, 21))

    def test_triangle_checks(self):
        assert V.check_eulerian_triangle(12).passed
        assert V.check_macmahon_triangle(20).passed

    def test_triangle_mutation_detected(self, mutated_eulerian_recurrence):
        verdict = V.check_eulerian_triangle(12)
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
            verdict = V.check_macmahon_triangle(20)
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
            ("A: [1, 4, 1]", "A: [1, 4, 2]"),  # labelled texts
            (Poly([1]), V._claim(Poly([1]), False, "exact division")),
        ]
        for lhs, rhs in unequal:
            verdict = V._scan("demo", {}, iter([(1, lhs, lhs), (2, lhs, rhs)]))
            assert (verdict.passed, verdict.first_failure) == (False, 2)
            assert verdict.witness == {"lhs": str(lhs), "rhs": str(rhs)}

    def test_failure_carries_witness(self, mutated_eulerian_recurrence):
        verdict = V.check_egf_eulerian(6)
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
        verdicts = V.run_suite("lemma1", n_max=5)
        keys = [(v.identity, json.dumps(v.params, sort_keys=True, default=str))
                for v in verdicts]
        assert keys == sorted(keys)

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
        lambda: V.check_theorem1(V.instance(1, 0, 1, Fraction(1, 3), order=0)),
        lambda: V.check_theorem1(V.instance(1, 0, 1, Fraction(1, 3), order=-3)),
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
    ("mutated_eulerian_recurrence", "2742a72793f830f004a3b6395144303b59c78863556f9e95417864faab892a04"),
    ("mutated_macmahon_recurrence", "f09ae2101e4537a1e288897a2cd6ad75aa31807d3129cede448c7234580fc8e9"),
])
def test_verdicts_under_fault_pinned(request, fault, digest):
    """Every verdict and witness of ``all`` under an injected fault is pinned."""
    request.getfixturevalue(fault)
    assert _verdicts_digest(V.run_suite("all")) == digest
