import json
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from derivpoly import cli, derivative_polys, special_numbers
from derivpoly.derivative_polys import (
    RiccatiParams,
    build_A,
    build_E,
    build_M,
    build_P,
    build_Q,
    build_S,
    family_poly,
)
from derivpoly.exact import UsageError
from derivpoly.polyseries import Poly, X
from derivpoly.special_numbers import eulerian, eulerian_row, macmahon

BASE01 = RiccatiParams(1, 0, 1)
BASE_PM1 = RiccatiParams(-1, -1, 1)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            RiccatiParams(0, 0, 1)
        with pytest.raises(ValueError):
            RiccatiParams(1, 2, 2)
        # d is unrestricted
        RiccatiParams(1, 0, 1, Fraction(-7, 3))

    def test_coercion_and_accessors(self):
        sp = RiccatiParams(1, 0, 1, Fraction(1, 4))
        assert (sp.r, sp.a, sp.b, sp.d) == (1, 0, 1, Fraction(1, 4))
        assert isinstance(sp.d, Fraction)


class TestBuildP:
    def test_anchors(self):
        assert build_P(1, BASE01) == X
        assert build_P(2, BASE01) == Poly([0, -1, 1])
        assert build_P(3, BASE01) == Poly([0, 1, -3, 2])

    def test_general_parameters(self):
        p = RiccatiParams(5, Fraction(1, 2), -2)
        assert build_P(1, p) == X - Fraction(1, 2)
        assert build_P(2, p) == (X - Fraction(1, 2)) * (X + 2)

    def test_degree(self):
        for n in range(1, 21):
            assert build_P(n, BASE_PM1).degree == n

    def test_roots_at_a_and_b(self):
        p = RiccatiParams(1, Fraction(2, 3), Fraction(-1, 5))
        for n in range(1, 13):
            poly = build_P(n, p)
            assert poly.eval(p.a) == 0
            if n >= 2:
                assert poly.eval(p.b) == 0

    def test_rejects_nonpositive_index(self):
        with pytest.raises(ValueError):
            build_P(0, BASE01)


class TestBuildQ:
    def test_anchors(self):
        assert build_Q(0, BASE01) == Poly([1])
        assert build_Q(0, BASE_PM1) == Poly([1])
        assert build_Q(1, BASE01) == Poly([-1, 2])
        assert build_Q(2, BASE01) == Poly([1, -8, 8])

    def test_degree(self):
        for n in range(0, 21):
            assert build_Q(n, BASE01).degree == n

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            build_Q(-1, BASE01)


def power_table_P(n, a, b):
    """Reference P_n: sum_k E(n-1,k) (u-a)^(k+1) (u-b)^(n-1-k), each basis
    element a full product of two powers."""
    if n == 1:
        return X - a
    pa = [(X - a) ** k for k in range(n + 1)]
    pb = [(X - b) ** k for k in range(n + 1)]
    return sum((eulerian(n - 1, k) * pa[k + 1] * pb[n - 1 - k]
                for k in range(n - 1)), Poly())


def power_table_Q(n, a, b):
    """Reference Q_n: sum_k M(n+1,k) (u-a)^(n+1-k) (u-b)^(k-1)."""
    pa = [(X - a) ** k for k in range(n + 1)]
    pb = [(X - b) ** k for k in range(n + 1)]
    return sum((macmahon(n + 1, k) * pa[n + 1 - k] * pb[k - 1]
                for k in range(1, n + 2)), Poly())


class TestHornerBuildersMatchPowerTables:
    @pytest.mark.parametrize("a,b", [
        (0, 1), (Fraction(1, 3), Fraction(4, 3)),
        (Fraction(-2, 3), Fraction(2, 3)), (3, -2),
    ])
    def test_fixed_pairs(self, a, b):
        params = RiccatiParams(1, a, b)
        for n in range(1, 31):
            assert build_P(n, params) == power_table_P(n, a, b)
        for n in range(0, 31):
            assert build_Q(n, params) == power_table_Q(n, a, b)

    @settings(max_examples=25, deadline=None)
    @given(a=st.fractions(min_value=-5, max_value=5, max_denominator=12),
           b=st.fractions(min_value=-5, max_value=5, max_denominator=12),
           n=st.integers(min_value=1, max_value=30))
    def test_random_pairs(self, a, b, n):
        assume(a != b)
        params = RiccatiParams(1, a, b)
        assert build_P(n, params) == power_table_P(n, a, b)
        assert build_Q(n, params) == power_table_Q(n, a, b)


class TestBuildS:
    @settings(max_examples=20, deadline=None)
    @given(a=st.fractions(min_value=-5, max_value=5, max_denominator=12),
           b=st.fractions(min_value=-5, max_value=5, max_denominator=12))
    @example(a=Fraction(0), b=Fraction(1))
    def test_zero_shift_is_q(self, a, b):
        assume(a != b)
        params = RiccatiParams(1, a, b, 0)
        for n in range(0, 13):
            assert build_S(n, params) == build_Q(n, params)

    @settings(max_examples=40, deadline=None)
    @given(a=st.fractions(min_value=-5, max_value=5, max_denominator=12),
           b=st.fractions(min_value=-5, max_value=5, max_denominator=12),
           d=st.fractions(min_value=-5, max_value=5, max_denominator=12),
           n=st.integers(min_value=0, max_value=12))
    def test_p_and_q_memo_ignores_d(self, a, b, d, n):
        assume(a != b)
        plain, shifted = RiccatiParams(1, a, b), RiccatiParams(1, a, b, d)
        assert build_P(n + 1, shifted) is build_P(n + 1, plain)
        assert build_Q(n, shifted) is build_Q(n, plain)

    def test_anchors(self):
        assert build_S(0, RiccatiParams(1, 0, 1, Fraction(9, 4))) == Poly([1])
        assert build_S(1, RiccatiParams(1, 0, 1, Fraction(-1, 2))) == Poly([-2, 2])

    def test_degree(self):
        sp = RiccatiParams(1, 0, 1, Fraction(1, 3))
        for n in range(0, 21):
            assert build_S(n, sp).degree == n

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            build_S(-1, RiccatiParams(1, 0, 1, 0))

    def test_reads_no_q_member(self):
        """S comes from its own shifted MacMahon row: from cold caches,
        building S_12 memoizes no family member but S_12."""
        special_numbers.reset_caches()
        build_S(12, RiccatiParams(1, 0, 1, Fraction(1, 4)))
        assert {key[0] for key in special_numbers.FAMILY_CACHE} == {"build_S"}


def derivative(poly):
    """d/du, from the Fraction coefficients."""
    return Poly([k * c for k, c in enumerate(poly.coeffs)][1:])


def poly_horner(coeffs, x, y):
    """Reference homogeneous sum sum_k coeffs[k] x^k y^(m-k): Horner's rule
    on ``Poly`` objects, normalising after every product and sum."""
    acc = Poly((coeffs[-1],))
    y_pow = Poly((1,))
    for c in reversed(coeffs[:-1]):
        y_pow = y_pow * y
        acc = acc * x + c * y_pow
    return acc


def poly_shift_transform(n, params):
    """Reference S_n: the binomial transform as a sum of ``Poly`` objects
    with ``Fraction`` weights C(n,k) (2d)^k."""
    two_d = 2 * params.d
    total = Poly()
    factor = Fraction(1)
    for k in range(n + 1):
        total = total + math.comb(n, k) * factor * build_Q(n - k, params)
        factor *= two_d
    return total


# either sign, denominators up to 15; the tests below ask for a != b with
# different denominators, so the kernels' common denominator is a real lcm
rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 15))
# numerators up to 10^12 over denominators up to 10^9: wide packed digits
tall_rationals = st.builds(Fraction, st.integers(-10**12, 10**12),
                           st.integers(1, 10**9))


class TestIntegerKernelsSecondRoutes:
    """The integer Horner kernel and the shifted MacMahon rows against
    routes that share no code with them: the derivative recurrences that
    define P, Q and S, ``Poly``-object copies of the kernels and S's
    binomial transform of the Q's."""

    @settings(max_examples=40, deadline=None)
    @given(a=rationals, b=rationals, d=rationals,
           n=st.integers(min_value=0, max_value=25))
    def test_derivative_recurrences(self, a, b, d, n):
        assume(a != b and a.denominator != b.denominator)
        params = RiccatiParams(1, a, b)
        ua_ub = (X - a) * (X - b)
        if n >= 1:
            assert build_P(n + 1, params) == \
                ua_ub * derivative(build_P(n, params))
        q = build_Q(n, params)
        assert build_Q(n + 1, params) == \
            (2 * X - a - b) * q + 2 * ua_ub * derivative(q)
        shifted = RiccatiParams(1, a, b, d)
        s = build_S(n, shifted)
        assert build_S(n + 1, shifted) == \
            (2 * X - a - b + 2 * d) * s + 2 * ua_ub * derivative(s)

    @settings(max_examples=40, deadline=None)
    @given(coeffs=st.lists(st.integers(-10**6, 10**6), min_size=1,
                           max_size=26),
           a=rationals, b=rationals)
    def test_horner_kernel(self, coeffs, a, b):
        assume(a != b and a.denominator != b.denominator)
        assert derivative_polys._homogeneous(coeffs, a, b) == \
            poly_horner(coeffs, X - a, X - b)

    @settings(max_examples=40, deadline=None)
    @given(coeffs=st.lists(st.integers(-10**40, 10**40), min_size=1,
                           max_size=60),
           a=tall_rationals, b=tall_rationals)
    @example(coeffs=[0] * 60, a=Fraction(10**12, 7), b=Fraction(-1, 10**9))
    @example(coeffs=[0], a=Fraction(1, 3), b=Fraction(5, 3))
    @example(coeffs=[-10**40], a=Fraction(-10**12, 10**9 - 1),
             b=Fraction(10**12 - 1, 10**9))
    @example(coeffs=[10**40, -10**40] * 30, a=Fraction(0),
             b=Fraction(10**12, 10**9 - 7))
    @example(coeffs=[-10**40, 10**40] * 30, a=Fraction(-10**12, 10**9 - 7),
             b=Fraction(0))
    @example(coeffs=[10**40] * 60, a=Fraction(10**12, 10**9 - 7),
             b=Fraction(-10**12, 10**9 - 7))
    def test_horner_kernel_at_the_packing_bound(self, coeffs, a, b):
        """The packed kernel against ``poly_horner`` where its digits are
        widest: coefficients up to 10^40 of either sign, up to 60 of them,
        and roots with numerators up to 10^12 over denominators up to 10^9,
        with a = 0, b = 0 and a = -b among the examples."""
        assert derivative_polys._homogeneous(coeffs, a, b) == \
            poly_horner(coeffs, X - a, X - b)

    @settings(max_examples=30, deadline=None)
    @given(coeffs=st.one_of(
               st.integers(1, 60).map(eulerian_row),
               st.integers(1, 60).map(special_numbers.macmahon_row),
               st.lists(st.integers(-10**40, 10**40), min_size=1, max_size=61)),
           a=tall_rationals, b=tall_rationals)
    @example(coeffs=[10**40] * 61, a=Fraction(10**12, 10**9 - 7),
             b=Fraction(-10**12, 10**9 - 7))
    @example(coeffs=[-10**40, 10**40] * 30, a=Fraction(-10**12, 1),
             b=Fraction(10**12, 1))
    @example(coeffs=[0] * 60 + [1], a=Fraction(1 - 2**20), b=Fraction(2**20 - 1))
    def test_per_pass_digit_widths(self, coeffs, a, b):
        """Each pass of the kernel packs at its own width: at tall
        parameters and rows up to 60 the kernel equals sum_k c_k (u-a)^k
        (u-b)^(m-k) formed by ``Poly`` arithmetic, each pass reads back the
        exact coefficients of its polynomial (pass 1: sum_k c_k (1 + delta
        t)^k; pass 2: q^m times the result), the widest of them fits its
        pass's width, and neither width exceeds the old shared one.  The
        last example is (u-a)^60 at a = -b = 1 - 2^20, where the bound from
        pass 1's digits alone, (q + 3|b|)^60, is wider than the row's."""
        assume(a != b)
        passes, read = [], derivative_polys._digits

        def recorded(packed, width, count):
            digits = read(packed, width, count)
            passes.append((width, [*digits]))  # Poly._over pops zeros
            return digits

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(derivative_polys, "_digits", recorded)
            result = derivative_polys._homogeneous(coeffs, a, b)
        m = len(coeffs) - 1
        expected = sum((c * (X - a) ** k * (X - b) ** (m - k)
                        for k, c in enumerate(coeffs)), Poly())
        assert result == expected
        q = math.lcm(a.denominator, b.denominator)
        na, nb = int(q * a), int(q * b)
        pass1 = sum((c * Poly((1, nb - na)) ** k for k, c in enumerate(coeffs)),
                    Poly())
        pass2 = expected * q ** m
        shared = (sum(map(abs, coeffs)).bit_length()
                  + m * (q + abs(na) + abs(nb)).bit_length()) // 8 + 1
        for (width, digits), poly in zip(passes, (pass1, pass2), strict=True):
            assert poly._den == 1
            assert digits == [*poly._coeffs, *[0] * (m + 1 - len(poly._coeffs))]
            widest = max(abs(x) for x in digits)
            assert widest.bit_length() <= 8 * width - 1
            assert width <= shared

    def test_p_derivative_recurrence_at_n_160(self):
        a, b = Fraction(1, 3), Fraction(5, 3)
        params = RiccatiParams(1, a, b)
        assert build_P(161, params) == \
            (X - a) * (X - b) * derivative(build_P(160, params))

    @settings(max_examples=40, deadline=None)
    @given(a=rationals, b=rationals, n=st.integers(min_value=2, max_value=25))
    def test_p_against_two_stage_build(self, a, b, n):
        """The padded-row pass against the unpadded row's sum times
        (u-a)(u-b), the two-stage build that the pass replaced."""
        assume(a != b)
        assert build_P(n, RiccatiParams(1, a, b)) == (X - a) * (X - b) * \
            derivative_polys._homogeneous(eulerian_row(n - 1), a, b)

    @settings(max_examples=40, deadline=None)
    @given(a=rationals, b=rationals, d=rationals,
           n=st.integers(min_value=0, max_value=25))
    def test_shift_transform(self, a, b, d, n):
        assume(a != b and a.denominator != b.denominator)
        sp = RiccatiParams(1, a, b, d)
        assert build_S(n, sp) == poly_shift_transform(n, sp)


class TestCombinatorialPolynomials:
    def test_eulerian_anchors(self):
        assert build_E(0) == Poly([1])
        assert build_E(3) == Poly([0, 1, 4, 1])
        assert build_A(0) == Poly([1])
        assert build_A(1) == Poly([1])
        assert build_A(4) == Poly([1, 11, 11, 1])

    def test_e_is_x_times_a(self):
        for n in range(1, 13):
            assert build_E(n) == X * build_A(n)

    def test_macmahon_anchors(self):
        assert build_M(0) == Poly([1])
        assert build_M(2) == Poly([1, 6, 1])
        assert build_M(3) == Poly([1, 23, 23, 1])

    def test_reject_negative(self):
        for builder in (build_E, build_A, build_M):
            with pytest.raises(ValueError):
                builder(-1)


class TestSubstitutionRelations:
    SAMPLES = [Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(3, 7),
               Fraction(-5, 3)]

    @pytest.mark.parametrize("params", [BASE01, RiccatiParams(1, Fraction(-2, 3), Fraction(3, 2))])
    def test_eulerian_substitution(self, params):
        for n in range(1, 13):
            e = build_E(n)
            p = build_P(n + 1, params)
            for u in self.SAMPLES:
                if u == params.b:
                    continue
                x = (u - params.a) / (u - params.b)
                assert e.eval(x) == p.eval(u) / (u - params.b) ** (n + 1)

    @pytest.mark.parametrize("params", [BASE01, RiccatiParams(1, Fraction(-2, 3), Fraction(3, 2))])
    def test_macmahon_substitution(self, params):
        for n in range(0, 13):
            m = build_M(n)
            q = build_Q(n, params)
            for u in self.SAMPLES:
                if u == params.b:
                    continue
                x = (u - params.a) / (u - params.b)
                assert m.eval(x) == q.eval(u) / (u - params.b) ** n


class TestHomogeneity:
    def test_scaling_law(self):
        params = RiccatiParams(1, Fraction(1, 2), 3)
        for lam in (Fraction(2), Fraction(-3), Fraction(1, 5)):
            scaled = RiccatiParams(1, lam * params.a, lam * params.b)
            for n in range(0, 11):
                q = build_Q(n, params)
                qs = build_Q(n, scaled)
                for u in (Fraction(2), Fraction(-1, 3), Fraction(7, 5)):
                    assert qs.eval(lam * u) == lam ** n * q.eval(u)


class TestIntegrality:
    def test_reduced_shifted_family_is_integral(self):
        sp = RiccatiParams(1, 0, 1, Fraction(-1, 2))
        for n in range(0, 21):
            quotient, rem = divmod(build_P(n + 1, BASE01), X)
            assert rem.is_zero()
            s = build_S(n, sp)
            assert s == 2 ** n * quotient
            reduced = s * Fraction(1, 2 ** n)
            assert all(c.denominator == 1 for c in reduced.coeffs)


class TestFamilyDispatch:
    def test_each_family(self):
        assert family_poly("P", 2, a=0, b=1) == Poly([0, -1, 1])
        assert family_poly("Q", 2, a=0, b=1) == Poly([1, -8, 8])
        assert family_poly("S", 1, a=0, b=1, d=Fraction(-1, 2)) == Poly([-2, 2])
        assert family_poly("E", 3) == Poly([0, 1, 4, 1])
        assert family_poly("A", 4) == Poly([1, 11, 11, 1])
        assert family_poly("M", 3) == Poly([1, 23, 23, 1])

    @pytest.mark.parametrize("family, params, least", [
        ("P", {"a": 0, "b": 1}, 1), ("Q", {"a": 0, "b": 1}, 0),
        ("S", {"a": 0, "b": 1, "d": 1}, 0), ("E", {}, 0), ("A", {}, 0),
        ("M", {}, 0),
    ])
    def test_n_below_first_member_is_the_builders_usage_error(
            self, family, params, least):
        """Each builder refuses an n below its family's first member, and
        ``family_poly`` passes that refusal on as it is."""
        message = f"^need n >= {least}, got {least - 1}$"
        build = getattr(derivative_polys, f"build_{family}")
        record = (RiccatiParams(1, **params),) if params else ()
        with pytest.raises(UsageError, match=message):
            build(least - 1, *record)
        with pytest.raises(UsageError, match=message):
            family_poly(family, least - 1, **params)

    def test_missing_parameters_rejected(self):
        with pytest.raises(ValueError):
            family_poly("P", 2, a=0)
        with pytest.raises(ValueError):
            family_poly("S", 1, a=0, b=1)
        with pytest.raises(ValueError):
            family_poly("P", 2, a=1, b=1)
        with pytest.raises(ValueError):
            family_poly("Z", 1)
        # parameters the family does not depend on
        for family in ("E", "A", "M"):
            for key in ("r", "a", "b", "d"):
                with pytest.raises(ValueError, match="does not take"):
                    family_poly(family, 2, **{key: Fraction(1)})
        for family in ("P", "Q"):
            with pytest.raises(ValueError, match="does not take d"):
                family_poly(family, 2, a=0, b=1, d=Fraction(5))

    def test_json_shape(self, capsys):
        code = cli.main(["poly", "P", "--n", "2", "--a", "0", "--b", "1",
                         "--format", "json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {
            "family": "P",
            "n": 2,
            "params": {"r": None, "a": "0", "b": "1", "d": None},
            "coefficients": ["0", "-1", "1"],
        }
