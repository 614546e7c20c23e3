import json
import math
import sys
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
    family_value,
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
        assert {key[0] for key in special_numbers.FAMILY_CACHE} == {"S"}


_SMALL = st.fractions(min_value=-5, max_value=5, max_denominator=12)


class TestFamilyMemo:
    """``FAMILY_CACHE`` keys a member on (letter, n, q, na, nb), with S's
    shift key (p, e) appended for S: what ``_family_row`` and the kernel
    read, so each key is one member."""

    @settings(max_examples=40, deadline=None)
    @given(r=_SMALL, r2=_SMALL, a=_SMALL, b=_SMALL, d=_SMALL, d2=_SMALL,
           n=st.integers(min_value=1, max_value=24))
    @example(r=Fraction(1), r2=Fraction(-1, 2), a=Fraction(0), b=Fraction(1),
             d=Fraction(1, 3), d2=Fraction(2, 3), n=1)
    def test_key_is_one_member(self, r, r2, a, b, d, d2, n):
        """A member from a warm memo equals a cold build from its row;
        records that differ only in r share every entry, P and Q entries
        are shared across d too, and S at two values of d shares none."""
        assume(r != 0 and r2 != 0 and a != b)
        params = RiccatiParams(r, a, b, d)
        other_r, other_d = RiccatiParams(r2, a, b, d), RiccatiParams(r, a, b, d2)
        builders = {"P": build_P, "Q": build_Q, "S": build_S}
        special_numbers.reset_caches()
        try:
            for letter, build in builders.items():
                warm = build(n, params)
                cold = derivative_polys._homogeneous(
                    *derivative_polys._family_row(letter, n, params))
                assert warm == cold and warm is not cold
                assert build(n, params) is warm
                assert build(n, other_r) is warm
                if letter != "S":
                    assert build(n, other_d) is warm
            s_keys = [key for key in special_numbers.FAMILY_CACHE
                      if key[0] == "S"]
            assert len(s_keys) == 1
            if d2 != d:
                assert build_S(n, other_d) is not build_S(n, params)
                assert len(special_numbers.FAMILY_CACHE) == 4
        finally:
            special_numbers.reset_caches()  # no shifted triangle outlives it


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


def over_q(a, b) -> tuple[int, int, int]:
    """(q, na, nb): a and b over their one denominator q, na = q a and
    nb = q b, the integer endpoints that ``_homogeneous`` takes."""
    q = math.lcm(a.denominator, b.denominator)
    return q, int(q * a), int(q * b)


# either sign, denominators up to 15; the tests below ask for a != b with
# different denominators, so the kernels' common denominator is a real lcm
rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 15))
#: The largest m that ``_homogeneous`` builds in one pass.
ONE_PASS_MAX_M = 20
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
        assert derivative_polys._homogeneous(coeffs, *over_q(a, b)) == \
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
        assert derivative_polys._homogeneous(coeffs, *over_q(a, b)) == \
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
    @example(coeffs=[10**40] * 21, a=Fraction(10**12, 10**9 - 7),
             b=Fraction(-10**12, 10**9 - 7))
    @example(coeffs=[-10**40, 10**40] * 10 + [-10**40],
             a=Fraction(-10**12, 1), b=Fraction(10**12, 1))
    def test_per_pass_digit_widths(self, coeffs, a, b):
        """Each pass of the kernel packs at its own width: at tall
        parameters and rows up to 60 the kernel equals sum_k c_k (u-a)^k
        (u-b)^(m-k) formed by ``Poly`` arithmetic.  A member with m <= 20
        is one pass, whose one read is q^m times the result; a larger one
        is two, each reading back the exact coefficients of its polynomial
        (pass 1: sum_k c_k (1 + delta t)^k; pass 2: q^m times the result).
        The widest digit of every read fits its width, and no width exceeds
        the old shared one.  The third example is (u-a)^60 at a = -b =
        1 - 2^20, where the bound from pass 1's digits alone, (q + 3|b|)^60,
        is wider than the row's; the last two are one-pass members at the
        widest digits."""
        assume(a != b)
        passes, read = [], derivative_polys._digits

        def recorded(packed, width, count):
            digits = read(packed, width, count)
            passes.append((width, [*digits]))  # Poly._over pops zeros
            return digits

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(derivative_polys, "_digits", recorded)
            result = derivative_polys._homogeneous(coeffs, *over_q(a, b))
        m = len(coeffs) - 1
        expected = sum((c * (X - a) ** k * (X - b) ** (m - k)
                        for k, c in enumerate(coeffs)), Poly())
        assert result == expected
        q, na, nb = over_q(a, b)
        pass1 = sum((c * Poly((1, nb - na)) ** k for k, c in enumerate(coeffs)),
                    Poly())
        pass2 = expected * q ** m
        shared = (sum(map(abs, coeffs)).bit_length()
                  + m * (q + abs(na) + abs(nb)).bit_length()) // 8 + 1
        reads = (pass2,) if m <= ONE_PASS_MAX_M else (pass1, pass2)
        for (width, digits), poly in zip(passes, reads, strict=True):
            assert poly._den == 1
            assert digits == [*poly._coeffs, *[0] * (m + 1 - len(poly._coeffs))]
            widest = max(abs(x) for x in digits)
            assert widest.bit_length() <= 8 * width - 1
            assert width <= shared

    @settings(max_examples=40, deadline=None)
    @given(coeffs=st.lists(st.integers(-10**6, 10**6), min_size=1,
                           max_size=ONE_PASS_MAX_M + 1),
           a=rationals, b=rationals, den=st.integers(1, 10**6),
           i=st.integers(0, 3), past=st.integers(1, 6))
    @example(coeffs=[0] * (ONE_PASS_MAX_M + 1), a=Fraction(1, 3),
             b=Fraction(5, 3), den=1, i=0, past=1)
    @example(coeffs=[1, -2, 0, 3] * 5 + [-1], a=Fraction(2, 9),
             b=Fraction(-5, 6), den=7, i=1, past=1)
    @example(coeffs=[5], a=Fraction(-4), b=Fraction(7, 2), den=3, i=3,
             past=6)
    def test_both_paths_across_the_selection(self, coeffs, a, b, den, i,
                                             past):
        """Padding a row with i zeros in front and j behind multiplies its
        member by (u-a)^i (u-b)^j, so a one-pass member (m <= 20) and its
        padding to m = 20 + ``past``, which takes two passes, give the same
        polynomial up to that product.  Rows with zero and negative
        entries, a != b over coprime or shared denominators, and any
        divisor den."""
        assume(a != b)
        m = len(coeffs) - 1
        j = max(0, ONE_PASS_MAX_M + past - m - i)
        padded = [0] * i + list(coeffs) + [0] * j
        reads, read = [], derivative_polys._digits

        def counted(*args):
            reads.append(args)
            return read(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(derivative_polys, "_digits", counted)
            small = derivative_polys._homogeneous(coeffs, *over_q(a, b), den)
            assert len(reads) == 1
            large = derivative_polys._homogeneous(padded, *over_q(a, b), den)
            assert len(reads) == 3
        assert large == (X - a) ** i * (X - b) ** j * small
        assert small == poly_horner(coeffs, X - a, X - b) * Fraction(1, den)

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
            derivative_polys._homogeneous(eulerian_row(n - 1), *over_q(a, b))

    @settings(max_examples=40, deadline=None)
    @given(a=rationals, b=rationals, d=rationals,
           n=st.integers(min_value=0, max_value=25))
    def test_shift_transform(self, a, b, d, n):
        assume(a != b and a.denominator != b.denominator)
        sp = RiccatiParams(1, a, b, d)
        assert build_S(n, sp) == poly_shift_transform(n, sp)


# small denominators, so members up to n = 200 build in milliseconds
small_rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


class TestFamilyValue:
    """``family_value`` reads the row each builder reads at one point, by a
    Horner pass on ints that builds no polynomial: a second route for the
    packed kernel, at any n."""

    @settings(max_examples=25, deadline=None)
    @given(a=small_rationals, b=small_rationals, d=small_rationals,
           u=small_rationals, at=st.sampled_from("uab"),
           n=st.integers(min_value=0, max_value=200))
    @example(a=Fraction(1, 3), b=Fraction(5, 3), d=Fraction(2, 3),
             u=Fraction(1, 2), at="u", n=200)
    @example(a=Fraction(-1, 2), b=Fraction(3, 4), d=Fraction(1, 5),
             u=Fraction(0), at="a", n=163)
    @example(a=Fraction(0), b=Fraction(1), d=Fraction(0), u=Fraction(0),
             at="b", n=1)
    def test_equals_the_built_member_at_a_point(self, a, b, d, u, at, n):
        """P_n, Q_n and S_n at random rational (a, b, d) and u, u = a and
        u = b included, and n up to 200, past the rows the triangles store:
        ``family_value`` is an integer pair over a positive denominator
        whose ratio equals ``build_*(n, params).eval(u)``."""
        assume(a != b)
        u = {"u": u, "a": a, "b": b}[at]
        params = RiccatiParams(1, a, b, d)
        try:
            for letter, build in (("P", build_P), ("Q", build_Q),
                                  ("S", build_S)):
                if n or letter != "P":
                    num, den = family_value(letter, n, params,
                                           u.as_integer_ratio())
                    assert type(num) is int and type(den) is int and den > 0
                    assert Fraction(num, den) == build(n, params).eval(u), \
                        letter
        finally:
            special_numbers.reset_caches()  # no shifted triangle outlives it

    @pytest.mark.parametrize("letter, least", [("P", 1), ("Q", 0), ("S", 0)])
    def test_n_below_first_member_is_the_builders_usage_error(self, letter,
                                                               least):
        with pytest.raises(UsageError, match=f"^need n >= {least}, got "
                                             f"{least - 1}$"):
            family_value(letter, least - 1, RiccatiParams(1, 0, 1, 1), (1, 3))

    def test_memoizes_nothing(self):
        special_numbers.reset_caches()
        params = RiccatiParams(1, 0, 1, Fraction(1, 4))
        for letter in "PQS":
            family_value(letter, 6, params, (1, 3))
        assert special_numbers.FAMILY_CACHE == {}


def _tight_width(values) -> int:
    """The fewest bytes whose signed range holds every value."""
    return max((v if v >= 0 else ~v).bit_length() for v in values) // 8 + 1


class TestPacked:
    """``_packed`` is the inverse of ``_digits``, and packed integers add
    and multiply as the polynomials whose digits they hold."""

    @settings(max_examples=60, deadline=None)
    @given(case=st.integers(1, 3).flatmap(lambda width: st.tuples(
        st.just(width), st.lists(st.one_of(
            st.sampled_from([-(2 ** (8 * width - 1)), 2 ** (8 * width - 1) - 1,
                             -1, 0]),
            st.integers(-(2 ** (8 * width - 1)), 2 ** (8 * width - 1) - 1)),
            max_size=8))))
    @example(case=(1, [-128, 127, 0, -128, -1, 127]))
    @example(case=(2, [-32768]))
    def test_round_trip_to_the_edge_of_the_width(self, case):
        width, digits = case
        top = 2 ** (8 * width - 1)
        packed = derivative_polys._packed(digits, width)
        assert packed == sum(c << (8 * width * i) for i, c in enumerate(digits))
        assert derivative_polys._digits(packed, width, len(digits)) == digits
        with pytest.raises(OverflowError):
            derivative_polys._packed([*digits, top], width)
        with pytest.raises(OverflowError):
            derivative_polys._packed([*digits, -top - 1], width)

    @settings(max_examples=60, deadline=None)
    @given(p=st.lists(st.integers(-300, 300), max_size=6),
           q=st.lists(st.integers(-300, 300), max_size=6))
    @example(p=[-128], q=[1])  # a product digit at the lower edge
    @example(p=[127, -128], q=[-1, 1])
    def test_products_and_sums_at_the_tight_width(self, p, q):
        """At the fewest bytes that hold every digit of the inputs and of
        the results, the packed sum and product read back as the ``Poly``
        sum and product, negative digits included."""
        total, product = Poly(p) + Poly(q), Poly(p) * Poly(q)
        width = _tight_width([0, *p, *q, *total._coeffs, *product._coeffs])
        count = len(p) + len(q)
        pp, pq = (derivative_polys._packed(x, width) for x in (p, q))
        for packed, poly in ((pp + pq, total), (pp * pq, product)):
            assert Poly._over(derivative_polys._digits(packed, width, count),
                              1) == poly


def _digit_rows(width: int):
    """(width, digits, extra) with digits in the signed range of ``width``
    bytes, its edges -2^(K-1) and 2^(K-1) - 1 among them, or all negative,
    and ``extra`` zero digits to read above them."""
    top = 2 ** (8 * width - 1)
    digit = st.one_of(st.sampled_from([-top, top - 1, -1, 0, 1]),
                      st.integers(-top, top - 1))
    negative = st.one_of(st.just(-top), st.integers(-top, -1))
    return st.tuples(st.just(width), st.one_of(
        st.lists(digit, min_size=1, max_size=30),
        st.lists(negative, min_size=1, max_size=30)), st.integers(0, 4))


def _reads_through_to_bytes(width: int, count: int) -> bool:
    """Whether ``_digits`` calls ``int.to_bytes`` for a read of ``count``
    digits of ``width`` bytes."""
    names = []

    def profile(frame, event, arg):
        if event == "c_call":
            names.append(arg.__name__)

    sys.setprofile(profile)
    try:
        derivative_polys._digits(-1, width, count)
    finally:
        sys.setprofile(None)
    return "to_bytes" in names


class TestDigitReads:
    """``_digits`` reads a read of at most ``DIGITS_SHIFT_BYTES`` bytes by
    shift and mask and a larger one through ``to_bytes``: the two reads
    give the same signed digits, and each is taken on its side of the
    switch."""

    @settings(max_examples=80, deadline=None)
    @given(case=st.integers(1, 48).flatmap(_digit_rows))
    @example(case=(1, [-128] * 30, 4))
    @example(case=(1, [127, -128, -1, 0, 127], 0))
    @example(case=(17, [-(2 ** 135)] * 30, 1))
    @example(case=(48, [2 ** 383 - 1, -(2 ** 383)] * 15, 2))
    def test_both_reads_agree(self, case):
        """Random digit lists, widths of 1-48 bytes and counts up to 34, so
        reads of 1-1,632 bytes on both sides of the switch: each read,
        forced by moving the switch, returns the digits, and so does the
        read ``_digits`` picks."""
        width, digits, extra = case
        count = len(digits) + extra
        packed = sum(d << (8 * width * i) for i, d in enumerate(digits))
        expected = [*digits, *[0] * extra]
        reads = []
        with pytest.MonkeyPatch.context() as patch:
            for switch in (-1, count * width):  # all by to_bytes, all by shift
                patch.setattr(derivative_polys, "DIGITS_SHIFT_BYTES", switch)
                assert _reads_through_to_bytes(width, count) is (switch < 0)
                reads.append(derivative_polys._digits(packed, width, count))
        assert reads == [expected, expected]
        assert derivative_polys._digits(packed, width, count) == expected

    @pytest.mark.parametrize("width", [1, 3, 8, 64])
    def test_switch_at_the_byte_bound(self, width):
        """A read of at most ``DIGITS_SHIFT_BYTES`` bytes goes by shift and
        mask, and one more digit through ``to_bytes``; at width 1 the two
        reads are the bound itself and one byte past it."""
        count = derivative_polys.DIGITS_SHIFT_BYTES // width
        assert not _reads_through_to_bytes(width, count)
        assert _reads_through_to_bytes(width, count + 1)


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
            for key in ("a", "b", "d"):
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
            "params": {"a": "0", "b": "1", "d": None},
            "coefficients": ["0", "-1", "1"],
        }
