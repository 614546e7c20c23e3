import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from derivpoly.exact import parse_rational
from derivpoly.polyseries import Poly, Series, X

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=8)
small_polys = st.lists(small_fractions, max_size=5).map(Poly)
nonzero_polys = small_polys.filter(lambda p: not p.is_zero())


class TestPolyBasics:
    def test_canonical_trailing_zeros(self):
        assert Poly([1, 2, 0, 0]) == Poly([1, 2])
        assert Poly([0, 0]).is_zero()
        assert Poly().degree == -1
        assert Poly([3]).degree == 0

    def test_monomial_products(self):
        u = X
        assert u * (u - 1) == Poly([0, -1, 1])
        assert (u + 1) * (u - 1) == Poly([-1, 0, 1])
        p = Poly([2, 0, 5])
        assert p + Poly() == p

    def test_scalar_arithmetic(self):
        assert 2 * X + 1 == Poly([1, 2])
        assert (X - Fraction(1, 2)) * 2 == Poly([-1, 2])
        assert X - X == Poly()

    def test_pow(self):
        assert (X + 1) ** 0 == Poly([1])
        assert (X + 1) ** 3 == Poly([1, 3, 3, 1])
        with pytest.raises(ValueError):
            X ** -1

    def test_coefficient_lookup(self):
        p = Poly([1, 2, 3])
        assert p.coefficient(2) == 3
        assert p.coefficient(5) == 0

    @given(small_polys, small_polys, small_polys)
    def test_ring_axioms(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r


def stripped(coeffs):
    """The coefficients as a tuple, trailing zeros stripped."""
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def schoolbook_product(a, b):
    """Reference product: Fraction convolution, trailing zeros stripped."""
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return stripped(out)


kernel_coeffs = st.one_of(
    st.just(Fraction(0)),
    st.integers(-10**6, 10**6).map(Fraction),
    st.fractions(max_denominator=12),
    st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**25)),
)
kernel_lists = st.lists(kernel_coeffs, max_size=8)
endpoints = st.one_of(st.integers(-30, 30), kernel_coeffs)


def reference_sum(a, b, sign=1):
    """Reference a + sign*b on Fraction lists, trailing zeros stripped."""
    width = max(len(a), len(b))
    pad = lambda v: list(v) + [Fraction(0)] * (width - len(v))
    return stripped(x + sign * y for x, y in zip(pad(a), pad(b)))


def reference_eval(a, x):
    return sum((c * x ** k for k, c in enumerate(a)), Fraction(0))


def reference_integral(a, lo, hi):
    return sum((c * (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
                for k, c in enumerate(a)), Fraction(0))


def reference_divmod(a, b):
    """Reference long division on Fraction lists: (quotient, remainder),
    trailing zeros stripped."""
    rem, divisor = list(stripped(a)), stripped(b)
    dq = len(rem) - len(divisor)
    if dq < 0:
        return (), tuple(rem)
    quot = [Fraction(0)] * (dq + 1)
    for shift in range(dq, -1, -1):
        coef = rem[shift + len(divisor) - 1] / divisor[-1]
        quot[shift] = coef
        for j, d in enumerate(divisor):
            rem[shift + j] -= coef * d
    return stripped(quot), stripped(rem)


nonzero_kernel_lists = kernel_lists.filter(lambda a: any(a))


class TestProductKernel:
    """``Poly`` arithmetic runs on integer numerators over one denominator;
    every operation must agree with Fraction reference code, in canonical
    form."""

    @given(kernel_lists, kernel_lists)
    def test_matches_schoolbook(self, a, b):
        product = Poly(a) * Poly(b)
        assert product.coeffs == schoolbook_product(a, b)
        assert all(type(c) is Fraction for c in product.coeffs)
        assert not product.coeffs or product.coeffs[-1] != 0

    @given(kernel_lists, st.lists(st.just(0), max_size=3))
    def test_zero_polynomial(self, a, zeros):
        zero = Poly(zeros)
        assert zero.coeffs == ()
        assert (Poly(a) * zero).coeffs == ()
        assert (zero * Poly(a)).coeffs == ()

    @given(kernel_lists, kernel_coeffs.filter(bool))
    def test_cancelling_products_are_canonical(self, a, c):
        # (x - c)(x + c) = x^2 - c^2: the middle coefficient cancels
        product = Poly(a) * (X - c) * (X + c)
        assert product.coeffs == schoolbook_product(a, (-c * c, 0, 1))


    @given(kernel_lists, kernel_lists)
    def test_sum_and_difference_match_reference(self, a, b):
        assert (Poly(a) + Poly(b)).coeffs == reference_sum(a, b)
        assert (Poly(a) - Poly(b)).coeffs == reference_sum(a, b, -1)

    @given(kernel_lists, kernel_coeffs)
    def test_scalar_product_matches_reference(self, a, c):
        expected = stripped(x * c for x in a)
        assert (Poly(a) * c).coeffs == expected
        assert (c * Poly(a)).coeffs == expected

    @given(kernel_lists, kernel_coeffs)
    def test_eval_matches_reference(self, a, x):
        assert Poly(a).eval(x) == reference_eval(a, x)

    @given(kernel_lists, endpoints, endpoints)
    @example([], 0, 1)
    @example([Fraction(1, 3)] * 8, -1, Fraction(5, 2))
    def test_integral_matches_reference(self, a, lo, hi):
        """The integer Horner pass against the antiderivative summed in
        Fractions, at int and Fraction endpoints in either order."""
        value = Poly(a).definite_integral(lo, hi)
        assert type(value) is Fraction
        assert value == reference_integral(a, lo, hi)
        assert Poly(a).definite_integral(hi, lo) == -value
        assert Poly(a).definite_integral(lo, lo) == 0

    @given(kernel_lists, nonzero_kernel_lists)
    def test_divmod_matches_reference(self, a, b):
        quot, rem = divmod(Poly(a), Poly(b))
        assert (quot.coeffs, rem.coeffs) == reference_divmod(a, b)

    @given(kernel_lists, nonzero_kernel_lists)
    def test_divmod_exact_quotient_has_zero_remainder(self, a, b):
        quot, rem = divmod(Poly(a) * Poly(b), Poly(b))
        assert quot.coeffs == stripped(a)
        assert rem.coeffs == ()

    def test_divmod_non_monic_rational_divisor(self):
        # (3/2 u - 5/7) has a non-unit, rational leading coefficient
        a = [Fraction(1, 3), Fraction(-2), Fraction(5, 4), Fraction(7, 9)]
        b = [Fraction(-5, 7), Fraction(3, 2)]
        quot, rem = divmod(Poly(a), Poly(b))
        assert (quot.coeffs, rem.coeffs) == reference_divmod(a, b)
        assert quot * Poly(b) + rem == Poly(a)

    @given(kernel_lists)
    def test_coeff_strings_match_fraction_str(self, a):
        assert Poly(a).to_coeff_strings() == [str(c) for c in stripped(a)]


class TestCanonicalForm:
    """One polynomial has one stored form however it was reached, so ``==``
    and ``hash`` agree across constructor, sums, differences and products."""

    @given(kernel_lists, kernel_lists, kernel_coeffs.filter(bool))
    def test_every_route_gives_one_form(self, a, b, c):
        p, q = Poly(a), Poly(b)
        routes = [
            Poly(list(a) + [0, 0]),
            (p + q) - q,
            q + (p - q),
            -(-p),
            (p * c) * (1 / c),
            (p * Poly([c])) * Poly([1 / c]),
            (p * (X + c) - p * X) * (1 / c),
        ]
        for route in routes:
            assert route == p
            assert hash(route) == hash(p)

    @given(kernel_lists)
    def test_difference_with_itself_is_zero(self, a):
        zero = Poly(a) - Poly(a)
        assert zero.coeffs == ()
        assert zero == Poly() and hash(zero) == hash(Poly())

    def test_equal_fractions_give_equal_polys(self):
        assert Poly([Fraction(2, 4)]) == Poly([Fraction(1, 2)])
        assert hash(Poly([Fraction(6, 3), 0])) == hash(Poly([2]))
        assert Poly([Fraction(1, 3)]) * 3 == Poly([1])
        assert str(Poly([Fraction(1, 6), Fraction(1, 3)]) * 6) == "[1, 2]"


class TestExactInputs:
    """A binary float is not the decimal it prints as: ``Poly([0.1])`` would
    store 3602879701896397/36028797018963968, so floats are refused."""

    def test_float_coefficient_rejected(self):
        with pytest.raises(TypeError):
            Poly([0.1])
        with pytest.raises(TypeError):
            X + 0.5
        with pytest.raises(TypeError):
            0.5 * X

    def test_float_point_rejected(self):
        with pytest.raises(TypeError):
            X.eval(0.5)
        with pytest.raises(TypeError):
            X.definite_integral(0.5, 1)
        with pytest.raises(TypeError):
            X.definite_integral(0, 1.0)

    def test_float_series_coefficient_rejected(self):
        with pytest.raises(TypeError):
            Series([0.5])
        with pytest.raises(TypeError):
            Series([X, 0.5])


class TestEval:
    def test_spot_values(self):
        p = X * X - X
        assert p.eval(Fraction(1, 3)) == Fraction(-2, 9)
        assert Poly([7, 1, 4]).eval(0) == 7
        assert (2 * X - 1).eval(Fraction(1, 2)) == 0

    @given(small_polys, small_fractions, small_fractions)
    def test_eval_is_a_homomorphism(self, p, x, y):
        q = Poly([y, 1])
        assert (p * q).eval(x) == p.eval(x) * q.eval(x)


class TestDefiniteIntegral:
    def test_spot_values(self):
        assert X.definite_integral(0, 1) == Fraction(1, 2)
        assert (X * X - X).definite_integral(0, 1) == Fraction(-1, 6)
        assert Poly([1, 0, -1]).definite_integral(-1, 1) == Fraction(4, 3)

    @given(small_polys, small_fractions, small_fractions)
    def test_orientation(self, p, a, b):
        assert p.definite_integral(a, b) == -p.definite_integral(b, a)

    @given(small_polys, small_fractions, small_fractions, small_fractions)
    def test_chasles_additivity(self, p, a, b, c):
        assert (p.definite_integral(a, b) + p.definite_integral(b, c)
                == p.definite_integral(a, c))


class TestDivision:
    def test_exact_quotient(self):
        assert divmod(X * X - 1, X - 1) == (X + 1, Poly())

    def test_inexact_reports_none(self):
        assert divmod(X * X - 1, X) == (X, Poly([-1]))

    def test_zero_divisor_raises(self):
        with pytest.raises(ZeroDivisionError):
            divmod(X, Poly())

    def test_squared_difference_factor(self):
        # (u^2-1)^2 divided by 1-u^2 leaves 1-u^2 exactly
        p = Poly([-1, 0, 1])
        assert divmod(p * p, Poly([1, 0, -1])) == (Poly([1, 0, -1]), Poly())

    @given(small_polys, nonzero_polys)
    def test_divmod_reconstructs(self, p, q):
        quo, rem = divmod(p, q)
        assert quo * q + rem == p
        assert rem.degree < q.degree

    @given(small_polys, nonzero_polys)
    def test_exact_div_round_trip(self, h, q):
        product = h * q
        assert divmod(product, q) == (h, Poly())


class TestPolySerialization:
    def test_coeff_strings(self):
        p = Poly([0, Fraction(-1, 2), 1])
        assert p.to_coeff_strings() == ["0", "-1/2", "1"]
        assert [parse_rational(s) for s in p.to_coeff_strings()] == list(p.coeffs)

    @given(small_polys)
    def test_round_trip(self, p):
        assert [parse_rational(s) for s in p.to_coeff_strings()] == list(p.coeffs)


class TestSeries:
    def test_truncated_product(self):
        one_plus = Series([1, 1, 0])
        one_minus = Series([1, -1, 0])
        assert (one_plus * one_minus).coeffs == (1, 0, -1)

    def test_multiplicative_identity(self):
        s = Series([Fraction(2, 3), 5, Fraction(-1, 7)])
        assert (s * Series([1] + [0] * 2)).coeffs == s.coeffs

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Series([1, 2]) * Series([1, 2, 3])

    def test_ring_mismatch_rejected(self):
        # Fraction is the only coefficient ring: a Poly is refused outright
        with pytest.raises(TypeError):
            Series([X])
        with pytest.raises(TypeError):
            Series([1, Poly((2,))])
        with pytest.raises(TypeError):
            Series([1, 2]) * X

    def test_int_and_fraction_coefficients_are_rational(self):
        for coeffs in ([1, 2], [Fraction(1, 2), Fraction(-3)], [0, Fraction(2, 3)]):
            s = Series(coeffs)
            assert all(type(c) is Fraction for c in s.coeffs)
            assert s.coeffs == tuple(Fraction(c) for c in coeffs)

    def test_results_keep_the_ring(self):
        product = Series([0, 0]) * Series([0, 0])
        assert all(type(c) is Fraction for c in product.coeffs)

    def test_exp_times_exp_inverse(self):
        e = Series([Fraction(1, math.factorial(n)) for n in range(9)])
        e_inv = Series([Fraction((-1) ** n, math.factorial(n)) for n in range(9)])
        assert (e * e_inv).coeffs == (1,) + (0,) * 8

    @given(small_fractions, small_fractions, st.integers(0, 12))
    @settings(max_examples=40)
    def test_exp_additivity(self, l1, l2, order):
        def exp(l):
            return Series([l ** n / math.factorial(n) for n in range(order + 1)])

        assert exp(l1 + l2).coeffs == (exp(l1) * exp(l2)).coeffs

    @given(st.lists(small_fractions, min_size=1, max_size=5),
           st.lists(small_fractions, min_size=1, max_size=5),
           st.lists(small_fractions, min_size=1, max_size=5))
    @settings(max_examples=40)
    def test_mul_commutative_associative(self, a, b, c):
        order = max(len(a), len(b), len(c)) - 1
        pad = lambda v: Series(v + [0] * (order + 1 - len(v)))
        s, t, u = pad(a), pad(b), pad(c)
        assert (s * t).coeffs == (t * s).coeffs
        assert ((s * t) * u).coeffs == (s * (t * u)).coeffs

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            Series([])


class TestSeriesSerialization:
    def test_rational_ring_round_trip(self):
        # the series command writes a series as its order and the str of
        # each coefficient; an int coefficient must come back as a rational
        s = Series([Fraction(1, 2), -2, 0])
        strings = [str(c) for c in s.coeffs]
        assert len(s.coeffs) - 1 == 2
        assert strings == ["1/2", "-2", "0"]
        assert [parse_rational(c) for c in strings] == list(s.coeffs)
