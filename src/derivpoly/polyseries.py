"""Dense univariate polynomials over exact rationals, and the truncated
power series over Fraction that the series oracle returns.

Everything here is exact.  A Series stores exactly ``order + 1`` Fraction
coefficients; a Poly, a float or any other value is a TypeError.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction
from itertools import zip_longest

Scalar = int | Fraction


class Poly:
    """Immutable dense polynomial: integer numerators over one positive
    denominator (FLINT's ``fmpq_poly`` form), coefficient k being
    ``_coeffs[k] / _den``.  Canonical form has no trailing zero and
    ``gcd(_den, *_coeffs) == 1``, with zero as ``()`` over 1, so equality is
    structural; ``coeffs`` builds ``Fraction``s on demand.
    """

    __slots__ = ("_coeffs", "_den")

    def __new__(cls, coeffs: Iterable[Scalar] = ()):
        cs = [_exact(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        return cls._over([c.numerator * (den // c.denominator) for c in cs], den)

    @classmethod
    def _over(cls, nums: list[int], den: int) -> "Poly":
        """The polynomial with coefficients ``nums[k] / den`` (den > 0)."""
        while nums and not nums[-1]:
            nums.pop()
        g = math.gcd(den, *nums)
        poly = super().__new__(cls)
        poly._coeffs = tuple(c // g for c in nums) if g > 1 else tuple(nums)
        poly._den = den // g
        return poly

    @classmethod
    def _combination(cls, weights: Iterable[int],
                     polys: Iterable["Poly"]) -> "Poly":
        """sum_k weights[k] * polys[k] for integer weights: each polynomial's
        numerators, scaled to the lcm of the denominators, are added into one
        integer list, which is normalised once."""
        terms = [(w, p) for w, p in zip(weights, polys) if w]
        lcm = math.lcm(*(p._den for _, p in terms))
        acc = [0] * max((len(p._coeffs) for _, p in terms), default=0)
        for w, p in terms:
            scale = w * (lcm // p._den)
            acc[:len(p._coeffs)] = [x + scale * c
                                    for x, c in zip(acc, p._coeffs)]
        return cls._over(acc, lcm)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self._den) for c in self._coeffs)

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    def is_zero(self) -> bool:
        return not self._coeffs

    def coefficient(self, k: int) -> Fraction:
        """Coefficient of degree k; zero outside the stored range."""
        if 0 <= k < len(self._coeffs):
            return Fraction(self._coeffs[k], self._den)
        return Fraction(0)

    @staticmethod
    def _coerce(value: object) -> "Poly | None":
        if isinstance(value, Poly):
            return value
        if isinstance(value, (int, Fraction)):
            return Poly((value,))
        return None

    def __add__(self, other: object) -> "Poly":
        o = Poly._coerce(other)
        if o is None:
            return NotImplemented
        den = math.lcm(self._den, o._den)
        sa, so = den // self._den, den // o._den
        return Poly._over([x * sa + y * so for x, y in zip_longest(
            self._coeffs, o._coeffs, fillvalue=0)], den)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._over([-c for c in self._coeffs], self._den)

    def __sub__(self, other: object) -> "Poly":
        o = Poly._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other: object) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly._over([c * other.numerator for c in self._coeffs],
                              self._den * other.denominator)
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return Poly._over(out, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Poly((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other: object) -> bool:
        o = Poly._coerce(other)
        if o is None:
            return NotImplemented
        return self._den == o._den and self._coeffs == o._coeffs

    def __hash__(self) -> int:
        # A constant equals its scalar, so it hashes as that Fraction.
        if len(self._coeffs) <= 1:
            return hash(Fraction(self._coeffs[0] if self._coeffs else 0,
                                 self._den))
        return hash((self._coeffs, self._den))

    def eval(self, x: Scalar) -> Fraction:
        """The value at an exact point, as one ``Fraction`` of
        ``_eval_pair``."""
        return Fraction(*self._eval_pair(x))

    def _eval_pair(self, x: Scalar) -> tuple[int, int]:
        """The value at an exact point p/q as an integer (numerator,
        denominator) pair, not reduced, the denominator positive: Horner's
        rule on ints, each step acc p + c q^j, gives acc = q^(m-1) times the
        numerators' value for m coefficients, and the pair is (acc q,
        den q^m)."""
        p, q = _exact(x).numerator, x.denominator
        acc, q_pow = 0, 1
        for c in reversed(self._coeffs):
            acc = acc * p + c * q_pow
            q_pow *= q
        return acc * q, self._den * q_pow

    def definite_integral(self, a: Scalar, b: Scalar) -> Fraction:
        """Exact integral over [a, b], as one ``Fraction`` of
        ``_integral_pair``; swapping the endpoints negates it."""
        return Fraction(*self._integral_pair(a, b))

    def _integral_pair(self, a: Scalar, b: Scalar) -> tuple[int, int]:
        """The integral over [a, b] as an integer (numerator, denominator)
        pair, not reduced, the denominator positive.

        With L = lcm(1..m) for m coefficients, the antiderivative has the
        integer numerators ``c_k (L / (k+1))`` over ``den L``.  With both
        endpoints over one denominator q, one integer Horner pass per
        endpoint gives the antiderivative's value there times q^m, and the
        pair is their difference over q^m den L: no antiderivative ``Poly``
        and no ``Fraction``.
        """
        m = len(self._coeffs)
        scale = math.lcm(*range(1, m + 1))
        q = math.lcm(_exact(a).denominator, _exact(b).denominator)
        pa = a.numerator * (q // a.denominator)
        pb = b.numerator * (q // b.denominator)
        acc_a = acc_b = 0
        q_pow = 1
        for k, c in zip(range(m, 0, -1), reversed(self._coeffs)):
            w = c * (scale // k) * q_pow
            acc_a = acc_a * pa + w
            acc_b = acc_b * pb + w
            q_pow *= q
        return acc_b * pb - acc_a * pa, q_pow * self._den * scale

    def __divmod__(self, other: object) -> tuple["Poly", "Poly"]:
        """Long division on the numerators, fraction-free: the dividend is
        scaled by lead^(dq+1), lead being the divisor's leading numerator,
        so every step divides by lead exactly."""
        o = Poly._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        divisor, lead = o._coeffs, o._coeffs[-1]
        dq = len(self._coeffs) - len(divisor)
        if dq < 0:
            return Poly(), self
        scale = lead ** (dq + 1)
        rem = [c * scale for c in self._coeffs]
        quot = [0] * (dq + 1)
        for shift in range(dq, -1, -1):
            coef = rem[shift + len(divisor) - 1] // lead
            if coef:
                quot[shift] = coef
                for j, d in enumerate(divisor, shift):
                    rem[j] -= coef * d
        # self = (A/da), other = (B/db), and scale*A = quot*B + rem
        den = self._den * scale
        sign = -1 if den < 0 else 1
        return (Poly._over([sign * o._den * c for c in quot], sign * den),
                Poly._over([sign * c for c in rem], sign * den))

    def to_coeff_strings(self) -> list[str]:
        """Serialized form: coefficient strings, lowest degree first, each
        as ``str(Fraction)`` prints it (``p`` or ``p/q`` in lowest terms)."""
        out = []
        for c in self._coeffs:
            g = math.gcd(c, self._den)
            den = self._den // g
            out.append(f"{c // g}/{den}" if den != 1 else str(c // g))
        return out

    def __str__(self) -> str:
        return "[" + ", ".join(self.to_coeff_strings()) + "]"

    def __repr__(self) -> str:
        return f"Poly({self!s})"


def _exact(value: object) -> Scalar:
    """An int or Fraction unchanged; a float (binary, so not the decimal it
    shows) or any other type is refused."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"exact int or Fraction expected, got {value!r}")
    return value


#: The polynomial variable (u for derivative polynomials, x for EGF checks).
X = Poly((0, 1))


class Series:
    """Truncated power series over Fraction: the series oracle's result."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Scalar]):
        cs = tuple(c if isinstance(c, Fraction) else Fraction(_exact(c))
                   for c in coeffs)
        if not cs:
            raise ValueError("a series stores at least its constant coefficient")
        self._coeffs = cs

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    # No library code multiplies series: kept while perfbench/tracing.py wraps it.
    def __mul__(self, other: object) -> "Series":
        """Truncated convolution at the common order."""
        if not isinstance(other, Series):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) != len(b):
            raise ValueError(f"series order mismatch: {len(a) - 1} vs {len(b) - 1}")
        return Series([sum(a[i] * b[n - i] for i in range(n + 1))
                       for n in range(len(a))])
