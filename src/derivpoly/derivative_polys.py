"""Polynomial families attached to the constant-coefficient Riccati equation
u' = r(u-a)(u-b) and its companion equation v' = r v (u - (a+b)/2 + d).

For concrete rational parameters:

* ``build_P(n)``  -- P_n, with P_1 = u - a; the n-th derivative of u equals
  r^n * P_{n+1}(u).  Coefficients come from the Eulerian triangle.
* ``build_Q(n)``  -- Q_n, with Q_0 = 1; the n-th derivative of v (d = 0)
  equals v * (r/2)^n * Q_n(u).  Coefficients come from the MacMahon triangle.
* ``build_S(n)``  -- S_n, with S_0 = 1; the n-th derivative of v at any d
  equals v * (r/2)^n * S_n(u), and S_n = Q_n at d = 0.  Coefficients come
  from the MacMahon triangle shifted by 2d/(b-a).
* ``build_E/A/M`` -- the Eulerian polynomials (both indexings) and the
  MacMahon row polynomials; P and Q collapse onto E and M under the
  substitution x = (u-a)/(u-b).

Parameters are concrete rationals, never indeterminates, so every family
member is an ordinary univariate ``Poly``.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .exact import Record, as_fraction
from .polyseries import Poly
from .special_numbers import FAMILY_CACHE, eulerian_row, macmahon_row

class RiccatiParams(Record):
    """(r, a, b, d) with r != 0 and a != b; the companion-equation shift d
    (unrestricted, default 0) is read only by S and the v oracle."""

    __slots__ = ("r", "a", "b", "d")

    def __init__(self, r, a, b, d=Fraction(0)):
        r, a, b, d = map(as_fraction, (r, a, b, d))
        if r == 0:
            raise ValueError("r must be nonzero")
        if a == b:
            raise ValueError("a and b must differ")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)


def _digits(packed: int, width: int, count: int) -> list[int]:
    """The ``count`` signed digits of ``packed`` in base 2^(8 width), lowest
    first, each in [-2^(8 width - 1), 2^(8 width - 1)).

    Adding the bias 2^(8 width - 1) to every digit makes them all
    nonnegative, and XOR with the same bias turns each biased digit into the
    two's complement of the signed one, so one ``to_bytes`` pass and one
    signed ``from_bytes`` per digit read them off.
    """
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")
    raw = ((packed + bias) ^ bias).to_bytes(width * count, "little")
    return [int.from_bytes(raw[i:i + width], "little", signed=True)
            for i in range(0, width * count, width)]


def _homogeneous(coeffs, a: Fraction, b: Fraction, den: int = 1) -> Poly:
    """sum_k coeffs[k] (u-a)^k (u-b)^(m-k) / den, m = len(coeffs) - 1, by
    Horner's rule on integers that each pack a whole polynomial (Kronecker
    substitution).

    Over one denominator q, with na = q a, nb = q b and delta = nb - na,
    t = q u - nb gives q u - na = t + delta, so the numerator over q^m is
    F(t) = sum_k c_k (t + delta)^k t^(m-k).  Two passes, each a Horner rule
    at 2^K of shifts, adds and products by small integers (no big x big
    product), build it:

    1. t^m F(1/t) = sum_k c_k (1 + delta t)^k at t = 2^K, so each step is
       acc + (delta acc << K) + c_k; its digits, lowest first, are the
       coefficients of F from t^m down;
    2. F(q u - nb) at u = 2^K, each step (out q << K) - out nb + e; its
       digits are the numerators of the result, normalised once over
       q^m den.

    K = 8 width is a whole number of bytes with
    8 width - 1 >= bitlen(sum |c_k|) + m bitlen(q + |na| + |nb|).  Every
    digit of either pass is below sum |c_k| (q + |na| + |nb|)^m in size, so
    the signed digits read back exactly.
    """
    q = math.lcm(a.denominator, b.denominator)
    na = a.numerator * (q // a.denominator)
    nb = b.numerator * (q // b.denominator)
    m = len(coeffs) - 1
    width = (sum(map(abs, coeffs)).bit_length()
             + m * (q + abs(na) + abs(nb)).bit_length()) // 8 + 1
    k, delta, acc, out = 8 * width, nb - na, 0, 0
    for c in reversed(coeffs):
        acc += (delta * acc << k) + c
    for e in _digits(acc, width, m + 1):
        out = (out * q << k) - out * nb + e
    return Poly._over(_digits(out, width, m + 1), q ** m * den)


def _key_part(x: Fraction):
    """x as a memo key part that hashes and compares in C: the int itself
    when x is integral, otherwise (numerator, denominator)."""
    return x.numerator if x.denominator == 1 else (x.numerator, x.denominator)


def _built_once(build, *, keyed_on_d: bool = False):
    """Memoize an r-independent builder on (n, a, b) in ``FAMILY_CACHE``,
    and on d too with ``keyed_on_d`` (only S reads d, so P and Q members
    are shared across shifts)."""

    @functools.wraps(build)
    def cached(n: int, params: RiccatiParams) -> Poly:
        key = (build.__name__, n, _key_part(params.a), _key_part(params.b))
        if keyed_on_d:
            key += (_key_part(params.d),)
        poly = FAMILY_CACHE.get(key)
        if poly is None:
            poly = FAMILY_CACHE[key] = build(n, params)
        return poly

    return cached


@_built_once
def build_P(n: int, params: RiccatiParams) -> Poly:
    """P_n(u; a, b), degree n, independent of r.

    P_1 = u - a; for n >= 2 the coefficients against the factored basis
    (u-a)^(k+1) (u-b)^(n-1-k) are the Eulerian numbers of row n-1, so P_n is
    one Horner pass over that row padded with a zero at each end.  Every
    summand carries both factors, so P_n vanishes at u = a and, for n >= 2,
    at u = b.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n == 1:
        return Poly((-params.a, 1))
    return _homogeneous((0, *eulerian_row(n - 1), 0), params.a, params.b)


@_built_once
def build_Q(n: int, params: RiccatiParams) -> Poly:
    """Q_n(u; a, b), degree n, independent of r; Q_0 = 1.  Its coefficients
    against (u-a)^(n+1-k) (u-b)^(k-1) are the MacMahon numbers of row n+1."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return _homogeneous(macmahon_row(n + 1), params.b, params.a)


@functools.partial(_built_once, keyed_on_d=True)
def build_S(n: int, params: RiccatiParams) -> Poly:
    """S_n(u; a, b, d), independent of r, with d from the record; S_0 = 1.
    S_{n+1} = (2u - a - b + 2d) S_n + 2(u-a)(u-b) S_n' is Q's recurrence
    plus the shift, so with 2d = c (b - a) and c = p/e, e^n times S_n's
    coefficients against (u-a)^(n+1-k) (u-b)^(k-1) are row n+1 of the
    MacMahon triangle shifted by c.  Memoized on (n, a, b, d)."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    c = 2 * params.d / (params.b - params.a)
    return _homogeneous(macmahon_row(n + 1, c), params.b, params.a,
                        c.denominator ** n)


def build_E(n: int) -> Poly:
    """Eulerian polynomial E_n: sum_k <n,k> x^(k+1) for n >= 1, E_0 = 1."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if n == 0:
        return Poly((1,))
    return Poly._over([0, *eulerian_row(n)], 1)


def build_A(n: int) -> Poly:
    """Eulerian polynomial A_n: sum_k <n,k> x^k, so E_n = x*A_n for n >= 1."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if n == 0:
        return Poly((1,))
    return Poly._over(list(eulerian_row(n)), 1)


def build_M(n: int) -> Poly:
    """MacMahon polynomial M_n: sum_{k=1..n+1} M_{n+1,k} x^(k-1)."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return Poly._over(list(macmahon_row(n + 1)), 1)


#: The largest ``n`` that ``family_poly`` (the ``poly --n`` option) takes
#: per family.  At the P, Q and S limits ``derivpoly poly`` builds and prints
#: its polynomial in about 10 s at a = 1/3, b = 5/3, d = 2/3 (P 1300 in
#: 9.2-10.9 s, Q 1300 in 7.7-9.8 s, S 1300 in 8.2-12.0 s, 2-6 runs each on
#: a 2-vCPU Xeon, CPython 3.11.7).  E, A and M take 1.7-2.1 s at 1300 but
#: hold the same memoized triangle rows as P, Q and S, whose size grows as
#: n^3 (0.75-0.86 GB at n = 1300), so they share that limit rather than
#: reach 10 s near n = 2300 with about 4 GB.
FAMILY_LIMITS = {"P": 1300, "Q": 1300, "S": 1300, "E": 1300, "A": 1300,
                 "M": 1300}
FAMILIES = tuple(FAMILY_LIMITS)


def family_poly(family: str, n: int, *, r=None, a=None, b=None, d=None) -> Poly:
    """Build one member of a named family; raises ValueError on bad input,
    including a parameter the family does not depend on (E/A/M take none of
    r, a, b, d; P and Q take no d).  n above ``FAMILY_LIMITS[family]`` is
    refused before any work."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if n > FAMILY_LIMITS[family]:
        raise ValueError(f"need n <= {FAMILY_LIMITS[family]} for family "
                         f"{family}, got {n}")
    takes = {"P": "rab", "Q": "rab", "S": "rabd"}.get(family, "")
    ignored = [k for k, v in zip("rabd", (r, a, b, d))
               if v is not None and k not in takes]
    if ignored:
        raise ValueError(f"family {family} does not take {', '.join(ignored)}")
    if family in ("P", "Q", "S"):
        if a is None or b is None:
            raise ValueError(f"family {family} requires parameters a and b")
        params = RiccatiParams(Fraction(1) if r is None else r, a, b,
                               0 if d is None else d)
        if family == "S" and d is None:
            raise ValueError("family S requires parameter d")
        return {"P": build_P, "Q": build_Q, "S": build_S}[family](n, params)
    if family == "E":
        return build_E(n)
    if family == "A":
        return build_A(n)
    return build_M(n)
