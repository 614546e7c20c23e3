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
* ``family_value`` -- P_n, Q_n or S_n at one rational point, as an integer
  (numerator, denominator) pair, read from the row its builder reads,
  without building the polynomial.

Parameters are concrete rationals, never indeterminates, so every family
member is an ordinary univariate ``Poly``.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

from .exact import Record, UsageError, as_fraction
from .polyseries import Poly
from .special_numbers import FAMILY_CACHE, eulerian_row, macmahon_row


def _key_part(x: Fraction):
    """x as a memo key part that hashes and compares in C: the int itself
    when x is integral, otherwise (numerator, denominator)."""
    return x.numerator if x.denominator == 1 else (x.numerator, x.denominator)


class RiccatiParams(Record):
    """(r, a, b, d) with r != 0 and a != b; the companion-equation shift d
    (unrestricted, default 0) is read only by S and the v oracle.

    ``_ab`` and ``_abd`` are the memo key parts of (a, b) and (a, b, d),
    built once here, so a family lookup only joins tuples, and ``_shift``
    is S's row shift c = 2d/(b-a), computed once here for every S member
    and value."""

    __slots__ = ("r", "a", "b", "d", "_ab", "_abd", "_shift")

    def __init__(self, r, a, b, d=Fraction(0)):
        r, a, b, d = map(as_fraction, (r, a, b, d))
        if r == 0:
            raise UsageError("r must be nonzero")
        if a == b:
            raise UsageError("a and b must differ")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)
        ab = (_key_part(a), _key_part(b))
        object.__setattr__(self, "_ab", ab)
        object.__setattr__(self, "_abd", (*ab, _key_part(d)))
        object.__setattr__(self, "_shift", 2 * d / (b - a))


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


def _packed(digits, width: int) -> int:
    """sum_i digits[i] 2^(8 width i), the inverse of ``_digits`` for digits
    in [-2^(8 width - 1), 2^(8 width - 1)); a digit outside raises
    ``OverflowError``.

    Each digit's two's complement is its biased value XOR the bias, so one
    ``to_bytes`` per digit, one ``from_bytes`` and one XOR read the biased
    sum, and subtracting the bias leaves the signed one.
    """
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * len(digits), "little")
    raw = b"".join([c.to_bytes(width, "little", signed=True) for c in digits])
    return (int.from_bytes(raw, "little") ^ bias) - bias


def _unpacked(packed: int, width: int, den: int) -> Poly:
    """The polynomial whose numerators over ``den`` are the signed base
    2^(8 width) digits of ``packed``, as many as it holds: a side of a
    packed comparison read back for its witness, so every digit must lie in
    the range that ``_digits`` reads."""
    count = abs(packed).bit_length() // (8 * width) + 2
    return Poly._over(_digits(packed, width, count), den)


def _homogeneous(coeffs, a: Fraction, b: Fraction, den: int = 1) -> Poly:
    """sum_k coeffs[k] (u-a)^k (u-b)^(m-k) / den, m = len(coeffs) - 1, by
    Horner's rule on integers that each pack a whole polynomial (Kronecker
    substitution).

    Over one denominator q, with na = q a and nb = q b, the numerator over
    q^m is F(u) = sum_k c_k (q u - na)^k (q u - nb)^(m-k).  Its coefficients
    sum in size to at most s (q + max(|na|, |nb|))^m, s = sum |c_k|, since
    the coefficients of a product sum in size to at most the product of
    the factors' sums.  A Horner rule at 2^K of shifts, adds and products
    by small integers (no big x big product but c_k times a power) forms
    it, and the digits of the packed result read back exactly when every
    one lies in [-2^(K-1), 2^(K-1)), that is when K - 1 >= bitlen(B) for a
    bound B on their size.  K = 8 width bits (whole bytes), and width =
    bitlen(B) // 8 + 1 meets it; with B the row bound above, bitlen(B) <=
    bitlen(s) + m bitlen(q + max(|na|, |nb|)).

    Small members (m <= 20) take one pass at u = 2^K and that width: each
    step is acc (q u - na) + c_k power and power (q u - nb), that is
    acc = (acc q << K) - acc na + c_k power and power = (power q << K) -
    power nb, so one ``_digits`` read gives the numerators, normalised once
    over q^m den.  Both acc and power grow by K bits per step, and c_k
    times power is a product of a row entry by the whole packed power, so a
    step does more work than a step of either pass below; at small m the
    fixed cost of a second pass, its bound and a second read outweighs
    that.  Timed per member on Eulerian, MacMahon and shifted MacMahon rows
    at q <= 3 and at q = 1,111,101 (median of 3 rounds of the best of 11 x
    100 calls, 2-vCPU Xeon, CPython 3.11.7), the one pass took 0.64-0.86
    of the two passes' time at m = 8-16, 0.78-0.97 at m = 20, 0.82-1.06 at
    m = 24 (above 1 only at the large q), 0.91-1.11 at m = 28 and
    1.07-1.41 at m = 40, where ``poly --n 1300`` and the grosset-veselov
    squares of ``--m-max 40`` build.

    Larger members take two passes: with delta = nb - na, t = q u - nb
    gives q u - na = t + delta, so F(t) = sum_k c_k (t + delta)^k t^(m-k),
    and each pass packs at its own width:

    1. t^m F(1/t) = sum_k c_k (1 + delta t)^k at t = 2^K1, so each step is
       acc + (delta acc << K1) + c_k; its digits, lowest first, are the
       coefficients of F from t^m down.  Coefficient j is sum_k c_k C(k, j)
       delta^j, at most sum_k |c_k| (1 + |delta|)^k <= s (1 + |delta|)^m,
       so K1 bounds 2^(bitlen(s) + m bitlen(1 + |delta|)).
    2. F(q u - nb) at u = 2^K2, each step (out q << K2) - out nb + e_j over
       pass 1's digits e_0, ..., e_m, as F(t) = sum_j e_j t^(m-j).  The
       coefficients of (q u - nb)^i sum in size to (q + |nb|)^i, so every
       coefficient is at most B2 = sum_j |e_j| (q + |nb|)^(m-j), which one
       Horner pass over the digits forms exactly; K2 bounds the smaller of
       B2 and the row bound.  On the triangle rows B2 is the smaller: for
       P_160 pass 2 packs at 1,472 bits instead of 1,584 at (1/3, 5/3), and
       at 1,152 instead of 1,264 at (0, 1).
    """
    q = math.lcm(a.denominator, b.denominator)
    na = a.numerator * (q // a.denominator)
    nb = b.numerator * (q // b.denominator)
    m = len(coeffs) - 1
    size = sum(map(abs, coeffs)).bit_length()
    width = (size + m * (q + max(abs(na), abs(nb))).bit_length()) // 8 + 1
    if m <= 20:
        k = 8 * width
        acc, power = 0, 1
        for c in reversed(coeffs):
            acc = (acc * q << k) - acc * na + c * power
            power = (power * q << k) - power * nb
        return Poly._over(_digits(acc, width, m + 1), q ** m * den)
    delta, acc, out = nb - na, 0, 0
    width1 = (size + m * (1 + abs(delta)).bit_length()) // 8 + 1
    k1 = 8 * width1
    for c in reversed(coeffs):
        acc += (delta * acc << k1) + c
    digits, x, bound = _digits(acc, width1, m + 1), q + abs(nb), 0
    for e in digits:
        bound = bound * x + abs(e)
    width2 = min(bound.bit_length() // 8 + 1, width)
    k2 = 8 * width2
    for e in digits:
        out = (out * q << k2) - out * nb + e
    return Poly._over(_digits(out, width2, m + 1), q ** m * den)


def _built_once(build, *, keyed_on_d: bool = False):
    """Memoize an r-independent builder on (n, a, b) in ``FAMILY_CACHE``,
    and on d too with ``keyed_on_d`` (only S reads d, so P and Q members
    are shared across shifts).  The key is the flat tuple (name, n, a, b[,
    d]) of the record's key parts."""
    name = build.__name__
    parts = operator.attrgetter("_abd" if keyed_on_d else "_ab")

    @functools.wraps(build)
    def cached(n: int, params: RiccatiParams) -> Poly:
        key = (name, n) + parts(params)
        poly = FAMILY_CACHE.get(key)
        if poly is None:
            poly = FAMILY_CACHE[key] = build(n, params)
        return poly

    return cached


def _family_row(letter: str, n: int, params: RiccatiParams) -> tuple:
    """(row, x, y, den) with F_n(u) = sum_k row[k] (u-x)^k (u-y)^(m-k) / den,
    m = len(row) - 1, for F = P, Q or S (``letter``): the one statement of
    which triangle row a member reads, in which orientation and over which
    divisor, read by the builders and by ``family_value``.

    P_n for n >= 2 reads Eulerian row n-1 padded with a zero at each end,
    against (u-a)^k (u-b)^(n-k), and P_1 = u - a is the row (0, 1).  Q_n reads
    MacMahon row n+1 against (u-b)^k (u-a)^(n-k).  S_n reads row n+1 of the
    MacMahon triangle shifted by c = 2d/(b-a) = p/e (the record's
    ``_shift``) in the same orientation, which is e^n times S_n's
    coefficients, so its divisor is e^n.  n below the family's first member
    (1 for P, 0 for Q and S) is a UsageError.
    """
    first = 1 if letter == "P" else 0
    if n < first:
        raise UsageError(f"need n >= {first}, got {n}")
    a, b = params.a, params.b
    if letter == "P":
        return (0, *eulerian_row(n - 1), 0) if n > 1 else (0, 1), a, b, 1
    if letter == "Q":
        return macmahon_row(n + 1), b, a, 1
    c = params._shift
    return macmahon_row(n + 1, c), b, a, c.denominator ** n


def family_value(letter: str, n: int, params: RiccatiParams,
                 u) -> tuple[int, int]:
    """F_n(u) for F = P, Q or S (``letter``) as an integer (numerator,
    denominator) pair, not reduced, the denominator positive: read from the
    row its builder reads (``_family_row``) without building the
    polynomial, and not memoized.

    With x, y and u over one denominator q, alpha = q (u - x) and beta =
    q (u - y) are integers, and one homogeneous Horner pass on ints forms
    sum_k row[k] alpha^k beta^(m-k), each step one product by alpha and one
    by the running power of beta; the value is that sum over q^m den.  No
    ``Fraction`` is built: a caller compares the pair cross-multiplied.
    """
    row, x, y, den = _family_row(letter, n, params)
    q = math.lcm(x.denominator, y.denominator, u.denominator)
    nu = u.numerator * (q // u.denominator)
    alpha = nu - x.numerator * (q // x.denominator)
    beta = nu - y.numerator * (q // y.denominator)
    acc, power = 0, 1
    for c in reversed(row):
        acc = acc * alpha + c * power
        power *= beta
    return acc, q ** (len(row) - 1) * den


@_built_once
def build_P(n: int, params: RiccatiParams) -> Poly:
    """P_n(u; a, b), degree n, independent of r.

    P_1 = u - a; for n >= 2 the coefficients against the factored basis
    (u-a)^(k+1) (u-b)^(n-1-k) are the Eulerian numbers of row n-1, so P_n is
    one Horner pass over that row padded with a zero at each end.  Every
    summand carries both factors, so P_n vanishes at u = a and, for n >= 2,
    at u = b.
    """
    row = _family_row("P", n, params)
    if n == 1:
        return Poly((-params.a, 1))
    return _homogeneous(*row)


@_built_once
def build_Q(n: int, params: RiccatiParams) -> Poly:
    """Q_n(u; a, b), degree n, independent of r; Q_0 = 1.  Its coefficients
    against (u-a)^(n+1-k) (u-b)^(k-1) are the MacMahon numbers of row n+1."""
    return _homogeneous(*_family_row("Q", n, params))


@functools.partial(_built_once, keyed_on_d=True)
def build_S(n: int, params: RiccatiParams) -> Poly:
    """S_n(u; a, b, d), independent of r, with d from the record; S_0 = 1.
    S_{n+1} = (2u - a - b + 2d) S_n + 2(u-a)(u-b) S_n' is Q's recurrence
    plus the shift, so with 2d = c (b - a) and c = p/e, e^n times S_n's
    coefficients against (u-a)^(n+1-k) (u-b)^(k-1) are row n+1 of the
    MacMahon triangle shifted by c.  Memoized on (n, a, b, d)."""
    return _homogeneous(*_family_row("S", n, params))


def build_E(n: int) -> Poly:
    """Eulerian polynomial E_n: sum_k <n,k> x^(k+1) for n >= 1, E_0 = 1."""
    if n < 0:
        raise UsageError(f"need n >= 0, got {n}")
    if n == 0:
        return Poly((1,))
    return Poly._over([0, *eulerian_row(n)], 1)


def build_A(n: int) -> Poly:
    """Eulerian polynomial A_n: sum_k <n,k> x^k, so E_n = x*A_n for n >= 1."""
    if n < 0:
        raise UsageError(f"need n >= 0, got {n}")
    if n == 0:
        return Poly((1,))
    return Poly._over(list(eulerian_row(n)), 1)


def build_M(n: int) -> Poly:
    """MacMahon polynomial M_n: sum_{k=1..n+1} M_{n+1,k} x^(k-1)."""
    if n < 0:
        raise UsageError(f"need n >= 0, got {n}")
    return Poly._over(list(macmahon_row(n + 1)), 1)


#: The largest ``n`` that ``family_poly`` (the ``poly --n`` option) takes
#: per family: at the limit ``derivpoly poly`` builds and prints its
#: polynomial in about 10 s.  P, Q and S at a = 1/3, b = 5/3, d = 2/3: P
#: 1300 in 9.2-10.9 s, Q 1300 in 7.7-9.8 s, S 1300 in 8.2-12.0 s.  E, A and
#: M read one triangle row, which a triangle steps to keeping a few rows
#: (see ``special_numbers.Triangle``), so their limit is set by time alone:
#: E 2400 in 9.9 s, A 2400 in 11.3 s and M 2400 in 8.7 s, one run each, at
#: a peak RSS of 67-73 MB.  Timed as subprocesses printing to /dev/null on
#: a 2-vCPU Xeon, CPython 3.11.7.
FAMILY_LIMITS = {"P": 1300, "Q": 1300, "S": 1300, "E": 2400, "A": 2400,
                 "M": 2400}
FAMILIES = tuple(FAMILY_LIMITS)


def family_poly(family: str, n: int, *, r=None, a=None, b=None, d=None) -> Poly:
    """Build one member of a named family; raises UsageError on bad input,
    including a parameter the family does not take (E/A/M take none of
    r, a, b, d; P and Q take no d).  n above ``FAMILY_LIMITS[family]`` is
    refused before any work, and n below the family's first member by its
    builder."""
    if family not in FAMILIES:
        raise UsageError(f"unknown family {family!r}")
    if n > FAMILY_LIMITS[family]:
        raise UsageError(f"need n <= {FAMILY_LIMITS[family]} for family "
                         f"{family}, got {n}")
    takes = {"P": "rab", "Q": "rab", "S": "rabd"}.get(family, "")
    ignored = [k for k, v in zip("rabd", (r, a, b, d))
               if v is not None and k not in takes]
    if ignored:
        raise UsageError(f"family {family} does not take {', '.join(ignored)}")
    params = ()
    if family in ("P", "Q", "S"):
        if a is None or b is None:
            raise UsageError(f"family {family} requires parameters a and b")
        params = (RiccatiParams(Fraction(1) if r is None else r, a, b,
                                0 if d is None else d),)
        if family == "S" and d is None:
            raise UsageError("family S requires parameter d")
    build = {"P": build_P, "Q": build_Q, "S": build_S, "E": build_E,
             "A": build_A, "M": build_M}[family]
    return build(n, *params)
