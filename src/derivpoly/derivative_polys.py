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
* ``family_value`` -- P_n, Q_n or S_n at one rational point, both as
  integer (numerator, denominator) pairs, read from the row its builder
  reads, without building the polynomial.

Each P, Q and S member is one triangle row read against (u-x)^k (u-y)^(m-k),
and ``_family_row`` alone states which row, orientation and divisor: the
builders are one memoized path, ``_member``, that hands that row to the
kernel ``_homogeneous``, and ``family_value`` evaluates the same row with
the same Horner loop, ``_horner``.

Parameters are concrete rationals, never indeterminates, so every family
member is an ordinary univariate ``Poly``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import Record, UsageError, as_fraction
from .polyseries import Poly
from .special_numbers import (FAMILY_CACHE, _macmahon_triangle, eulerian_row,
                              macmahon_row)


class RiccatiParams(Record):
    """(r, a, b, d) with r != 0 and a != b; the companion-equation shift d
    (unrestricted, default 0) is read only by S and the v oracle.

    The ``_`` slots are integers derived here, once, so that no kernel
    reads a ``Fraction`` property per member or per value: ``_qab`` is (q,
    na, nb), a and b over their one denominator q = lcm(den a, den b), na =
    q a and nb = q b; and ``_shift`` is S's row shift c = 2d/(b-a) as its
    key (p, e), c = p/e in lowest terms with e > 0.  Together they are the
    family memo's key parts (see ``_member``)."""

    __slots__ = ("r", "a", "b", "d", "_qab", "_shift")

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
        q = math.lcm(a.denominator, b.denominator)
        object.__setattr__(self, "_qab", (q, a.numerator * (q // a.denominator),
                                          b.numerator * (q // b.denominator)))
        object.__setattr__(self, "_shift", (2 * d / (b - a)).as_integer_ratio())


#: The largest read, in bytes (width times count), that ``_digits`` takes
#: by shift and mask; a larger one goes through ``to_bytes``.  The shift
#: read's cost grows with count times bytes, so the crossover falls as the
#: count rises.  Time of the shift read over the ``to_bytes`` read at random
#: digits (median of 9 rounds of the best of 3 x 200 calls, 2-vCPU host,
#: CPython 3.11.7): 0.45-0.54 at 250-510 bytes over 6 digits, 0.61-0.89 at
#: 250-510 bytes over 21 digits and 0.67-0.95 over 41, against 0.76-1.29 at
#: 750-1,530 bytes over 21 digits and 1.10-1.76 at 615-1,520 over 41.  A
#: cold ``verify all`` reads at most 378 bytes, all by shift and mask.
DIGITS_SHIFT_BYTES = 512


def _digits(packed: int, width: int, count: int) -> list[int]:
    """The ``count`` signed digits of ``packed`` in base 2^K, K = 8 width,
    lowest first, each in [-2^(K-1), 2^(K-1)).

    A read of at most ``DIGITS_SHIFT_BYTES`` bytes takes the digits off the
    bottom one at a time: with t = packed + 2^(K-1), the low K bits of t
    are the digit plus 2^(K-1), and t >> K, the carry included, is what
    remains above it.  Each step shifts the whole remainder, so the read
    costs count^2 width; a larger one costs width count in one pass:
    adding the bias 2^(K-1) to every digit makes them all nonnegative, and
    XOR with the same bias turns each biased digit into the two's
    complement of the signed one, so one ``to_bytes`` pass and one signed
    ``from_bytes`` per digit read them off.
    """
    if width * count <= DIGITS_SHIFT_BYTES:
        k = 8 * width
        half = 1 << (k - 1)
        mask = (half << 1) - 1
        out = []
        for _ in range(count):
            packed += half
            out.append((packed & mask) - half)
            packed >>= k
        return out
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


def _pass_widths(size: int, m: int, q: int, na: int, nb: int) -> tuple:
    """(width, width1), in bytes, of the packed passes of ``_homogeneous``
    over a row of m + 1 coefficients whose sizes sum to less than 2^size,
    with a and b over one denominator q (na = q a, nb = q b): ``width``
    holds every coefficient of the numerator F over q^m (the one-pass read,
    and the cap of pass 2), ``width1`` every digit of pass 1.  Each bounds
    its digits' size B by bitlen(B) <= 8 width - 1, as the kernel's
    docstring derives."""
    width = (size + m * (q + max(abs(na), abs(nb))).bit_length()) // 8 + 1
    width1 = (size + m * (1 + abs(nb - na)).bit_length()) // 8 + 1
    return width, width1


def _horner(row, alpha: int, beta: int) -> int:
    """sum_k row[k] alpha^k beta^(m-k), m = len(row) - 1, on ints: one
    homogeneous Horner pass, each step one product by alpha and one by the
    running power of beta.  ``family_value`` reads it at a point, and
    ``_homogeneous``'s one pass at packed linear factors."""
    acc, power = 0, 1
    for c in reversed(row):
        acc = acc * alpha + c * power
        power *= beta
    return acc


def _homogeneous(coeffs, q: int, na: int, nb: int, den: int = 1) -> Poly:
    """sum_k coeffs[k] (u-a)^k (u-b)^(m-k) / den, m = len(coeffs) - 1, for
    a = na/q and b = nb/q over one denominator q > 0, by Horner's rule on
    integers that each pack a whole polynomial (Kronecker substitution).

    The numerator over q^m is F(u) = sum_k c_k (q u - na)^k (q u - nb)^(m-k).
    Its coefficients sum in size to at most s (q + max(|na|, |nb|))^m,
    s = sum |c_k|, since the coefficients of a product sum in size to at
    most the product of the factors' sums.  The digits of a packed result
    at 2^K read back exactly when every one lies in [-2^(K-1), 2^(K-1)),
    that is when K - 1 >= bitlen(B) for a bound B on their size.  K = 8
    width bits (whole bytes), and ``_pass_widths`` sizes each width by
    width = bitlen(B) // 8 + 1; with B the row bound above, bitlen(B) <=
    bitlen(s) + m bitlen(q + max(|na|, |nb|)).

    Small members (m <= 20) take one pass at u = 2^K and that width, with
    the linear factors packed as the ints fa = (q << K) - na and fb =
    (q << K) - nb: ``_horner`` at (fa, fb), whose steps are acc = acc fa +
    c_k power and power *= fb, two products by a packed factor of about K
    bits and one by a row entry, and one ``_digits`` read gives the
    numerators, normalised once over q^m den.  Both acc and power grow by
    K bits per step, so a step does more work than a step of either pass
    below; at small m the fixed cost of a second pass, its bound and a
    second read outweighs that.  Timed per member on Eulerian and MacMahon
    rows (median of 5 rounds of the best of 3 x 100 calls, 2-vCPU host,
    CPython 3.11.7), the one pass took, of the two passes' time, 0.57-0.77
    at m = 8-16 and 0.84-0.97 at m = 20 for q <= 3, and 1.00-1.13 at m =
    24, past the selection.  A product by a packed factor grows with K^2
    where a shift and add grow with K, so at a tall q the one pass is the
    slower: at q = 1,111,101 it took 0.89 of the two passes' time at m = 8,
    1.31 at m = 12 and 2.18 at m = 20 (its earlier steps of shifts and
    products by q, na and nb took 0.80-0.98).

    Larger members take two passes of shifts and adds, with no product by a
    wide packed factor: with delta = nb - na, t = q u - nb gives q u - na =
    t + delta, so F(t) = sum_k c_k (t + delta)^k t^(m-k), and each pass
    packs at its own width:

    1. t^m F(1/t) = sum_k c_k (1 + delta t)^k at t = 2^K1, so each step is
       acc + (delta acc << K1) + c_k; its digits, lowest first, are the
       coefficients of F from t^m down.  Coefficient j is sum_k c_k C(k, j)
       delta^j, at most sum_k |c_k| (1 + |delta|)^k <= s (1 + |delta|)^m,
       so K1 (``width1``) bounds 2^(bitlen(s) + m bitlen(1 + |delta|)).
    2. F(q u - nb) at u = 2^K2, each step (out q << K2) - out nb + e_j over
       pass 1's digits e_0, ..., e_m, as F(t) = sum_j e_j t^(m-j).  The
       coefficients of (q u - nb)^i sum in size to (q + |nb|)^i, so every
       coefficient is at most B2 = sum_j |e_j| (q + |nb|)^(m-j), which one
       Horner pass over the digits forms exactly; K2 bounds the smaller of
       B2 and the row bound.  On the triangle rows B2 is the smaller: for
       P_160 pass 2 packs at 1,472 bits instead of 1,584 at (1/3, 5/3), and
       at 1,152 instead of 1,264 at (0, 1).
    """
    m = len(coeffs) - 1
    size = sum(map(abs, coeffs)).bit_length()
    width, width1 = _pass_widths(size, m, q, na, nb)
    if m <= 20:
        k = 8 * width
        packed = _horner(coeffs, (q << k) - na, (q << k) - nb)
        return Poly._over(_digits(packed, width, m + 1), q ** m * den)
    delta, acc, out = nb - na, 0, 0
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


def _family_row(letter: str, n: int, params: RiccatiParams) -> tuple:
    """(row, q, nx, ny, den) with F_n(u) = sum_k row[k] (u-x)^k (u-y)^(m-k)
    / den, m = len(row) - 1, x = nx/q and y = ny/q, for F = P, Q or S
    (``letter``): the one statement of which triangle row a member reads,
    in which orientation and over which divisor, read by ``_member`` and
    by ``family_value``.  It reads the record's integers, not its
    ``Fraction``s.

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
    q, na, nb = params._qab
    if letter == "P":
        return (0, *eulerian_row(n - 1), 0) if n > 1 else (0, 1), q, na, nb, 1
    if letter == "Q":
        return macmahon_row(n + 1), q, nb, na, 1
    shift = params._shift
    return _macmahon_triangle(shift).row(n + 1), q, nb, na, shift[1] ** n


def family_value(letter: str, n: int, params: RiccatiParams,
                 u: tuple[int, int]) -> tuple[int, int]:
    """F_n(u) for F = P, Q or S (``letter``) at the point u = (numerator,
    denominator), an integer pair with a positive denominator, as an
    integer (numerator, denominator) pair, not reduced, the denominator
    positive: read from the row its builder reads (``_family_row``) without
    building the polynomial, and not memoized.

    With x, y and u over one denominator g, alpha = g (u - x) and beta =
    g (u - y) are integers, and ``_horner`` forms sum_k row[k] alpha^k
    beta^(m-k); the value is that sum over g^m den.  It reads no
    ``Fraction``: a caller compares the pair cross-multiplied.
    """
    row, q, nx, ny, den = _family_row(letter, n, params)
    num, u_den = u
    g = math.lcm(q, u_den)
    nu, scale = num * (g // u_den), g // q
    return (_horner(row, nu - nx * scale, nu - ny * scale),
            g ** (len(row) - 1) * den)


def _member(letter: str, n: int, params: RiccatiParams) -> Poly:
    """P_n, Q_n or S_n (``letter``) at ``params``, built by ``_homogeneous``
    from ``_family_row`` once and memoized in ``FAMILY_CACHE``.

    The key is (letter, n, q, na, nb), with S's shift key (p, e) appended
    for S: exactly what the row and the kernel read.  (q, na, nb) fixes
    (a, b), and given (a, b) the shift p/e = 2d/(b-a) fixes d, so each key
    is one member; P and Q, which do not read d, share their members across
    shifts, and no member reads r."""
    key = (letter, n) + params._qab
    if letter == "S":
        key += params._shift
    poly = FAMILY_CACHE.get(key)
    if poly is None:
        poly = FAMILY_CACHE[key] = _homogeneous(*_family_row(letter, n, params))
    return poly


def build_P(n: int, params: RiccatiParams) -> Poly:
    """P_n(u; a, b), degree n, independent of r.

    P_1 = u - a; for n >= 2 the coefficients against the factored basis
    (u-a)^(k+1) (u-b)^(n-1-k) are the Eulerian numbers of row n-1, so P_n is
    one Horner pass over that row padded with a zero at each end.  Every
    summand carries both factors, so P_n vanishes at u = a and, for n >= 2,
    at u = b.
    """
    return _member("P", n, params)


def build_Q(n: int, params: RiccatiParams) -> Poly:
    """Q_n(u; a, b), degree n, independent of r; Q_0 = 1.  Its coefficients
    against (u-a)^(n+1-k) (u-b)^(k-1) are the MacMahon numbers of row n+1."""
    return _member("Q", n, params)


def build_S(n: int, params: RiccatiParams) -> Poly:
    """S_n(u; a, b, d), independent of r, with d from the record; S_0 = 1.
    S_{n+1} = (2u - a - b + 2d) S_n + 2(u-a)(u-b) S_n' is Q's recurrence
    plus the shift, so with 2d = c (b - a) and c = p/e, e^n times S_n's
    coefficients against (u-a)^(n+1-k) (u-b)^(k-1) are row n+1 of the
    MacMahon triangle shifted by c."""
    return _member("S", n, params)


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
#: per family.  E, A and M read one triangle row, which a triangle steps to
#: keeping a few rows (see ``special_numbers.Triangle``), so their limit is
#: set by time alone: E 2400 in 9.9 s, A 2400 in 11.3 s and M 2400 in
#: 8.7 s, one run each, at a peak RSS of 67-73 MB.  P, Q and S are bounded
#: by ``_build_cost`` too, whose budget is their cost at n = 1300 and the
#: parameters of ``_COST_REFERENCE``: P 1300 in 9.2-10.9 s, Q 1300 in
#: 7.7-9.8 s, S 1300 in 8.2-12.0 s.  Timed as subprocesses printing to
#: /dev/null on a 2-vCPU Xeon, CPython 3.11.7.
FAMILY_LIMITS = {"P": 1300, "Q": 1300, "S": 1300, "E": 2400, "A": 2400,
                 "M": 2400}
FAMILIES = tuple(FAMILY_LIMITS)
#: a = 1/3, b = 5/3 and d = 2/3, at which P, Q and S at n = 1300 set the
#: cost budget of ``family_poly``.
_COST_REFERENCE = RiccatiParams(1, Fraction(1, 3), Fraction(5, 3),
                                Fraction(2, 3))


def _build_cost(letter: str, n: int, params: RiccatiParams) -> int:
    """About how much work ``_homogeneous`` does for P_n, Q_n or S_n
    (``letter``, n >= 1) at ``params``, without building the row: each
    Horner pass takes m = n steps on ints that grow to m times its width,
    so it costs about m^2 width, and the estimate is m^2 (width + width1)
    with both widths from ``_pass_widths``.  The row's L1 norm, which sets
    both widths, is bounded from the row sums: (n-1)! for P's Eulerian row
    n-1 and 2^n n! for Q's MacMahon row n+1, whose entries are positive.
    S's row steps by the weights e(2k-1) + p and e(2n'-2k+1) - p at the
    shift p/e, and the two weights of each parent in row n'-1 sum in size
    to at most 2(e(n'-1) + |p|), so 2^n prod_{j=1..n} (e j + |p|) bounds its
    L1 norm."""
    if letter == "P":
        norm = math.factorial(n - 1)
    elif letter == "Q":
        norm = math.factorial(n) << n
    else:
        p, e = params._shift
        norm = math.prod(range(e + abs(p), e * n + abs(p) + 1, e)) << n
    return n * n * sum(_pass_widths(norm.bit_length(), n, *params._qab))


def family_poly(family: str, n: int, *, a=None, b=None, d=None) -> Poly:
    """Build one member of a named family; raises UsageError on bad input,
    including a parameter the family does not take (E/A/M take none of
    a, b, d; P and Q take no d).  n above ``FAMILY_LIMITS[family]``, and
    a P, Q or S member whose ``_build_cost`` exceeds the family's at n =
    1300 and ``_COST_REFERENCE``, are refused before any work, and n below
    the family's first member by its builder."""
    if family not in FAMILIES:
        raise UsageError(f"unknown family {family!r}")
    if n > FAMILY_LIMITS[family]:
        raise UsageError(f"need n <= {FAMILY_LIMITS[family]} for family "
                         f"{family}, got {n}")
    takes = {"P": "ab", "Q": "ab", "S": "abd"}.get(family, "")
    ignored = [k for k, v in zip("abd", (a, b, d))
               if v is not None and k not in takes]
    if ignored:
        raise UsageError(f"family {family} does not take {', '.join(ignored)}")
    params = ()
    if family in ("P", "Q", "S"):
        if a is None or b is None:
            raise UsageError(f"family {family} requires parameters a and b")
        params = (RiccatiParams(1, a, b, 0 if d is None else d),)
        if family == "S" and d is None:
            raise UsageError("family S requires parameter d")
        if n >= 1:
            cost = _build_cost(family, n, *params)
            budget = _build_cost(family, FAMILY_LIMITS[family], _COST_REFERENCE)
            if cost > budget:
                raise UsageError(
                    f"family {family} at n = {n} and these parameters would "
                    f"cost about {cost / budget:.2f} times the largest build "
                    f"(n = {FAMILY_LIMITS[family]} at a = 1/3, b = 5/3"
                    f"{', d = 2/3' if family == 'S' else ''}); use a smaller "
                    f"n or parameters of smaller height")
    build = {"P": build_P, "Q": build_Q, "S": build_S, "E": build_E,
             "A": build_A, "M": build_M}[family]
    return build(n, *params)
