"""Identity-verification engine.

Two independent computation routes exist for everything here: a power-series
ODE oracle that knows nothing about the polynomial families, and the families
themselves built from the triangles.  Each check states its two routes (or
two exact closed forms) as a lazy stream of ``(index, lhs, rhs)`` pairs, and
``_scan`` is the one place where they are compared: it fails at the first
pair that differs, with that pair as the witness, and passes otherwise.  A
property (an exact division, integer coefficients, a symmetric row) is a
pair too, its right side from ``_claim``.  A pair of rationals keeps each
side as an integer numerator and denominator and is compared
cross-multiplied (``_cross_sides``), and packed polynomials are compared as
one integer each: the ``Fraction`` or ``Poly`` sides are built only for a
failing pair's witness.  The values of the families, of built polynomials
and of their integrals, and the oracle's coefficients times n!, come from
their kernels as such integer pairs (``family_value``, ``Poly._eval_pair``,
``Poly._integral_pair``, ``_unscaled``), so a passing pair builds no
``Fraction``.  Exact paths carry no tolerance
knobs; the one verdict decided outside ``_scan`` is the floating-point
quadrature cross-check ``grosset_veselov_numeric``.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable
from fractions import Fraction

from .derivative_polys import (
    RiccatiParams,
    _packed,
    _unpacked,
    build_A,
    build_E,
    build_M,
    build_P,
    build_Q,
    build_S,
    family_value,
)
from .exact import Record, UsageError, as_fraction
from .polyseries import Poly, Series, X
from .special_numbers import (
    _bernoulli_value_pair,
    bernoulli_number,
    eulerian,
    eulerian_explicit,
    eulerian_row,
    macmahon,
    macmahon_explicit,
    macmahon_row,
)

DEFAULT_ORACLE_ORDER = 16
DEFAULT_T1_N = 15
DEFAULT_T23_N = 12
DEFAULT_EGF_ORDER = 10
DEFAULT_POLY_ID_N = 15
DEFAULT_INTEGRAL_N = 20
DEFAULT_INTEGRAL_S_N = 12
DEFAULT_GV_M = 8
DEFAULT_GV_NUMERIC_M = 3
DEFAULT_GV_TOL = 1e-8
DEFAULT_RELATION_N = 12

#: (r, a, b, u0) oracle instances; the third is the logistic instance
#: q=2, p=3, s=1 mapped to Riccati form.
ORACLE_INSTANCES = (
    (Fraction(1), Fraction(0), Fraction(1), Fraction(1, 3)),
    (Fraction(-1), Fraction(-1), Fraction(1), Fraction(0)),
    (Fraction(-1, 2), Fraction(2), Fraction(0), Fraction(1, 2)),
)

INTEGRAL_PAIRS = (
    (Fraction(0), Fraction(1)),
    (Fraction(-1), Fraction(1)),
    (Fraction(3), Fraction(-2)),
)

INTEGRAL_S_TRIPLES = (
    (Fraction(0), Fraction(1), Fraction(1, 3)),
    (Fraction(-1), Fraction(1), Fraction(1, 2)),
    (Fraction(2), Fraction(5), Fraction(-1)),
    (Fraction(3), Fraction(-2), Fraction(1, 2)),
)

SUBSTITUTION_SAMPLES = (
    Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(3, 7), Fraction(-5, 3),
)

RELATION_PARAM_PAIRS = (
    (Fraction(0), Fraction(1)),
    (Fraction(-2, 3), Fraction(3, 2)),
)

EGF_SHIFTS = (Fraction(0), Fraction(1, 4), Fraction(-1, 2))


class Verdict(Record):
    """Outcome of one identity check; a failure always carries a witness.

    ``_params_text`` is the params' JSON text (``json_object``), made once
    here: the canonical order of ``run_suite`` sorts on it and the csv
    writer prints it.  It is derived, so no part of equality or the repr.
    """

    __slots__ = ("identity", "params", "passed", "first_failure", "witness",
                 "inconclusive", "_params_text")
    #: ``params`` and ``witness`` are dicts, so a verdict has no hash.
    __hash__ = None

    def __init__(self, identity: str, params: dict, passed: bool,
                 first_failure: int | None = None,
                 witness: dict | None = None, inconclusive: bool = False):
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "first_failure", first_failure)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "inconclusive", inconclusive)
        object.__setattr__(self, "_params_text", json_object(params))

    @property
    def status(self) -> str:
        """``pass``, ``fail`` or ``inconclusive``."""
        if self.passed:
            return "pass"
        return "inconclusive" if self.inconclusive else "fail"

    def to_json_obj(self) -> dict:
        obj = {
            "identity": self.identity,
            "params": self.params,
            "pass": self.passed,
            "first_failure": self.first_failure,
            "witness": self.witness,
        }
        if self.inconclusive:
            obj["inconclusive"] = True
        return obj


def _params(**fields) -> dict:
    """Verdict parameters, with every Fraction as ``p/q``."""
    return {k: str(v) if isinstance(v, Fraction) else v
            for k, v in fields.items()}


def _upto(bound: int, name: str = "n_max") -> range:
    """1..bound, refusing an empty range: a check over nothing is no check."""
    if bound < 1:
        raise UsageError(f"{name} must be >= 1, got {bound}")
    return range(1, bound + 1)


def _scan(identity: str, params: dict, pairs: Iterable[tuple]) -> Verdict:
    """Compare two routes pair by pair: fail at the first ``(index, lhs,
    rhs)`` whose sides differ, with that pair as the witness; pass otherwise.

    A pair of rationals arrives from ``_cross_sides`` as two equal integers,
    its sides cross-multiplied, and as its two ``Fraction``s only when it
    fails, so the witness prints them as ``p/q``.  ``pairs`` is read
    lazily, so nothing after the first mismatch is computed.
    """
    for index, lhs, rhs in pairs:
        if lhs != rhs:
            return Verdict(identity, params, False, index,
                           {"lhs": str(lhs), "rhs": str(rhs)})
    return Verdict(identity, params, True)


def _cross_sides(ln: int, ld: int, rn: int, rd: int) -> tuple:
    """The two sides of the exact pair ln/ld against rn/rd, for nonzero
    denominators of either sign: the integers ln rd and rn ld, equal exactly
    when the rationals are, and for a failing pair ``Fraction(ln, ld)`` and
    ``Fraction(rn, rd)`` instead, built only for the witness."""
    left, right = ln * rd, rn * ld
    if left == right:
        return left, right
    return Fraction(ln, ld), Fraction(rn, rd)


def _claim(value, holds: bool, text: str):
    """The right side of a property pair ``(index, value, _claim(...))``:
    ``value`` itself when the property holds, so the pair is equal, and
    otherwise ``text``, which names the property and equals no value."""
    return value if holds else text


class OracleInstance(Record):
    """Initial data for the series oracle: parameters plus u(0), v(0)."""

    __slots__ = ("params", "u0", "v0", "order")

    def __init__(self, params: RiccatiParams, u0, v0=Fraction(1),
                 order: int = DEFAULT_ORACLE_ORDER):
        u0, v0 = as_fraction(u0), as_fraction(v0)
        if v0 == 0:
            raise UsageError("v0 must be nonzero")
        if order < 1:
            raise UsageError(f"oracle order must be >= 1, got {order}")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "u0", u0)
        object.__setattr__(self, "v0", v0)
        object.__setattr__(self, "order", order)


def instance(r, a, b, u0, *, d=0, v0=1, order=DEFAULT_ORACLE_ORDER) -> OracleInstance:
    """Convenience constructor from bare scalars."""
    return OracleInstance(RiccatiParams(r, a, b, d), u0, v0, order)


def _scaled_parameters(a: Fraction, b: Fraction, u0: Fraction,
                       d: Fraction | None = None) -> tuple[int, ...]:
    """(q, alpha, beta, mu, eta): one denominator q with a = alpha/q,
    b = beta/q, u0 = mu/q and h = d - (a+b)/2 = eta/q.  Without d, h is 0:
    u never reads d, so its q covers a, b and u0 only."""
    values = (a, b, u0, Fraction(0) if d is None else d - (a + b) / 2)
    q = math.lcm(*(v.denominator for v in values))
    return (q, *(v.numerator * (q // v.denominator) for v in values))


def series_height(r: Fraction, a: Fraction, b: Fraction, u0: Fraction,
                  d: Fraction | None = None) -> int:
    """About how many bits coefficient n of either series oracle gains per
    step of n, beyond the log2(n) of n!: the bit length of the largest of
    ``_scaled_parameters``' integers, which set the growth of x_n, plus that
    of r's numerator or denominator, which r^n multiplies in.  Pass d for
    the v series only: u never reads it."""
    top = max(map(abs, _scaled_parameters(a, b, u0, d)))
    return top.bit_length() + max(abs(r.numerator), r.denominator).bit_length()


def _pascal_next(row: list[int]) -> list[int]:
    """Row n+1 of Pascal's triangle from row n."""
    return [1, *map(operator.add, row, row[1:]), 1]


def _riccati_numerators(alpha: int, beta: int, mu: int, order: int) -> list[int]:
    """x_0..x_order of the scaled Riccati recurrence, on ints:
    x_0 = mu, x_{n+1} = sum_i C(n,i) x_i x_{n-i} - (alpha+beta) x_n
    + alpha*beta*[n=0].

    The convolution is symmetric under i <-> n-i, so each product is formed
    once: twice the sum over i < n/2, plus the middle term for even n.  The
    binomials come from a running Pascal row.
    """
    s, x, row = alpha + beta, [mu], [1]
    for n in range(order):
        half = (n + 1) // 2
        conv = 2 * sum(c * xi * xj for c, xi, xj in zip(row[:half], x, x[n::-1]))
        if n % 2 == 0:
            conv += row[half] * x[half] ** 2
        x.append(conv - s * x[n] + (alpha * beta if n == 0 else 0))
        row = _pascal_next(row)
    return x


def _unscaled(nums: list[int], lead: tuple[int, int], r: tuple[int, int],
              q: int) -> list[tuple[int, int]]:
    """n! c_n = lead * r^n * nums[n] / q^n for each n, as unreduced integer
    (numerator, denominator) pairs, with ``lead`` and ``r`` given as such
    pairs: the oracle's coefficients times n!, with no ``Fraction`` built.
    The theorems compare them cross-multiplied, and ``_series`` divides
    them by n! for the ``series`` command."""
    (num, den), (r_num, r_den), out = lead, r, []
    for n, x in enumerate(nums):
        if n:
            num *= r_num
            den *= r_den * q
        out.append((num * x, den))
    return out


def _series(pairs: list[tuple[int, int]]) -> Series:
    """The series whose coefficient n is pairs[n] over n!, one reduced
    ``Fraction`` each: the oracle's ``_unscaled`` pairs as Taylor
    coefficients."""
    out, fact = [], 1
    for n, (num, den) in enumerate(pairs):
        fact *= n or 1
        out.append(Fraction(num, den * fact))
    return Series(out)


def _riccati_pairs(inst: OracleInstance) -> list[tuple[int, int]]:
    """n! c_n for the Taylor coefficients c_n of u, as ``_unscaled`` integer
    pairs (see ``riccati_series``)."""
    p = inst.params
    q, alpha, beta, mu, _ = _scaled_parameters(p.a, p.b, inst.u0)
    return _unscaled(_riccati_numerators(alpha, beta, mu, inst.order),
                     (1, q), p.r.as_integer_ratio(), q)


def riccati_series(inst: OracleInstance) -> Series:
    """Taylor coefficients of u at 0 from u' = r(u-a)(u-b), u(0) = u0.

    The recurrence (n+1) c_{n+1} = r * [z^n]((u-a)(u-b)) runs on ints: with
    a, b, u0 over one denominator q, c_n = r^n x_n / (n! q^(n+1)) for the
    integers x_n of ``_riccati_numerators``, and each c_n is one ``Fraction``
    built at the end from the integer pairs of ``_riccati_pairs``.  It never
    consults the polynomial families it is used to check.
    """
    return _series(_riccati_pairs(inst))


def _v_numerators(alpha: int, beta: int, mu: int, eta: int,
                  order: int) -> list[int]:
    """y_0..y_order of the scaled v series, on ints:
    y_n = sum_k C(n,k) (eta+alpha)^(n-k) x'_k, where x'_0 = mu - beta and
    x'_k = x_k of ``_riccati_numerators`` for k >= 1, summed by the one
    Pascal pass ``_exp_transform``; y_n = (eta+beta)^n if mu = beta.
    """
    if mu == beta:
        return [(eta + beta) ** n for n in range(order + 1)]
    row = _riccati_numerators(alpha, beta, mu, order)
    row[0] = mu - beta
    return _exp_transform(row, eta + alpha)


def _v_pairs(inst: OracleInstance) -> list[tuple[int, int]]:
    """n! w_n for the Taylor coefficients w_n of v, as ``_unscaled`` integer
    pairs (see ``v_series``), whose denominators take the sign of mu - beta
    (``_cross_sides`` and ``Fraction`` read either sign)."""
    p = inst.params
    q, alpha, beta, mu, eta = _scaled_parameters(p.a, p.b, inst.u0, p.d)
    num, den = inst.v0.as_integer_ratio()
    if mu != beta:
        den *= mu - beta
    return _unscaled(_v_numerators(alpha, beta, mu, eta, inst.order),
                     (num, den), p.r.as_integer_ratio(), q)


def v_series(inst: OracleInstance) -> Series:
    """Taylor coefficients of v from v' = r v (u - (a+b)/2 + d), v(0) = v0.

    By the first integral, from the integers x_n of ``riccati_series``: in
    s = r z / q the scaled X = q u obeys X' = (X - alpha)(X - beta), so
    (X - beta)'/(X - beta) = X - alpha, while v'/v = X + eta with h = eta/q.
    Hence v = v0 e^((eta+alpha) s) (X - beta)/(mu - beta), that is
    w_n = v0 r^n y_n / ((mu - beta) n! q^n) for the integers y_n of
    ``_v_numerators``; 1/(mu - beta) goes into the lead, so no integer is
    divided.  If mu = beta, u is constant and the lead is v0.  Each w_n is
    one ``Fraction`` built at the end from the integer pairs of
    ``_v_pairs``.
    """
    return _series(_v_pairs(inst))


def check_theorem(theorem: str, inst: OracleInstance) -> Verdict:
    """n! * [z^n]oracle(inst) == start * ratio^n * F_n(u0), exactly, for
    1 <= n <= the oracle order (reported as ``n_max``), where ``theorem``
    picks the oracle, the family F_n, the start and the ratio:

    - ``theorem1``: n! * [z^n]u == r^n * P_{n+1}(u0);
    - ``theorem2``: n! * [z^n]v == v0 * (r/2)^n * Q_n(u0), for the unshifted
      case d = 0 only (ValueError otherwise);
    - ``theorem3``: n! * [z^n]v == v0 * (r/2)^n * S_n(u0) for any shift d.

    The left side comes from the ODE oracle's integer recurrence alone, as
    the integer pairs of n! times each coefficient (``_riccati_pairs``,
    ``_v_pairs``), the right side from the family's triangle row read at
    u0 by ``family_value``, which builds no polynomial and returns an
    integer pair.  start * ratio^n is kept as an integer numerator and
    denominator, advanced by one product each per n, and each pair is
    compared cross-multiplied (``_cross_sides``): no ``Fraction`` is read
    or built per n, and the two are built only for a failing pair's
    witness.
    """
    p = inst.params
    if theorem == "theorem2" and p.d != 0:
        raise ValueError("the Q-family check applies to d = 0 instances")
    (r_num, r_den), v0 = p.r.as_integer_ratio(), inst.v0.as_integer_ratio()
    # The start and the ratio, r or r/2, as (numerator, denominator) pairs.
    oracle, letter, shift, start, (ratio_num, ratio_den), extra = {
        "theorem1": (_riccati_pairs, "P", 1, (1, 1), (r_num, r_den), {}),
        "theorem2": (_v_pairs, "Q", 0, v0, (r_num, 2 * r_den),
                     {"v0": inst.v0}),
        "theorem3": (_v_pairs, "S", 0, v0, (r_num, 2 * r_den),
                     {"d": p.d, "v0": inst.v0}),
    }[theorem]
    params = _params(r=p.r, a=p.a, b=p.b, u0=inst.u0,
                     n_max=inst.order, **extra)
    lhs, u0 = oracle(inst), inst.u0.as_integer_ratio()

    def pairs():
        num, den = start
        for n in range(1, inst.order + 1):
            num *= ratio_num
            den *= ratio_den
            rhs_num, rhs_den = family_value(letter, n + shift, p, u0)
            yield (n, *_cross_sides(*lhs[n], num * rhs_num, den * rhs_den))

    return _scan(theorem, params, pairs())


def _exp_transform(fs: list, rate) -> list:
    """g_n = sum_k C(n,k) rate^(n-k) F_k for every n < len(fs), by Pascal's
    rule: from the row t_0 = F, t_{j+1}(k) = t_j(k+1) + rate * t_j(k), and
    g_n = t_n(0).  No binomial is formed and no power of the rate."""
    row, out = fs, []
    while row:
        out.append(row[0])
        row = [b + rate * a for a, b in zip(row, row[1:])]
    return out


def _check_egf(identity: str, coeff, order: int, mult: tuple, expected: tuple,
               **params) -> Verdict:
    """(sum_n F_n t^n/n!) * (c + d e^(rate t)) == c' + d' e^(rate' t) through
    order N >= 1 (``suite_egf`` refuses a lower N), where F_n is
    ``coeff(n)``, ``mult`` is (c, d, rate) and ``expected`` is (c', d', rate').

    Each generating function checked here is a Moebius function of one
    exponential, like the Riccati solution itself, so cross-multiplying by
    its denominator leaves one such triple on each side and no division.
    Coefficient n of the left side is (c F_n + d g_n)/n!, with the binomial
    sum g_n = sum_k C(n,k) rate^(n-k) F_k from ``_exp_transform`` (Pascal's
    rule); coefficient n of the right side is (c' [n = 0] + d' rate'^n)/n!.
    Coefficient n reads F_0..F_n only, so every coefficient 0..N is exact
    evidence.

    Every datum is a polynomial in x (a scalar is a constant one) and runs
    on integers: the F_n over one denominator D, each times e^n for the
    rate's denominator e, (c, d) and (c', d') over one denominator each, and
    each integer polynomial packed into one int at x = 2^K (``_packed``).
    The Pascal pass then runs on ints with the packed rate, a product of
    packed ints is the packed product, and each coefficient comparison is
    one integer equality of the two sides cross-multiplied by each other's
    denominator.  That equality is exact when every digit of both products
    fits in K bits, so K bounds them, and every digit of the data too: an
    L1 bound carried through the same Pascal rule on the rows' L1 norms,
    since the L1 norm of a product is at most the product of the norms.
    Only when the two sides differ are they unpacked (``_unpacked``), as the
    witness: as ``Poly`` text if any datum is a ``Poly``, a zero side as
    ``[]``, and as ``Fraction`` text otherwise.
    """
    fs = [coeff(n) for n in range(order + 1)]
    polys = any(isinstance(v, Poly) for v in (*fs, *mult, *expected))
    (c, d, rate), (c1, d1, rate1) = (map(Poly._coerce, side)
                                     for side in (mult, expected))

    def numerators(data):
        den = math.lcm(*(p._den for p in data))
        return [[x * (den // p._den) for x in p._coeffs] for p in data], den

    rows, den = numerators(list(map(Poly._coerce, fs)))
    e, e1 = rate._den, rate1._den
    rows = [[x * e ** n for x in row] for n, row in enumerate(rows)]
    (gamma, delta), cd = numerators((c, d))
    (gamma1, delta1), cd1 = numerators((c1, d1))
    rho, rho1 = rate._coeffs, rate1._coeffs

    def norm(p):
        return sum(map(abs, p))

    # coefficient n of the left side is its packed numerator over
    # lscales[n] n!, of the right side over rscales[n] n!
    lscales = [cd * den * e ** n for n in range(order + 1)]
    rscales = [cd1 * e1 ** n for n in range(order + 1)]
    g_norms = _exp_transform([norm(row) for row in rows], norm(rho))
    data = (gamma, delta, gamma1, delta1, rho, rho1)
    bound = max(map(norm, (*rows, *data)))
    for n in range(order + 1):
        lhs = norm(gamma) * norm(rows[n]) + norm(delta) * g_norms[n]
        rhs = norm(gamma1) * (n == 0) + norm(delta1) * norm(rho1) ** n
        bound = max(bound, lhs * rscales[n], rhs * lscales[n])
    width = bound.bit_length() // 8 + 1
    hs = [_packed(row, width) for row in rows]
    gamma, delta, gamma1, delta1, rho, rho1 = (_packed(p, width) for p in data)
    gs = _exp_transform(hs, rho)

    def text(packed, scale):
        side = _unpacked(packed, width, scale)
        return str(side) if polys else str(side.coefficient(0))

    def pairs():
        power, fact = 1, 1
        for n in range(order + 1):
            fact *= n or 1
            lhs = gamma * hs[n] + delta * gs[n]
            rhs = delta1 * power + (gamma1 if n == 0 else 0)
            left, right = lhs * rscales[n], rhs * lscales[n]
            yield ((n, left, right) if left == right else
                   (n, text(lhs, lscales[n] * fact),
                    text(rhs, rscales[n] * fact)))
            power *= rho1

    return _scan(identity, _params(**params, order=order), pairs())


_BASE01 = RiccatiParams(Fraction(1), Fraction(0), Fraction(1))
_BASE01_HALF = RiccatiParams(Fraction(1), Fraction(0), Fraction(1),
                             Fraction(-1, 2))


def check_lemma1(n: int) -> Verdict:
    """P_{n+1}(u;0,1) == (u-1) * sum_{k<n} C(n,k) P_{k+1}(u;0,1), exactly.

    The right side is formed as u*acc - acc for the sum acc, of degree n, so
    that a negation of degree n and a sum of degree n+1 are on its route."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    lhs = build_P(n + 1, _BASE01)
    acc = Poly._combination([math.comb(n, k) for k in range(n)],
                            [build_P(k + 1, _BASE01) for k in range(n)])
    return _scan("lemma1", {"n": n}, [(None, lhs, acc * X - acc)])


def _classical_verdicts(ns: range):
    """The classical verdict for each n of ns, ascending: A_n == sum_{k<n}
    C(n,k) A_k (x-1)^(n-1-k) for the Eulerian polynomials A.

    Each Eulerian row up to the largest n is packed once into one int at
    x = 2^K (``_packed``).  The sum runs by Horner's rule in x-1, each step
    (acc << K) - acc + C(n,k) A_k, and is compared with A_n as one integer.
    With s the largest L1 norm of the rows, every digit of either side is at
    most s 3^n (the weights C(n,k) 2^(n-1-k) sum to less than 3^n), so K
    bounds s 3^N for the largest n = N and the comparison is exact.  Only
    when the sides differ are they unpacked (``_unpacked``), as the witness.
    """
    top = ns[-1]
    rows = [(1,), *map(eulerian_row, range(1, top + 1))]
    norm = max(sum(map(abs, row)) for row in rows)
    width = (norm * 3 ** top).bit_length() // 8 + 1
    k = 8 * width
    fs = [_packed(row, width) for row in rows]
    for n in ns:
        acc = fs[0]
        for j in range(1, n):
            acc = (acc << k) - acc + math.comb(n, j) * fs[j]
        lhs, rhs = fs[n], acc
        if lhs != rhs:
            lhs, rhs = (_unpacked(side, width, 1) for side in (lhs, rhs))
        yield _scan("classical", {"n": n}, [(None, lhs, rhs)])


def _integral_verdicts(family: str, ns: range, a, b, d=0):
    """The integral_P, _Q or _S verdict (``family`` "P", "Q" or "S") at
    (a, b), and d for S, for each n of ns, ascending:
    integral_a^b F_n du == w_n * (b-a)^(n+1), with w_n = -B_n for P and
    2^n * B_n(1/2 + d/(b-a)) for Q and S, Q being S at d = 0.  The record,
    the Bernoulli point (1 + c)/2 for S's shift c = 2d/(b-a) and the params
    text are formed once.  The right side is kept as an integer numerator
    and denominator, into which the sign, the 2^n and (b-a)^(n+1) are folded
    by one integer product each per n, and compared cross-multiplied with
    the integral's integer pair (``Poly._integral_pair``, ``_cross_sides``);
    the Bernoulli value at the point is an integer pair too
    (``_bernoulli_value_pair``)."""
    params = RiccatiParams(1, a, b, d)
    a, b = params.a, params.b
    (p, e), width = params._shift, b - a
    point = Fraction(p + e, 2 * e)
    # Formed per call, so that a builder rebound on this module (as the
    # benchmark's tracer does) is the one called.  w_n = sign base^n value(n).
    build, names, value, sign, base = {
        "P": (build_P, ("a", "b"),
              lambda n: bernoulli_number(n).as_integer_ratio(), -1, 1),
        "Q": (build_Q, ("a", "b"), lambda n: _bernoulli_value_pair(n, point),
              1, 2),
        "S": (build_S, ("a", "b", "d"),
              lambda n: _bernoulli_value_pair(n, point), 1, 2),
    }[family]
    text = {name: str(getattr(params, name)) for name in names}
    step_num, step_den = base * width.numerator, width.denominator
    num = sign * base ** ns.start * width.numerator ** (ns.start + 1)
    den = step_den ** (ns.start + 1)
    for n in ns:
        lhs_num, lhs_den = build(n, params)._integral_pair(a, b)
        w_num, w_den = value(n)
        yield _scan(f"integral_{family}", {"n": n, **text},
                    [(n, *_cross_sides(lhs_num, lhs_den,
                                       num * w_num, den * w_den))])
        num *= step_num
        den *= step_den


_PM1 = RiccatiParams(Fraction(1), Fraction(-1), Fraction(1))
_ONE_MINUS_U2 = Poly((1, 0, -1))


def grosset_veselov_exact(m: int) -> Verdict:
    """Even Bernoulli numbers from the squared P family, fully exactly.

    P_{m+1}(u;-1,1) carries both factors u+1 and u-1, so its square is
    divisible by 1-u^2; the quotient is the tanh-substituted integrand of
    the sech^2-derivative integral, and
    B_{2m} == (-1)^(m-1) 2^-(2m+1) * integral_{-1}^{1} quotient du.
    The first pair claims the division exact: a nonzero remainder fails it,
    with the remainder as the witness, before the integral is formed.  The
    B_2m pair folds the sign and 2^-(2m+1) into the integral's numerator and
    denominator and is compared cross-multiplied (``_cross_sides``).  The
    exact quotient is even, so the integral over [-1, 1] cannot see an odd
    coefficient: a last pair compares the quotient's odd part with zero.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")

    def pairs():
        p = build_P(m + 1, _PM1)
        quotient, rem = divmod(p * p, _ONE_MINUS_U2)
        yield m, rem, _claim(rem, rem.is_zero(), "exact division")
        sign = 1 if (m - 1) % 2 == 0 else -1
        lhs_num, lhs_den = quotient._integral_pair(-1, 1)
        rhs = bernoulli_number(2 * m)
        yield (m, *_cross_sides(sign * lhs_num, 2 ** (2 * m + 1) * lhs_den,
                                rhs.numerator, rhs.denominator))
        odd = Poly._over([c if k % 2 else 0
                          for k, c in enumerate(quotient._coeffs)], quotient._den)
        yield m, odd, Poly()

    return _scan("grosset_veselov_exact", {"m": m}, pairs())


#: The finest grid of one quadrature: 40 unit steps halved 12 times.
QUADRATURE_MAX_STEPS = 40 * 2 ** 12
#: The rounding allowance of ``_trapezoid``'s convergence test, in ulps of
#: the sum.
ROUNDING_ULPS = 8


def _trapezoid(f, tol: float) -> tuple[float, bool]:
    """Trapezoidal rule for f over [-20, 20]; returns (last sum, converged).

    Starts at 40 unit steps, and each round adds the midpoints, halving the
    step, until two successive sums differ by at most tol/2 less a rounding
    allowance of ROUNDING_ULPS ulps of the sum.  The allowance keeps two
    sums that agree only because rounding has stalled them from passing a
    tolerance below the sum's precision.  A grid finer than QUADRATURE_MAX_STEPS is
    not tried, and the result is then flagged non-converged.
    """
    steps, h = 40, 1.0
    ends = (f(-20.0) + f(20.0)) / 2
    inner = math.fsum(f(float(k)) for k in range(-19, 20))
    value = ends + inner
    while steps < QUADRATURE_MAX_STEPS:
        inner += math.fsum(f(-20.0 + (k + 0.5) * h) for k in range(steps))
        steps, h = 2 * steps, h / 2
        last, value = value, h * (ends + inner)
        if abs(value - last) <= tol / 2 - ROUNDING_ULPS * math.ulp(value):
            return value, True
    return value, False


def _check_tol(tol: float) -> None:
    """Refuse a tol that the numeric cross-checks cannot honour.  The
    targets are 2^(2m+1) |B_2m| = 4/3, 16/15, 64/21, so tol >= 1 would pass
    a zero integral; and ``_trapezoid`` accepts no sum near a target
    unless tol/2 exceeds its rounding allowance there, so a tol at or below
    twice that allowance at the largest target would only ever be
    inconclusive."""
    if not 0 < tol < 1:
        raise UsageError(f"tol must be positive and below 1, got {tol}")
    least = max(2 * ROUNDING_ULPS
                * math.ulp(2 ** (2 * m + 1) * float(bernoulli_number(2 * m)))
                for m in range(1, DEFAULT_GV_NUMERIC_M + 1))
    if tol <= least:
        raise UsageError(f"tol must exceed {least!r}, {2 * ROUNDING_ULPS} "
                         f"ulps of the largest target, got {tol}")


def grosset_veselov_numeric(m: int, tol: float = DEFAULT_GV_TOL) -> Verdict:
    """Floating-point cross-check of the same integral in its original form.

    Integrates (P_{m+1}(tanh x; -1, 1))^2 over [-20, 20] by the trapezoidal
    rule of ``_trapezoid``.  The integrand is analytic in the strip
    |Im x| < pi/2 and decays like e^(-4|x|), so the rule converges
    exponentially as the step halves (Trefethen and Weideman, SIAM Review
    56, 2014) and the discarded tail is far below any tolerance of
    interest.  Non-convergence of the quadrature is reported as an
    inconclusive verdict, distinct from a failed comparison.  The
    quadrature spends half of ``tol`` and the comparison with the exact
    value the other half.
    """
    if not 1 <= m <= 3:
        raise ValueError(f"the numeric cross-check supports 1 <= m <= 3, got {m}")
    _check_tol(tol)
    params = {"m": m, "tol": tol}
    coeffs = [float(c) for c in build_P(m + 1, _PM1).coeffs]

    def integrand(x: float) -> float:
        u = math.tanh(x)
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * u + c
        return acc * acc

    value, converged = _trapezoid(integrand, tol)
    sign = 1.0 if (m - 1) % 2 == 0 else -1.0
    target = sign * 2 ** (2 * m + 1) * float(bernoulli_number(2 * m))
    if converged and abs(value - target) < tol:
        return Verdict("grosset_veselov_numeric", params, True)
    return Verdict("grosset_veselov_numeric", params, False, m,
                   {"lhs": repr(value), "rhs": repr(target)},
                   inconclusive=not converged)


def _substitution_points(a: Fraction, b: Fraction) -> list:
    """(u, (u-a)/(u-b), u-b) for each sample point u != b, in sample order,
    with u - b as an integer (numerator, denominator) pair: the E and M
    streams of one (a, b) share them."""
    return [(u, (u - a) / (u - b), (u - b).as_integer_ratio())
            for u in SUBSTITUTION_SAMPLES if u != b]


def _substitution_verdicts(family: str, ns: range, params: RiccatiParams,
                           points: list):
    """The substitution_E (``family`` "E") or substitution_M ("M") verdict
    at ``params`` for each n of ns, ascending: in_x(n)((u-a)/(u-b)) ==
    in_u(n + shift)(u) / (u-b)^(n + shift) at the ``_substitution_points``
    of (a, b), with (in_x, in_u, shift) = (E, P, 1) or (M, Q, 0).  The
    params text is formed once.  Both values are integer pairs
    (``Poly._eval_pair``), the power of u-b, an integer pair too, is folded
    into the right side's numerator and denominator, its numerator's sign
    included, and each pair is compared cross-multiplied
    (``_cross_sides``)."""
    in_x, in_u, shift = {"E": (build_E, build_P, 1),
                         "M": (build_M, build_Q, 0)}[family]
    text = _params(r=params.r, a=params.a, b=params.b)
    for n in ns:
        power = n + shift
        x_poly, u_poly = in_x(n), in_u(power, params)

        def pairs():
            for u, x, (diff_num, diff_den) in points:
                rhs_num, rhs_den = u_poly._eval_pair(u)
                yield (None, *_cross_sides(
                    *x_poly._eval_pair(x), rhs_num * diff_den ** power,
                    rhs_den * diff_num ** power))

        yield _scan(f"substitution_{family}", {**text, "n": n}, pairs())


def check_integrality(n: int) -> Verdict:
    """S_n(u;0,1,-1/2) == 2^n * (P_{n+1}(u;0,1) / u), with integer S_n/2^n.

    Three pairs, in order: the division by u is exact (a nonzero remainder
    fails first, as the witness), the two families agree after the 2^n
    rescaling, and every coefficient of S_n/2^n is an integer.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")

    def pairs():
        quotient, rem = divmod(build_P(n + 1, _BASE01), X)
        yield n, rem, _claim(rem, rem.is_zero(), "exact division")
        s = build_S(n, _BASE01_HALF)
        yield n, s, 2 ** n * quotient
        reduced = s * Fraction(1, 2 ** n)
        yield n, reduced, _claim(reduced, reduced._den == 1,
                                 "integer coefficients")

    return _scan("integrality", {"n": n}, pairs())


def check_eulerian_triangle() -> Verdict:
    """Triangle self-consistency: anchor row, recurrence vs explicit sum,
    symmetry, and factorial row sums up to row 12; symmetry up to row 25."""

    def pairs():
        yield 3, eulerian_row(3), (1, 4, 1)
        for n in range(1, 13):
            for k in range(n):
                rec = eulerian(n, k)
                yield n, rec, eulerian_explicit(n, k)
                yield n, rec, eulerian(n, n - k - 1)
            yield n, sum(eulerian_row(n)), math.factorial(n)
        for n in range(13, 26):
            row = eulerian_row(n)
            yield n, row, _claim(row, row == row[::-1], "symmetric row")

    return _scan("triangle_eulerian", {"n_max": 12}, pairs())


def check_macmahon_triangle() -> Verdict:
    """Triangle self-consistency up to row 20: anchor rows, boundary ones,
    symmetry, and each row of the recurrence against the explicit type-B
    sum."""

    def pairs():
        yield (4, (macmahon_row(3), macmahon_row(4)),
               ((1, 6, 1), (1, 23, 23, 1)))
        for n in range(1, 21):
            yield n, macmahon(n, 1), 1
            row = macmahon_row(n)
            yield n, row, _claim(row, row == row[::-1], "symmetric row")
            yield n, row, tuple(macmahon_explicit(n, k) for k in range(1, n + 1))

    return _scan("triangle_macmahon", {"n_max": 20}, pairs())


# ---------------------------------------------------------------------------
# Suites

def _oracle_instances(n_max: int, d=0) -> list[OracleInstance]:
    """The ORACLE_INSTANCES at shift d, with oracles of order n_max: the
    coefficients up to n_max do not depend on the truncation order.  An
    n_max below 1 is refused under that name, before an instance's own
    refusal would name the oracle's order."""
    _upto(n_max)
    return [instance(r, a, b, u0, d=d, order=n_max)
            for r, a, b, u0 in ORACLE_INSTANCES]


def suite_theorem1(n_max: int = DEFAULT_T1_N) -> list[Verdict]:
    return [check_theorem("theorem1", inst)
            for inst in _oracle_instances(n_max)]


def suite_theorem2(n_max: int = DEFAULT_T23_N) -> list[Verdict]:
    out = [check_theorem("theorem2", inst)
           for inst in _oracle_instances(n_max)]
    # v is determined only up to scale; a non-unit v0 exercises that freedom.
    r, a, b, u0 = ORACLE_INSTANCES[0]
    out.append(check_theorem("theorem2", instance(
        r, a, b, u0, v0=Fraction(2, 3), order=n_max)))
    return out


def suite_theorem3(n_max: int = DEFAULT_T23_N) -> list[Verdict]:
    return [check_theorem("theorem3", inst)
            for d in (Fraction(1, 4), Fraction(-1, 2))
            for inst in _oracle_instances(n_max, d)]


def suite_egf(order: int = DEFAULT_EGF_ORDER, u0=Fraction(1, 3)) -> list[Verdict]:
    """The generating-function identities through ``order``, one
    ``_check_egf`` verdict per row of (identity, F_n, (c, d, rate),
    (c', d', rate'), params): (sum F_n t^n/n!) * (c + d e^(rate t)) ==
    c' + d' e^(rate' t).  The closed forms F and H read P and S at u0, in
    (0, 1); a bad order is refused before a bad u0."""
    _upto(order, "order")
    u0 = as_fraction(u0)
    if not 0 < u0 < 1:
        raise UsageError(f"u0 must lie strictly between 0 and 1, got {u0}")
    point, one_minus_x = u0.as_integer_ratio(), -X + 1
    rows = [
        # (sum E_n(x) y^n/n!) * (1 - x e^((1-x)y)) == 1 - x.  Cross-
        # multiplication avoids dividing by 1 - x e^((1-x)y), whose constant
        # term 1 - x is not invertible over polynomial coefficients.
        ("egf_eulerian", build_E, (1, -X, one_minus_x), (one_minus_x, 0, 0),
         {}),
        # (sum A_n(x) y^n/n!) * (x - e^((x-1)y)) == x - 1.
        ("egf_a", build_A, (X, -1, X - 1), (X - 1, 0, 0), {}),
        # (sum M_n(x) y^n/n!) * (1 - x e^(2(1-x)y)) == (1-x) e^((1-x)y).
        # Note the doubled exponent in the multiplier: expanding the
        # companion generating function e^(t/2)/(u + (1-u)e^t) under
        # x = (u-a)/(u-b) leaves the numerator exponent at half the
        # denominator's, and rescaling y to absorb the 2^-n coefficient
        # weights doubles the denominator exponent.
        ("egf_macmahon", build_M, (1, -X, one_minus_x * 2),
         (0, one_minus_x, one_minus_x), {}),
        # (sum P_{n+1}(u0) t^n/n!) * (u0 + (1-u0) e^t) == u0, for a=0, b=1.
        ("closed_form_f",
         lambda n: Fraction(*family_value("P", n + 1, _BASE01, point)),
         (u0, 1 - u0, 1), (u0, 0, 0), {"u0": u0}),
        # (sum S_n(u0)/2^n t^n/n!) * (u0 + (1-u0) e^t) == e^((1/2+d)t) at
        # each shift d; the d = 0 row is the generating function of the Q
        # family itself.
        *(("closed_form_h",
           lambda n, sp=sp: Fraction(*family_value("S", n, sp, point))
           / 2 ** n,
           (u0, 1 - u0, 1), (0, 1, Fraction(1, 2) + sp.d),
           {"u0": u0, "d": sp.d})
          for sp in (RiccatiParams(1, 0, 1, d) for d in EGF_SHIFTS)),
    ]
    return [_check_egf(identity, coeff, order, mult, expected, **params)
            for identity, coeff, mult, expected, params in rows]


def suite_lemma1(n_max: int = DEFAULT_POLY_ID_N) -> list[Verdict]:
    return [check_lemma1(n) for n in _upto(n_max)]


def suite_classical(n_max: int = DEFAULT_POLY_ID_N) -> list[Verdict]:
    return list(_classical_verdicts(_upto(n_max)))


def suite_integrals(n_max: int | None = None,
                    a=None, b=None, d=None) -> list[Verdict]:
    """P/Q/S integral identities.

    With an explicit (a, b) only that pair is exercised (with shift d for S,
    default 0); otherwise the default pairs, including the symmetric
    interval (-1, 1) and a reversed-orientation one.  A given n_max bounds
    every verdict.  Without it, P/Q run to DEFAULT_INTEGRAL_N and S to
    DEFAULT_INTEGRAL_S_N (DEFAULT_INTEGRAL_N with a pair).
    """
    if (a is None) != (b is None):
        raise UsageError("a and b must be given together")
    if d is not None and a is None:
        raise UsageError("d applies only together with a and b")
    explicit = a is not None
    pairs = [(a, b)] if explicit else INTEGRAL_PAIRS
    triples = [(a, b, 0 if d is None else d)] if explicit else INTEGRAL_S_TRIPLES
    if n_max is None:
        n_max = DEFAULT_INTEGRAL_N
        s_n = n_max if explicit else DEFAULT_INTEGRAL_S_N
    else:
        s_n = n_max
    ns = _upto(n_max)
    out = [v for pa, pb in pairs for v in _integral_verdicts("P", ns, pa, pb)]
    out += [v for pa, pb in pairs
            for v in _integral_verdicts("Q", range(n_max + 1), pa, pb)]
    out += [v for pa, pb, pd in triples
            for v in _integral_verdicts("S", _upto(s_n), pa, pb, pd)]
    return out


def suite_grosset_veselov(m_max: int = DEFAULT_GV_M,
                          tol: float = DEFAULT_GV_TOL) -> list[Verdict]:
    _check_tol(tol)
    out = [grosset_veselov_exact(m) for m in _upto(m_max, "m_max")]
    out.extend(grosset_veselov_numeric(m, tol)
               for m in range(1, DEFAULT_GV_NUMERIC_M + 1))
    return out


def suite_relations(n_max: int | None = None) -> list[Verdict]:
    """Triangle self-consistency at fixed rows, and the substitution and
    integrality relations.  A given n_max bounds every relation; without it,
    substitution runs to DEFAULT_RELATION_N and integrality to
    DEFAULT_INTEGRAL_N."""
    if n_max is None:
        sub_n, int_n = DEFAULT_RELATION_N, DEFAULT_INTEGRAL_N
    else:
        sub_n = int_n = n_max
    sub_ns = _upto(sub_n)
    out: list[Verdict] = [
        check_eulerian_triangle(),
        check_macmahon_triangle(),
    ]
    for pa, pb in RELATION_PARAM_PAIRS:
        params = RiccatiParams(Fraction(1), pa, pb)
        points = _substitution_points(params.a, params.b)
        out.extend(_substitution_verdicts("E", sub_ns, params, points))
        out.extend(_substitution_verdicts("M", range(sub_n + 1), params,
                                          points))
    out.extend(check_integrality(n) for n in _upto(int_n))
    return out


#: Suite name -> suite function; its parameters are the run_suite options
#: it honours.  The order is the order in which ``all`` runs the sub-suites.
SUITES = {
    "theorem1": suite_theorem1,
    "theorem2": suite_theorem2,
    "theorem3": suite_theorem3,
    "egf": suite_egf,
    "lemma1": suite_lemma1,
    "classical": suite_classical,
    "integrals": suite_integrals,
    "grosset-veselov": suite_grosset_veselov,
    "relations": suite_relations,
}

_SUB_SUITES = tuple(SUITES)

SUITE_NAMES = ("all", *_SUB_SUITES)


def _suite_all() -> list[Verdict]:
    """Every sub-suite at its defaults, each through run_suite."""
    return [v for sub in _SUB_SUITES for v in run_suite(sub)]


def json_object(value) -> str:
    """The package's one JSON writer: ``json.dumps(value, sort_keys=True)``
    without importing ``json``, for an int, a finite float, a str that JSON
    writes unescaped (printable ASCII without ``"`` or ``\\``), a bool,
    None, and lists of those and dicts of those under such str keys; any
    other value raises ``ValueError``, since its text would be a guess.

    A dict writes its str and int values in place and checks its keys and
    str values together, as one joined str, so a flat dict (a verdict's
    params or witness) takes no call per key or value; only its other
    values recurse.  A str that JSON would escape is then found and
    refused by the str branch."""
    kind = type(value)
    if kind is str:
        if value.isascii() and value.isprintable() \
                and '"' not in value and "\\" not in value:
            return f'"{value}"'
    elif kind is int or kind is float and math.isfinite(value):
        return repr(value)
    elif kind is list:
        return "[" + ", ".join([json_object(v) for v in value]) + "]"
    elif kind is dict and all(type(k) is str for k in value):
        strs, parts = [], []
        for k, v in sorted(value.items()):
            strs.append(k)
            if type(v) is str:
                strs.append(v)
                parts.append(f'"{k}": "{v}"')
            elif type(v) is int:
                parts.append(f'"{k}": {v!r}')
            else:
                parts.append(f'"{k}": {json_object(v)}')
        text = "".join(strs)
        if text.isascii() and text.isprintable() \
                and '"' not in text and "\\" not in text:
            return "{" + ", ".join(parts) + "}"
        for text in strs:
            json_object(text)
    elif kind is bool:
        return "true" if value else "false"
    elif value is None:
        return "null"
    raise ValueError(f"no exact JSON text for {value!r}")


def _verdict_sort_key(v: Verdict) -> tuple[str, str]:
    return (v.identity, v._params_text)


def run_suite(name: str, **options) -> list[Verdict]:
    """Run one named suite (or all of them) and return its verdicts in
    canonical order: by identity, then by the params' JSON text with sorted
    keys (``json_object``), so ``n=10`` sorts before ``n=2``.

    The options are the parameters of the suite functions (n_max, m_max,
    order, u0, a, b, d, tol).  Only the options that are given (not None)
    reach the suite function, so each default lives once, in that function's
    signature.  An option that is not a parameter of the suite function
    raises UsageError; each suite rejects its own bounds below 1.  ``all``
    runs every sub-suite at its defaults, in turn, and takes no options.
    """
    given = {k: v for k, v in options.items() if v is not None}
    suite = _suite_all if name == "all" else SUITES.get(name)
    if suite is None:
        raise UsageError(f"unknown suite {name!r}")
    code = suite.__code__
    takes = code.co_varnames[:code.co_argcount + code.co_kwonlyargcount]
    ignored = [k for k in given if k not in takes]
    if ignored:
        raise UsageError(f"suite {name!r} does not take {', '.join(ignored)}")
    # ``all`` joins sorted sub-suites of disjoint identities: sort by identity.
    key = operator.attrgetter("identity") if name == "all" else _verdict_sort_key
    return sorted(suite(**given), key=key)
