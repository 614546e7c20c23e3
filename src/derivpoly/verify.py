"""Identity-verification engine.

Two independent computation routes exist for everything here: a power-series
ODE oracle that knows nothing about the polynomial families, and the families
themselves built from the triangles.  Each check states its two routes (or
two exact closed forms) as a lazy stream of ``(index, lhs, rhs)`` pairs, and
``_scan`` is the one place where they are compared: it fails at the first
pair that differs, with that pair as the witness, and passes otherwise.  A
property (an exact division, integer coefficients, a symmetric row) is a
pair too, its right side from ``_claim``.  Exact paths carry no tolerance
knobs; the one verdict decided outside ``_scan`` is the floating-point
quadrature cross-check ``grosset_veselov_numeric``.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from itertools import zip_longest
from typing import Iterable, Optional

from .derivative_polys import (
    RiccatiParams,
    build_A,
    build_E,
    build_M,
    build_P,
    build_Q,
    build_S,
)
from .exact import Record, as_fraction
from .polyseries import Poly, Series, X
from .special_numbers import (
    bernoulli_number,
    bernoulli_value,
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
DEFAULT_SYMMETRIC_N = 16
DEFAULT_GV_M = 8
DEFAULT_GV_NUMERIC_M = 3
DEFAULT_GV_TOL = 1e-8
DEFAULT_RELATION_N = 12
DEFAULT_HOMOGENEITY_N = 10

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

HOMOGENEITY_LAMBDAS = (Fraction(2), Fraction(-3), Fraction(1, 5))

RELATION_PARAM_PAIRS = (
    (Fraction(0), Fraction(1)),
    (Fraction(-2, 3), Fraction(3, 2)),
)

EGF_SHIFTS = (Fraction(0), Fraction(1, 4), Fraction(-1, 2))


class Verdict(Record):
    """Outcome of one identity check; a failure always carries a witness."""

    __slots__ = ("identity", "params", "passed", "first_failure", "witness",
                 "inconclusive")
    #: ``params`` and ``witness`` are dicts, so a verdict has no hash.
    __hash__ = None

    def __init__(self, identity: str, params: dict, passed: bool,
                 first_failure: Optional[int] = None,
                 witness: Optional[dict] = None, inconclusive: bool = False):
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "first_failure", first_failure)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "inconclusive", inconclusive)

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
    """Verdict parameters, with every Fraction (also inside a tuple) as ``p/q``."""

    def fmt(v):
        return str(v) if isinstance(v, Fraction) else v

    return {k: [fmt(x) for x in v] if isinstance(v, tuple) else fmt(v)
            for k, v in fields.items()}


def _upto(bound: int, name: str = "n_max") -> range:
    """1..bound, refusing an empty range: a check over nothing is no check."""
    if bound < 1:
        raise ValueError(f"{name} must be >= 1, got {bound}")
    return range(1, bound + 1)


def _scan(identity: str, params: dict, pairs: Iterable[tuple]) -> Verdict:
    """Compare two routes pair by pair: fail at the first ``(index, lhs,
    rhs)`` whose sides differ, with that pair as the witness; pass otherwise.

    ``pairs`` is read lazily, so nothing after the first mismatch is computed.
    """
    for index, lhs, rhs in pairs:
        if lhs != rhs:
            return Verdict(identity, params, False, index,
                           {"lhs": str(lhs), "rhs": str(rhs)})
    return Verdict(identity, params, True)


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
            raise ValueError("v0 must be nonzero")
        if order < 1:
            raise ValueError(f"oracle order must be >= 1, got {order}")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "u0", u0)
        object.__setattr__(self, "v0", v0)
        object.__setattr__(self, "order", order)


def instance(r, a, b, u0, *, d=0, v0=1, order=DEFAULT_ORACLE_ORDER) -> OracleInstance:
    """Convenience constructor from bare scalars."""
    return OracleInstance(RiccatiParams(r, a, b, d), u0, v0, order)


def _scaled_parameters(a: Fraction, b: Fraction, u0: Fraction,
                       d: Optional[Fraction] = None) -> tuple[int, ...]:
    """(q, alpha, beta, mu, eta): one denominator q with a = alpha/q,
    b = beta/q, u0 = mu/q and h = d - (a+b)/2 = eta/q.  Without d, h is 0:
    u never reads d, so its q covers a, b and u0 only."""
    values = (a, b, u0, Fraction(0) if d is None else d - (a + b) / 2)
    q = math.lcm(*(v.denominator for v in values))
    return (q, *(v.numerator * (q // v.denominator) for v in values))


def series_height(r: Fraction, a: Fraction, b: Fraction, u0: Fraction,
                  d: Optional[Fraction] = None) -> int:
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


def _unscaled(nums: list[int], lead: Fraction, r: Fraction, q: int) -> Series:
    """The series with coefficient n equal to lead * r^n * nums[n] / (n! q^n)."""
    num, den, out = lead.numerator, lead.denominator, []
    for n, x in enumerate(nums):
        if n:
            num *= r.numerator
            den *= r.denominator * n * q
        out.append(Fraction(num * x, den))
    return Series(out)


def riccati_series(inst: OracleInstance) -> Series:
    """Taylor coefficients of u at 0 from u' = r(u-a)(u-b), u(0) = u0.

    The recurrence (n+1) c_{n+1} = r * [z^n]((u-a)(u-b)) runs on ints: with
    a, b, u0 over one denominator q, c_n = r^n x_n / (n! q^(n+1)) for the
    integers x_n of ``_riccati_numerators``, and each c_n is one ``Fraction``
    built at the end.  It never consults the polynomial families it is used
    to check.
    """
    p = inst.params
    q, alpha, beta, mu, _ = _scaled_parameters(p.a, p.b, inst.u0)
    return _unscaled(_riccati_numerators(alpha, beta, mu, inst.order),
                     Fraction(1, q), p.r, q)


def _v_numerators(alpha: int, beta: int, mu: int, eta: int,
                  order: int) -> list[int]:
    """y_0..y_order of the scaled v series, on ints:
    y_n = sum_k C(n,k) (eta+alpha)^(n-k) x'_k, where x'_0 = mu - beta and
    x'_k = x_k of ``_riccati_numerators`` for k >= 1; y_n = (eta+beta)^n
    if mu = beta.

    The sum is one Pascal pass of additions and small-int products, written
    out here rather than taken from ``_exp_transform`` so that a fault in
    that transform stays off theorems 2 and 3.
    """
    if mu == beta:
        return [(eta + beta) ** n for n in range(order + 1)]
    rate = eta + alpha
    row = _riccati_numerators(alpha, beta, mu, order)
    row[0] = mu - beta
    y = []
    while row:
        y.append(row[0])
        row = [s + rate * t for t, s in zip(row, row[1:])]
    return y


def v_series(inst: OracleInstance) -> Series:
    """Taylor coefficients of v from v' = r v (u - (a+b)/2 + d), v(0) = v0.

    By the first integral, from the integers x_n of ``riccati_series``: in
    s = r z / q the scaled X = q u obeys X' = (X - alpha)(X - beta), so
    (X - beta)'/(X - beta) = X - alpha, while v'/v = X + eta with h = eta/q.
    Hence v = v0 e^((eta+alpha) s) (X - beta)/(mu - beta), that is
    w_n = v0 r^n y_n / ((mu - beta) n! q^n) for the integers y_n of
    ``_v_numerators``; 1/(mu - beta) goes into the lead, so no integer is
    divided.  If mu = beta, u is constant and the lead is v0.
    """
    p = inst.params
    q, alpha, beta, mu, eta = _scaled_parameters(p.a, p.b, inst.u0, p.d)
    lead = inst.v0 if mu == beta else inst.v0 / (mu - beta)
    return _unscaled(_v_numerators(alpha, beta, mu, eta, inst.order),
                     lead, p.r, q)


def _check_oracle(identity: str, inst: OracleInstance, oracle,
                  start: Fraction, ratio: Fraction, family, **extra) -> Verdict:
    """n! * [z^n]oracle(inst) == start * ratio^n * family(n)(u0), exactly,
    for 1 <= n <= the oracle order (reported as ``n_max``).

    The shared comparison of theorems 1-3: the left side comes from the ODE
    oracle alone, the right side from a triangle-built polynomial family.
    The factor start * ratio^n is stepped by one product per n.
    """
    p = inst.params
    params = _params(r=p.r, a=p.a, b=p.b, u0=inst.u0,
                     n_max=inst.order, **extra)
    c = oracle(inst).coeffs

    def pairs():
        scale = start
        for n in range(1, inst.order + 1):
            scale *= ratio
            yield n, math.factorial(n) * c[n], scale * family(n).eval(inst.u0)

    return _scan(identity, params, pairs())


def check_theorem1(inst: OracleInstance) -> Verdict:
    """n! * [z^n]u == r^n * P_{n+1}(u0), exactly, for 1 <= n <= order."""
    p = inst.params
    return _check_oracle("theorem1", inst, riccati_series, Fraction(1),
                         p.r, lambda n: build_P(n + 1, p))


def check_theorem2(inst: OracleInstance) -> Verdict:
    """n! * [z^n]v == v0 * (r/2)^n * Q_n(u0) for the unshifted case d = 0."""
    if inst.params.d != 0:
        raise ValueError("the Q-family check applies to d = 0 instances")
    p = inst.params
    return _check_oracle("theorem2", inst, v_series, inst.v0,
                         p.r / 2, lambda n: build_Q(n, p), v0=inst.v0)


def check_theorem3(inst: OracleInstance) -> Verdict:
    """n! * [z^n]v == v0 * (r/2)^n * S_n(u0) for any shift d."""
    return _check_oracle("theorem3", inst, v_series, inst.v0,
                         inst.params.r / 2,
                         lambda n: build_S(n, inst.params),
                         d=inst.params.d, v0=inst.v0)


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
    order N >= 1, where F_n is ``coeff(n)``, ``mult`` is (c, d, rate) and
    ``expected`` is (c', d', rate').

    Each generating function checked here is a Moebius function of one
    exponential, like the Riccati solution itself, so cross-multiplying by
    its denominator leaves one such triple on each side and no division.
    Coefficient n of the left side is (c F_n + d g_n)/n!, with the binomial
    sum g_n = sum_k C(n,k) rate^(n-k) F_k from ``_exp_transform`` (Pascal's
    rule); coefficient n of the right side is (c' [n = 0] + d' rate'^n)/n!.
    The running power rate'^n and the running factorial n! each take one
    product per n.  Coefficient n reads F_0..F_n only, so every coefficient
    0..N is exact evidence.  If any datum is a Poly, both sides are compared
    and printed as Poly, a zero side as ``[]``.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    (c, d, rate), (c1, d1, rate1) = mult, expected
    fs = [coeff(n) for n in range(order + 1)]
    gs = _exp_transform(fs, rate)
    if any(isinstance(v, Poly) for v in (*fs, *mult, *expected)):
        side = Poly._coerce
    else:
        side = Fraction

    def pairs():
        power, fact = 1, 1
        yield 0, side(c * fs[0] + d * gs[0]), side(c1 + d1)
        for n in range(1, order + 1):
            power, fact = power * rate1, fact * n
            inverse = Fraction(1, fact)
            yield (n, side((c * fs[n] + d * gs[n]) * inverse),
                   side(d1 * power * inverse))

    return _scan(identity, _params(**params, order=order), pairs())


_ONE_MINUS_X = Poly((1, -1))


def check_egf_eulerian(order: int = DEFAULT_EGF_ORDER) -> Verdict:
    """(sum E_n(x) y^n/n!) * (1 - x e^((1-x)y)) == 1 - x, cross-multiplied.

    Cross-multiplication avoids dividing by 1 - x e^((1-x)y), whose constant
    term 1 - x is not invertible over polynomial coefficients.
    """
    return _check_egf("egf_eulerian", build_E, order,
                      (1, -X, _ONE_MINUS_X), (_ONE_MINUS_X, 0, 0))


def check_egf_A(order: int = DEFAULT_EGF_ORDER) -> Verdict:
    """(sum A_n(x) y^n/n!) * (x - e^((x-1)y)) == x - 1, cross-multiplied."""
    return _check_egf("egf_a", build_A, order,
                      (X, -1, X - 1), (X - 1, 0, 0))


def check_egf_macmahon(order: int = DEFAULT_EGF_ORDER) -> Verdict:
    """(sum M_n(x) y^n/n!) * (1 - x e^(2(1-x)y)) == (1-x) e^((1-x)y).

    Note the doubled exponent in the multiplier: expanding the companion
    generating function e^(t/2)/(u + (1-u)e^t) under x = (u-a)/(u-b) leaves
    the numerator exponent at half the denominator's, and rescaling y to
    absorb the 2^-n coefficient weights doubles the denominator exponent.
    """
    return _check_egf("egf_macmahon", build_M, order,
                      (1, -X, _ONE_MINUS_X * 2), (0, _ONE_MINUS_X, _ONE_MINUS_X))


def check_egf_macmahon_halved(order: int = DEFAULT_EGF_ORDER) -> Verdict:
    """(sum 2^-n M_n(x) y^n/n!) * (1 - x e^((1-x)y)) == (1-x) e^((1-x)y/2).

    This is the direct substituted form (same multiplier as the Eulerian
    check); the unhalved variant above is this one with y doubled.
    """
    return _check_egf("egf_macmahon_halved",
                      lambda n: build_M(n) * Fraction(1, 2 ** n), order,
                      (1, -X, _ONE_MINUS_X),
                      (0, _ONE_MINUS_X, _ONE_MINUS_X * Fraction(1, 2)))


_BASE01 = RiccatiParams(Fraction(1), Fraction(0), Fraction(1))


def _check_u0_open_unit(u0: Fraction) -> Fraction:
    u0 = as_fraction(u0)
    if not 0 < u0 < 1:
        raise ValueError(f"u0 must lie strictly between 0 and 1, got {u0}")
    return u0


def check_F_closed_form(u0, order: int = DEFAULT_EGF_ORDER) -> Verdict:
    """(sum P_{n+1}(u0) t^n/n!) * (u0 + (1-u0) e^t) == u0, for a=0, b=1."""
    u0 = _check_u0_open_unit(u0)
    return _check_egf("closed_form_f",
                      lambda n: build_P(n + 1, _BASE01).eval(u0), order,
                      (u0, 1 - u0, 1), (u0, 0, 0), u0=u0)


def check_H_closed_form(u0, d, order: int = DEFAULT_EGF_ORDER) -> Verdict:
    """(sum S_n(u0)/2^n t^n/n!) * (u0 + (1-u0) e^t) == e^((1/2+d)t).

    The d = 0 case is the generating function of the Q family itself.
    """
    u0 = _check_u0_open_unit(u0)
    sp = RiccatiParams(1, 0, 1, d)
    return _check_egf("closed_form_h",
                      lambda n: build_S(n, sp).eval(u0) * Fraction(1, 2 ** n),
                      order, (u0, 1 - u0, 1), (0, 1, Fraction(1, 2) + sp.d),
                      u0=u0, d=sp.d)


def check_lemma1(n: int) -> Verdict:
    """P_{n+1}(u;0,1) == (u-1) * sum_{k<n} C(n,k) P_{k+1}(u;0,1), exactly."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    lhs = build_P(n + 1, _BASE01)
    acc = Poly._combination([math.comb(n, k) for k in range(n)],
                            [build_P(k + 1, _BASE01) for k in range(n)], 1)
    return _scan("lemma1", {"n": n}, [(None, lhs, (X - 1) * acc)])


def check_classical(n: int) -> Verdict:
    """F_n == sum_{k<n} C(n,k) F_k (x-1)^(n-1-k) for the Eulerian polynomials
    F = A, and F = E with E_1 standing in for E_0, summed by Horner in x-1
    on the integer coefficient lists of the triangle rows.

    The sides are compared as labelled text, the witness; a Poly's text is
    canonical, so equal texts mean equal polynomials.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")

    def convolution(row) -> Poly:
        acc = list(row(0))
        for k in range(1, n):
            c = math.comb(n, k)
            acc = [s - t + c * f for s, t, f in
                   zip_longest([0, *acc], [*acc, 0], row(k), fillvalue=0)]
        return Poly._over(acc, 1)

    families = (("E", build_E, lambda k: (0, *eulerian_row(max(k, 1)))),
                ("A", build_A, lambda k: eulerian_row(k) if k else (1,)))
    return _scan("classical", {"n": n}, (
        (None, f"{name}: {build(n)}", f"{name}: {convolution(row)}")
        for name, build, row in families))


def check_integral_P(n: int, a, b) -> Verdict:
    """integral_a^b P_n du == -(b-a)^(n+1) * B_n, exactly."""
    a, b = as_fraction(a), as_fraction(b)
    lhs = build_P(n, RiccatiParams(Fraction(1), a, b)).definite_integral(a, b)
    rhs = -((b - a) ** (n + 1)) * bernoulli_number(n)
    return _scan("integral_P", _params(n=n, a=a, b=b), [(n, lhs, rhs)])


def check_integral_Q(n: int, a, b) -> Verdict:
    """integral_a^b Q_n du == 2^n * B_n(1/2) * (b-a)^(n+1), exactly."""
    a, b = as_fraction(a), as_fraction(b)
    lhs = build_Q(n, RiccatiParams(Fraction(1), a, b)).definite_integral(a, b)
    rhs = 2 ** n * bernoulli_value(n, Fraction(1, 2)) * (b - a) ** (n + 1)
    return _scan("integral_Q", _params(n=n, a=a, b=b), [(n, lhs, rhs)])


def check_integral_S(n: int, a, b, d) -> Verdict:
    """integral_a^b S_n du == 2^n (b-a)^(n+1) B_n(1/2 + d/(b-a)), exactly."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    sp = RiccatiParams(1, a, b, d)
    a, b, d = sp.a, sp.b, sp.d
    lhs = build_S(n, sp).definite_integral(a, b)
    rhs = 2 ** n * (b - a) ** (n + 1) * bernoulli_value(
        n, Fraction(1, 2) + d / (b - a))
    return _scan("integral_S", _params(n=n, a=a, b=b, d=d), [(n, lhs, rhs)])


_PM1 = RiccatiParams(Fraction(1), Fraction(-1), Fraction(1))
_ONE_MINUS_U2 = Poly((1, 0, -1))


def check_integral_P_symmetric(n: int) -> Verdict:
    """(-1)^(n-1) * integral_{-1}^{1} P_n(u;-1,1) du == (-1)^n 2^(n+1) B_n."""
    sign = -1 if n % 2 == 0 else 1
    lhs = sign * build_P(n, _PM1).definite_integral(-1, 1)
    rhs = (-sign) * 2 ** (n + 1) * bernoulli_number(n)
    return _scan("integral_P_symmetric", {"n": n}, [(n, lhs, rhs)])


def grosset_veselov_exact(m: int) -> Verdict:
    """Even Bernoulli numbers from the squared P family, fully exactly.

    P_{m+1}(u;-1,1) carries both factors u+1 and u-1, so its square is
    divisible by 1-u^2; the quotient is the tanh-substituted integrand of
    the sech^2-derivative integral, and
    B_{2m} == (-1)^(m-1) 2^-(2m+1) * integral_{-1}^{1} quotient du.
    The first pair claims the division exact: a nonzero remainder fails it,
    with the remainder as the witness, before the integral is formed.  The
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
        lhs = sign * Fraction(1, 2 ** (2 * m + 1)) * quotient.definite_integral(-1, 1)
        yield m, lhs, bernoulli_number(2 * m)
        odd = Poly._over([c if k % 2 else 0
                          for k, c in enumerate(quotient._coeffs)], quotient._den)
        yield m, odd, Poly()

    return _scan("grosset_veselov_exact", {"m": m}, pairs())


#: The finest grid of one quadrature: 40 unit steps halved 12 times.
QUADRATURE_MAX_STEPS = 40 * 2 ** 12


def _trapezoid(f, tol: float) -> tuple[float, bool]:
    """Trapezoidal rule for f over [-20, 20]; returns (last sum, converged).

    Starts at 40 unit steps, and each round adds the midpoints, halving the
    step, until two successive sums differ by at most tol/2 less a rounding
    allowance of 8 ulps of the sum.  The allowance keeps two sums that
    agree only because rounding has stalled them from passing a tolerance
    below the sum's precision.  A grid finer than QUADRATURE_MAX_STEPS is
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
        if abs(value - last) <= tol / 2 - 8 * math.ulp(value):
            return value, True
    return value, False


def _check_tol(tol: float) -> None:
    # The targets are 4/3, 16/15, 64/21: tol >= 1 would pass a zero integral.
    if not 0 < tol < 1:
        raise ValueError(f"tol must be positive and below 1, got {tol}")


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


@functools.cache
def _substitution_points(a: Fraction, b: Fraction) -> tuple:
    """(u, (u-a)/(u-b), [1, u-b, (u-b)^2, ...]) for each sample point
    u != b, in sample order; the substitution checks of one (a, b) all share
    them, and each list of powers grows by one product per new power."""
    return tuple((u, (u - a) / (u - b), [Fraction(1), u - b])
                 for u in SUBSTITUTION_SAMPLES if u != b)


def _check_substitution(identity: str, n: int, params: RiccatiParams,
                        in_x: Poly, in_u: Poly, power: int) -> Verdict:
    """in_x((u-a)/(u-b)) == in_u(u) / (u-b)^power at sample points u != b."""
    points = _substitution_points(params.a, params.b)
    for _, _, powers in points:
        while len(powers) <= power:
            powers.append(powers[-1] * powers[1])
    return _scan(identity, _params(r=params.r, a=params.a, b=params.b, n=n), (
        (None, in_x.eval(x), in_u.eval(u) / powers[power])
        for u, x, powers in points))


def check_substitution_E(n: int, params: RiccatiParams) -> Verdict:
    """E_n((u-a)/(u-b)) == P_{n+1}(u) / (u-b)^(n+1) at sample points u != b."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return _check_substitution("substitution_E", n, params, build_E(n),
                               build_P(n + 1, params), n + 1)


def check_substitution_M(n: int, params: RiccatiParams) -> Verdict:
    """M_n((u-a)/(u-b)) == Q_n(u) / (u-b)^n at sample points u != b."""
    return _check_substitution("substitution_M", n, params, build_M(n),
                               build_Q(n, params), n)


def check_homogeneity_Q(n: int, params: RiccatiParams) -> Verdict:
    """Q_n(lam*u; lam*a, lam*b) == lam^n * Q_n(u; a, b) at sample points.

    Q_n(u) is evaluated once per sample and lam^n formed once per lam; the
    pairs run over lam, then over the samples.
    """
    a, b = params.a, params.b
    q = build_Q(n, params)
    values = [q.eval(u) for u in SUBSTITUTION_SAMPLES]

    def pairs():
        for lam in HOMOGENEITY_LAMBDAS:
            q_lam = build_Q(n, RiccatiParams(params.r, lam * a, lam * b))
            lam_n = lam ** n
            for u, value in zip(SUBSTITUTION_SAMPLES, values):
                yield None, q_lam.eval(lam * u), lam_n * value

    return _scan("homogeneity_Q",
                 _params(r=params.r, a=a, b=b, n=n, lambdas=HOMOGENEITY_LAMBDAS),
                 pairs())


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
        s = build_S(n, RiccatiParams(1, 0, 1, Fraction(-1, 2)))
        yield n, s, 2 ** n * quotient
        reduced = s * Fraction(1, 2 ** n)
        yield n, reduced, _claim(reduced, reduced._den == 1,
                                 "integer coefficients")

    return _scan("integrality", {"n": n}, pairs())


def check_eulerian_triangle(n_max: int = DEFAULT_T23_N) -> Verdict:
    """Triangle self-consistency: anchor row, recurrence vs explicit sum,
    symmetry, and factorial row sums up to n_max; symmetry up to row 25."""
    if n_max < 3:
        raise ValueError(f"need n_max >= 3, got {n_max}")

    def pairs():
        yield 3, eulerian_row(3), (1, 4, 1)
        for n in range(1, n_max + 1):
            for k in range(n):
                rec = eulerian(n, k)
                yield n, rec, eulerian_explicit(n, k)
                yield n, rec, eulerian(n, n - k - 1)
            yield n, sum(eulerian_row(n)), math.factorial(n)
        for n in range(n_max + 1, 26):
            row = eulerian_row(n)
            yield n, row, _claim(row, row == row[::-1], "symmetric row")

    return _scan("triangle_eulerian", {"n_max": n_max}, pairs())


def check_macmahon_triangle(n_max: int = 20) -> Verdict:
    """Triangle self-consistency: anchor rows, boundary ones, symmetry, and
    each row of the recurrence against the explicit type-B sum."""
    if n_max < 4:
        raise ValueError(f"need n_max >= 4, got {n_max}")

    def pairs():
        yield (4, (macmahon_row(3), macmahon_row(4)),
               ((1, 6, 1), (1, 23, 23, 1)))
        for n in range(1, n_max + 1):
            yield n, macmahon(n, 1), 1
            row = macmahon_row(n)
            yield n, row, _claim(row, row == row[::-1], "symmetric row")
            yield n, row, tuple(macmahon_explicit(n, k) for k in range(1, n + 1))

    return _scan("triangle_macmahon", {"n_max": n_max}, pairs())


# ---------------------------------------------------------------------------
# Suites

# The theorem suites build their oracles at order n_max: the coefficients
# up to n_max do not depend on the truncation order.

def suite_theorem1(n_max: int = DEFAULT_T1_N) -> list[Verdict]:
    return [check_theorem1(instance(r, a, b, u0, order=n_max))
            for r, a, b, u0 in ORACLE_INSTANCES]


def suite_theorem2(n_max: int = DEFAULT_T23_N) -> list[Verdict]:
    out = [check_theorem2(instance(r, a, b, u0, order=n_max))
           for r, a, b, u0 in ORACLE_INSTANCES]
    # v is determined only up to scale; a non-unit v0 exercises that freedom.
    r, a, b, u0 = ORACLE_INSTANCES[0]
    out.append(check_theorem2(
        instance(r, a, b, u0, v0=Fraction(2, 3), order=n_max)))
    return out


def suite_theorem3(n_max: int = DEFAULT_T23_N) -> list[Verdict]:
    return [check_theorem3(instance(r, a, b, u0, d=d, order=n_max))
            for d in (Fraction(1, 4), Fraction(-1, 2))
            for r, a, b, u0 in ORACLE_INSTANCES]


def suite_egf(order: int = DEFAULT_EGF_ORDER, u0=Fraction(1, 3)) -> list[Verdict]:
    out = [
        check_egf_eulerian(order),
        check_egf_A(order),
        check_egf_macmahon(order),
        check_egf_macmahon_halved(order),
        check_F_closed_form(u0, order),
    ]
    out.extend(check_H_closed_form(u0, d, order) for d in EGF_SHIFTS)
    return out


def suite_lemma1(n_max: int = DEFAULT_POLY_ID_N) -> list[Verdict]:
    return [check_lemma1(n) for n in _upto(n_max)]


def suite_classical(n_max: int = DEFAULT_POLY_ID_N) -> list[Verdict]:
    return [check_classical(n) for n in _upto(n_max)]


def suite_integrals(n_max: Optional[int] = None,
                    a=None, b=None, d=None) -> list[Verdict]:
    """P/Q/S integral identities.

    With an explicit (a, b) only that pair is exercised (and only P/Q/S, with
    shift d, default 0); otherwise the default pairs, including a
    reversed-orientation one, plus the symmetric-interval reduction on
    (-1, 1).  A given n_max bounds every verdict.  Without it, P/Q run to
    DEFAULT_INTEGRAL_N, S to DEFAULT_INTEGRAL_S_N (DEFAULT_INTEGRAL_N with a
    pair) and the symmetric reduction to DEFAULT_SYMMETRIC_N.
    """
    if (a is None) != (b is None):
        raise ValueError("a and b must be given together")
    if d is not None and a is None:
        raise ValueError("d applies only together with a and b")
    explicit = a is not None
    pairs = [(a, b)] if explicit else INTEGRAL_PAIRS
    triples = [(a, b, 0 if d is None else d)] if explicit else INTEGRAL_S_TRIPLES
    if n_max is None:
        n_max = DEFAULT_INTEGRAL_N
        s_n = n_max if explicit else DEFAULT_INTEGRAL_S_N
        sym_n = DEFAULT_SYMMETRIC_N
    else:
        s_n = sym_n = n_max
    ns = _upto(n_max)
    out = [check_integral_P(n, pa, pb) for pa, pb in pairs for n in ns]
    out += [check_integral_Q(n, pa, pb) for pa, pb in pairs for n in (0, *ns)]
    out += [check_integral_S(n, pa, pb, pd)
            for pa, pb, pd in triples for n in _upto(s_n)]
    if not explicit:
        out += [check_integral_P_symmetric(n) for n in _upto(sym_n)]
    return out


def suite_grosset_veselov(m_max: int = DEFAULT_GV_M,
                          tol: float = DEFAULT_GV_TOL) -> list[Verdict]:
    _check_tol(tol)
    out = [grosset_veselov_exact(m) for m in _upto(m_max, "m_max")]
    out.extend(grosset_veselov_numeric(m, tol)
               for m in range(1, DEFAULT_GV_NUMERIC_M + 1))
    return out


def suite_relations(n_max: Optional[int] = None) -> list[Verdict]:
    """Triangle self-consistency at fixed rows, and the substitution,
    homogeneity and integrality relations.  A given n_max bounds every
    relation; without it, substitution runs to DEFAULT_RELATION_N,
    homogeneity to DEFAULT_HOMOGENEITY_N and integrality to
    DEFAULT_INTEGRAL_N."""
    if n_max is None:
        sub_n, hom_n, int_n = (DEFAULT_RELATION_N, DEFAULT_HOMOGENEITY_N,
                               DEFAULT_INTEGRAL_N)
    else:
        sub_n = hom_n = int_n = n_max
    sub_ns = _upto(sub_n)
    out: list[Verdict] = [
        check_eulerian_triangle(DEFAULT_T23_N),
        check_macmahon_triangle(20),
    ]
    for pa, pb in RELATION_PARAM_PAIRS:
        params = RiccatiParams(Fraction(1), pa, pb)
        out.extend(check_substitution_E(n, params) for n in sub_ns)
        out.extend(check_substitution_M(n, params) for n in (0, *sub_ns))
        out.extend(check_homogeneity_Q(n, params) for n in _upto(hom_n))
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


def _verdict_sort_key(v: Verdict) -> tuple[str, str]:
    import json  # here, not at the top: table and series commands never sort
    return (v.identity, json.dumps(v.params, sort_keys=True, default=str))


def run_suite(name: str, **options) -> list[Verdict]:
    """Run one named suite (or all of them) and return sorted verdicts.

    The options are the parameters of the suite functions (n_max, m_max,
    order, u0, a, b, d, tol).  Only the options that are given (not None)
    reach the suite function, so each default lives once, in that function's
    signature.  An option that is not a parameter of the suite function
    raises ValueError; each suite rejects its own bounds below 1.  ``all``
    runs every sub-suite at its defaults, in turn, and takes no options.
    """
    given = {k: v for k, v in options.items() if v is not None}
    suite = _suite_all if name == "all" else SUITES.get(name)
    if suite is None:
        raise ValueError(f"unknown suite {name!r}")
    code = suite.__code__
    takes = code.co_varnames[:code.co_argcount + code.co_kwonlyargcount]
    ignored = [k for k in given if k not in takes]
    if ignored:
        raise ValueError(f"suite {name!r} does not take {', '.join(ignored)}")
    # ``all`` joins sorted sub-suites of disjoint identities: sort by identity.
    key = operator.attrgetter("identity") if name == "all" else _verdict_sort_key
    return sorted(suite(**given), key=key)
