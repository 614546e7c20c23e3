"""Eulerian and MacMahon triangles, Bernoulli numbers and polynomials.

Each triangle is a module-level singleton that memoizes rows 1 ..
``TRIANGLE_MEMO_ROWS``; a row above them is stepped on from the triangle's
running row and not stored, so a large row costs the memory of a few rows,
not of the whole triangle, and ``Triangle.rows`` walks a table storing
nothing.  Lookups outside the triangular support return 0 because the
recurrences implicitly use zero boundary values.  Bernoulli numbers follow
the convention fixed by the generating function t*e^(w*t)/(e^t - 1), so
B_1 = -1/2.  All caches here are plain module state for a single thread,
with no locks.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from fractions import Fraction

from .exact import UsageError
from .polyseries import Poly

EULERIAN = "eulerian"
MACMAHON = "macmahon"

#: The largest ``n_max`` that ``table_lines`` (the ``table --n`` option) takes
#: per kind: at the limit, ``derivpoly table`` builds and prints its table in
#: about 10 s (eulerian 900 and macmahon 850 in 8.1-8.5 s with the half-row
#: conversion of ``_row_strings``, two runs each on a 2-vCPU Xeon, CPython
#: 3.11.7).
TABLE_LIMITS = {"eulerian": 900, "macmahon": 850, "bernoulli": 4000,
                "bernoulli-poly": 900}
TABLE_KINDS = tuple(TABLE_LIMITS)


def _eulerian_next_row(n: int, prev: tuple[int, ...]) -> list[int]:
    """Row n (entries k = 0..n-1) from row n-1 via the ascent recurrence."""
    return [(k + 1) * left + (n - k) * right
            for k, left, right in zip(range(n), (*prev, 0), (0, *prev))]


def _macmahon_next_row(n: int, prev: tuple[int, ...], p=0, e=1) -> list[int]:
    """Row n (entries k = 1..n) from row n-1 of the MacMahon triangle shifted
    by c = p/e (e > 0), times e^(n-1); zero outside 1 <= k <= n-1.  Entry k
    weighs its parents by e(2k-1) + p and e(2n-2k+1) - p."""
    return [x * left + y * right for x, y, left, right in zip(
        range(e + p, 2 * n * e + p, 2 * e),
        range((2 * n - 1) * e - p, -e - p, -2 * e), (*prev, 0), (0, *prev))]


#: The rows each ``Triangle`` stores: 1 .. 161.  Row 161 is the largest that
#: a ``verify`` command reads at the sizes of the large-n timings (MacMahon
#: row 161 at ``integrals --n-max 160``, Eulerian row 160 at ``theorem1`` and
#: ``grosset-veselov`` at 160), so ``verify`` never steps a row twice.  Kept
#: whole, the rows up to n take memory growing as n^3: 0.75 GB for
#: ``poly E --n 1300``.
TRIANGLE_MEMO_ROWS = 161


class Triangle:
    """Triangular array of exact integers, memoized up to a bound.

    Row 1 is [1] for both kinds.  A MacMahon triangle steps at the shift
    c = p/e whose key ``shift`` is (p, e), in lowest terms with e > 0, as
    ``RiccatiParams`` holds S's shift, and its row n is the shifted row
    times e^(n-1), all integers; the zero shift (0, 1) steps as no shift,
    by the recurrence's defaults.  ``row(n)`` stores rows 1 ..
    ``TRIANGLE_MEMO_ROWS`` on first use.  Above them it steps on from the
    running row, the last row it returned above the bound, when that is not
    past n, and from the last stored row otherwise; it keeps the new row as
    the running row and stores nothing else.  So a climb one row at a time
    steps each row once, and the triangle holds at most the stored rows and
    one more.  ``rows(n_max)`` walks rows 1 .. n_max for a table.  Not
    thread-safe.
    """

    def __init__(self, kind: str, shift: tuple[int, ...] = ()):
        if kind not in (EULERIAN, MACMAHON):
            raise ValueError(f"unknown triangle kind {kind!r}")
        self.kind = kind
        self._shift = shift if shift and shift[0] else ()
        self._rows: list[tuple[int, ...]] = [(1,)]
        #: (n, row n) of the running row; n = 0 before any row above the bound.
        self._running: tuple[int, tuple[int, ...]] = (0, ())

    def _step(self, n: int, prev: tuple[int, ...]) -> tuple[int, ...]:
        """Row n from row n - 1, by the recurrence of the triangle's kind as
        the module holds it when called (the fault fixtures patch it)."""
        step = _eulerian_next_row if self.kind == EULERIAN else _macmahon_next_row
        return tuple(step(n, prev, *self._shift))

    def row(self, n: int) -> tuple[int, ...]:
        if n < 1:
            raise ValueError(f"triangle rows start at 1, got {n}")
        rows = self._rows
        if n <= len(rows):
            return rows[n - 1]
        while len(rows) < min(n, TRIANGLE_MEMO_ROWS):
            rows.append(self._step(len(rows) + 1, rows[-1]))
        if n <= TRIANGLE_MEMO_ROWS:
            return rows[n - 1]
        m, row = self._running
        if not 0 < m <= n:
            m, row = len(rows), rows[-1]
        for m in range(m + 1, n + 1):
            row = self._step(m, row)
        self._running = n, row
        return row

    def rows(self, n_max: int) -> Iterator[tuple[int, ...]]:
        """Rows 1 .. n_max (n_max >= 1) in order: the stored ones, then each
        further row stepped from the one before it, stored nowhere and
        dropped by the walk once the next one is made."""
        rows = self._rows[:n_max]
        yield from rows
        row = rows[-1]
        for m in range(len(rows) + 1, n_max + 1):
            row = self._step(m, row)
            yield row


_EULERIAN_TRIANGLE = Triangle(EULERIAN)
#: The MacMahon triangles per shift c = p/e, keyed on (p, e): (0, 1) is the
#: triangle of ``macmahon_row``, of Q and M, and any other key holds S's rows.
_MACMAHON_TRIANGLES: dict[tuple[int, int], Triangle] = {}
_BERNOULLI: list[Fraction] = [Fraction(1)]
#: B_n(x) per n, for ``_bernoulli_value_pair``.
_BERNOULLI_POLYS: dict[int, Poly] = {}
#: The P, Q and S members of ``derivative_polys._member``, built from the
#: triangles and dropped with their rows, keyed on (letter, n, q, na, nb),
#: with S's shift key (p, e) appended for S: a and b over their one
#: denominator q, na = q a and nb = q b, as ``_family_row`` reads them.  It
#: pays: in-process ``verify all`` takes 1.11-1.17x the CPU time without
#: the P/Q/S memo, median 1.13x (11 of 12 rounds, each the best of 9 cold
#: runs per setting; 2-vCPU host, CPython 3.11.7).
FAMILY_CACHE: dict[tuple, Poly] = {}


def reset_caches() -> None:
    """Drop all memoized rows, values and polynomials: the triangle rows at
    every shift, the Bernoulli numbers, the Bernoulli polynomials of
    ``bernoulli_value`` and the P/Q/S family members.

    A run that must start cold calls it first: each fault of the test
    suite's fault table, around its patch, and each in-process command of
    the benchmark.  ``verify`` keeps no memo of its own, so these are all
    the memos a run has.
    """
    global _EULERIAN_TRIANGLE, _BERNOULLI
    _EULERIAN_TRIANGLE = Triangle(EULERIAN)
    _MACMAHON_TRIANGLES.clear()
    _BERNOULLI = [Fraction(1)]
    _BERNOULLI_POLYS.clear()
    FAMILY_CACHE.clear()


def eulerian(n: int, k: int) -> int:
    """Number of permutations of {1..n} with exactly k ascents (n >= 1)."""
    row = eulerian_row(n)
    return row[k] if 0 <= k <= n - 1 else 0


def eulerian_row(n: int) -> tuple[int, ...]:
    return _EULERIAN_TRIANGLE.row(n)


def eulerian_explicit(n: int, k: int) -> int:
    """Alternating binomial sum for the ascent count.

    Independent of the recurrence route above; the two must agree.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not 0 <= k <= n - 1:
        raise ValueError(f"k out of range for row {n}: {k}")
    total = 0
    for j in range(k + 1):
        term = math.comb(n + 1, j) * (k - j + 1) ** n
        total += -term if j % 2 else term
    return total


def macmahon(n: int, k: int) -> int:
    """MacMahon number at (n, k); support is 1 <= k <= n with M(n,1) = 1."""
    row = macmahon_row(n)
    return row[k - 1] if 1 <= k <= n else 0


def _macmahon_triangle(key=(0, 1)) -> Triangle:
    """The memoized MacMahon triangle at the shift c = p/e whose key is
    (p, e), in lowest terms with e > 0, made on first use."""
    triangle = _MACMAHON_TRIANGLES.get(key)
    if triangle is None:
        triangle = _MACMAHON_TRIANGLES[key] = Triangle(MACMAHON, key)
    return triangle


def macmahon_row(n: int) -> tuple[int, ...]:
    """Row n of the MacMahon triangle."""
    return _macmahon_triangle().row(n)


def macmahon_explicit(n: int, k: int) -> int:
    """The type-B alternating sum
    M(n,k) = sum_j (-1)^(k-1-j) C(n, k-1-j) (2j+1)^(n-1), j = 0..k-1.

    Independent of the recurrence route above; the two must agree.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not 1 <= k <= n:
        raise ValueError(f"k out of range for row {n}: {k}")
    total = 0
    for j in range(k):
        term = math.comb(n, k - 1 - j) * (2 * j + 1) ** (n - 1)
        total += -term if (k - 1 - j) % 2 else term
    return total


def _tangent_numbers(k_max: int) -> list[int]:
    """T_1..T_k_max (index 0 holds T_1): 1, 2, 16, 272, 7936, ...

    The integer triangle of Brent and Harvey (arXiv:1108.0286), after Knuth
    and Buckholtz (1967): O(k_max^2) products of ints, no division.
    """
    t = [1] * k_max
    for k in range(1, k_max):
        t[k] = k * t[k - 1]
    for k in range(1, k_max):
        # t[j - 1] is the value just written, so it is carried, not read
        value = t[k - 1]
        for j in range(k, k_max):
            value = t[j] = (j - k) * value + (j - k + 2) * t[j]
    return t


def _bernoulli_cache(n_max: int) -> list[Fraction]:
    """B_0..B_m for some m >= n_max, from the memo or computed afresh.

    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) from the tangent numbers,
    B_1 = -1/2 and B_n = 0 for odd n >= 3; each value is one ``Fraction``
    built at the end.  The memo keeps the longest list computed so far, and
    a miss computes at least twice the memo's length, so a caller climbing
    one index at a time builds the triangle O(log n) times, not n times.
    """
    global _BERNOULLI
    if n_max < 0:
        raise ValueError(f"need n_max >= 0, got {n_max}")
    if len(_BERNOULLI) <= n_max:
        m = max(n_max, 2 * len(_BERNOULLI))
        bs = [Fraction(1), Fraction(-1, 2)] + [Fraction(0)] * (m - 1)
        for k, t in enumerate(_tangent_numbers(m // 2), 1):
            four_k = 4 ** k
            bs[2 * k] = Fraction((-1) ** (k - 1) * 2 * k * t, four_k * (four_k - 1))
        _BERNOULLI = bs
    return _BERNOULLI


def bernoulli_numbers(n_max: int) -> list[Fraction]:
    """B_0..B_n_max, as a new list."""
    return _bernoulli_cache(n_max)[: n_max + 1]


def bernoulli_number(n: int) -> Fraction:
    return _bernoulli_cache(n)[n]


def bernoulli_poly(n: int) -> Poly:
    """The n-th Bernoulli polynomial sum_k C(n,k) B_k x^(n-k), on ints.

    Every coefficient is put over the lcm L of the denominators of B_0..B_n:
    the numerator of x^(n-k) is C(n,k) num(B_k) (L / den(B_k)), and the
    ``Poly`` is built from these integers over L, with no ``Fraction``
    arithmetic.  Each B_k is read once, by ``as_integer_ratio``, and a zero
    one is skipped on its integer numerator; C(n,k) runs along k by one
    product and one exact division per step.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    pairs = [b.as_integer_ratio() for b in bernoulli_numbers(n)]
    den = math.lcm(*(d for _, d in pairs))
    nums = [0] * (n + 1)
    binomial = 1
    for k, (num, d) in enumerate(pairs):
        if num:
            nums[n - k] = binomial * num * (den // d)
        binomial = binomial * (n - k) // (k + 1)
    return Poly._over(nums, den)


def bernoulli_value(n: int, x) -> Fraction:
    """Exact value of the n-th Bernoulli polynomial at a rational point:
    one ``Fraction`` of ``_bernoulli_value_pair``."""
    return Fraction(*_bernoulli_value_pair(n, x))


def _bernoulli_value_pair(n: int, x) -> tuple[int, int]:
    """B_n(x) at a rational point as an integer (numerator, denominator)
    pair, not reduced: one ``Poly._eval_pair`` of B_n(x), which is built
    once per n and memoized until ``reset_caches()``."""
    poly = _BERNOULLI_POLYS.get(n)
    if poly is None:
        poly = _BERNOULLI_POLYS[n] = bernoulli_poly(n)
    return poly._eval_pair(x)


def _row_strings(row: tuple[int, ...]) -> list[str]:
    """The row's values as decimal strings.

    A symmetric row converts its first half (with the middle value) once and
    mirrors the strings; any other row, such as one built under an injected
    fault, converts every value, so a faulty row prints as it was computed.
    """
    if row != row[::-1]:
        return list(map(str, row))
    n = len(row)
    head = list(map(str, row[:(n + 1) // 2]))
    return head + head[:n // 2][::-1]


def table_lines(kind: str, n_max: int) -> Iterator[list[str]]:
    """Rows of the requested table with every value as an exact string, one
    at a time, so a printer can write and drop each.

    Triangle kinds give rows 1..n_max from ``Triangle.rows``, which stores
    none of the rows it steps; the Bernoulli kinds give indices 0..n_max
    (single values, respectively coefficient vectors).  A triangle row goes
    through ``_row_strings``: CPython's int-to-str takes time quadratic in
    the digits, and a triangle row is symmetric, so only its first half is
    converted.  An unknown kind, or n_max above ``TABLE_LIMITS[kind]``, is
    refused here, before any work and before the first row.
    """
    if kind not in TABLE_LIMITS:
        raise UsageError(f"unknown table kind {kind!r}")
    if not 1 <= n_max <= TABLE_LIMITS[kind]:
        raise UsageError(f"need 1 <= n_max <= {TABLE_LIMITS[kind]} for {kind}, "
                         f"got {n_max}")
    if kind == EULERIAN:
        return map(_row_strings, _EULERIAN_TRIANGLE.rows(n_max))
    if kind == MACMAHON:
        return map(_row_strings, _macmahon_triangle().rows(n_max))
    if kind == "bernoulli":
        return ([str(b)] for b in bernoulli_numbers(n_max))
    return (bernoulli_poly(n).to_coeff_strings() for n in range(n_max + 1))


def table_rows(kind: str, n_max: int) -> list[list[str]]:
    """All rows of ``table_lines(kind, n_max)``, as a list."""
    return list(table_lines(kind, n_max))
