"""Exact scalar arithmetic: arbitrary-precision integers and rationals.

Python ints are already arbitrary precision and ``fractions.Fraction`` keeps
rationals in reduced canonical form (positive denominator, gcd 1, zero stored
as 0/1), so this module mostly pins down conventions the rest of the package
relies on: the ``p/q`` string encoding, the combinatorial scalars, the
``Record`` base of the package's small immutable value types and the
``UsageError`` of bad command-line input.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

# Sign allowed on the numerator only; no decimals, no whitespace inside.
_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


class UsageError(ValueError):
    """Bad command-line input: the command line reports it and exits 2.

    It is a ``ValueError``, so a caller that catches ``ValueError`` catches
    it too.
    """


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q`` (or plain ``p``) with optional sign; decimals rejected."""
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not a rational literal: {text!r}")
    if "/" in s:
        num, den = s.split("/")
        if int(den) == 0:
            raise ZeroDivisionError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def as_fraction(value) -> Fraction:
    """``value`` itself when it is a ``Fraction``, else ``Fraction(value)``,
    so an int or a string such as ``"1/3"`` is accepted.  A float is a
    ``TypeError``: a binary float is not the decimal it shows."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(f"exact rational expected, got the float {value!r}")
    return Fraction(value)


def format_rational(value: Fraction | int) -> str:
    """Encode as ``p/q``, or just ``p`` when the denominator is 1."""
    return str(as_fraction(value))


def binomial(n: int, k: int) -> int:
    """C(n, k) for n >= 0; zero outside 0 <= k <= n."""
    if n < 0:
        raise ValueError(f"binomial needs n >= 0, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def factorial(n: int) -> int:
    """n! for n >= 0."""
    if n < 0:
        raise ValueError(f"factorial needs n >= 0, got {n}")
    return math.factorial(n)


class Record:
    """Base of a small immutable value type with its fields in ``__slots__``.

    A subclass sets its fields once, in ``__init__``, through
    ``object.__setattr__``.  Equality, hashing and the repr follow the fields
    in slot order, as for a frozen dataclass; any later assignment raises
    ``AttributeError``.  The fields double as the positional constructor
    arguments, which is what ``copy`` and ``pickle`` call.  It stands in for
    ``dataclasses``, whose import pulls ``inspect``, ``ast``, ``dis`` and
    ``tokenize`` into every process start-up.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
