"""Exact arithmetic for the derivative polynomials of the constant-coefficient
Riccati equation, the Eulerian and MacMahon triangles they encode, and the
Bernoulli-number integral identities they satisfy.

All values are arbitrary-precision rationals; the only floating point in the
package is the optional quadrature cross-check of the even-Bernoulli integral
formula.
"""

from .exact import binomial, factorial, format_rational, parse_rational
from .polyseries import Poly, Series, X, series_exp_linear
from .special_numbers import (
    Triangle,
    bernoulli_number,
    bernoulli_numbers,
    bernoulli_poly,
    bernoulli_value,
    eulerian,
    eulerian_explicit,
    eulerian_row,
    macmahon,
    macmahon_explicit,
    macmahon_row,
    table_rows,
)
from .derivative_polys import (
    RiccatiParams,
    build_A,
    build_E,
    build_M,
    build_P,
    build_Q,
    build_S,
)
from .verify import OracleInstance, Verdict, instance, riccati_series, run_suite, v_series

__version__ = "0.1.0"

__all__ = [
    "binomial", "factorial", "format_rational", "parse_rational",
    "Poly", "Series", "X", "series_exp_linear",
    "Triangle", "eulerian", "eulerian_explicit", "eulerian_row",
    "macmahon", "macmahon_explicit", "macmahon_row", "bernoulli_number",
    "bernoulli_numbers", "bernoulli_poly", "bernoulli_value", "table_rows",
    "RiccatiParams",
    "build_P", "build_Q", "build_S", "build_E", "build_A", "build_M",
    "OracleInstance", "Verdict", "instance", "riccati_series", "v_series",
    "run_suite",
]
