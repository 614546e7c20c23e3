"""The benchmark's workloads: fixed lists of ``derivpoly`` CLI commands.

Input sizes are fixed; the seed only picks the rational parameters of the
seeded commands.  Every seeded rational comes from one pool of non-integer
values with the same denominator, so the cost of a command barely depends on
the seed: integer endpoints would make ``integrals --n-max 24`` about 2.5x
cheaper, and mixed signs allow a = -b, whose families are sparse.
"""

from __future__ import annotations

import random
from fractions import Fraction

POOL = (Fraction(1, 3), Fraction(2, 3), Fraction(4, 3), Fraction(5, 3))

WHY = {
    "verify-all": "verify all in three formats: many small Poly products; "
                  "9 in 10 build_Q calls rebuild a polynomial",
    "verify-deep": "five suites at raised bounds: large Poly products with "
                   "large heights; build_P calls rarely repeat",
    "tables": "tables and series: no Poly products or builder calls; "
              "Bernoulli numbers and the series oracle dominate",
}

NAMES = tuple(WHY)


def draw_params(seed: int) -> dict:
    """Seeded (r, a, b, d, u0) with a != b and u0 in (0, 1) off {a, b}."""
    rng = random.Random(seed)
    while True:
        a, b = rng.sample(POOL, 2)
        u0s = [x for x in POOL if 0 < x < 1 and x not in (a, b)]
        if u0s:
            break
    return {"r": rng.choice(POOL), "a": a, "b": b, "d": rng.choice(POOL),
            "u0": rng.choice(u0s)}


def commands(workload: str, seed: int) -> list[list[str]]:
    """The argv lists (after ``derivpoly``) of one pass over a workload."""
    p = {k: str(v) for k, v in draw_params(seed).items()}
    if workload == "verify-all":
        return [["verify", "all", "--format", fmt]
                for fmt in ("plain", "json", "csv")]
    if workload == "verify-deep":
        return [
            ["verify", "theorem3", "--n-max", "20"],
            ["verify", "integrals", "--n-max", "24",
             "--a", p["a"], "--b", p["b"], "--d", p["d"]],
            ["verify", "grosset-veselov", "--m-max", "40"],
            ["verify", "classical", "--n-max", "40"],
            ["verify", "egf", "--order", "16", "--u0", p["u0"]],
        ]
    if workload == "tables":
        series = ["--order", "200", "--r", p["r"], "--a", p["a"],
                  "--b", p["b"], "--d", p["d"], "--u0", p["u0"]]
        return [
            ["table", "bernoulli", "--n", "400"],
            ["table", "bernoulli-poly", "--n", "120"],
            ["table", "eulerian", "--n", "200"],
            ["table", "macmahon", "--n", "200"],
            ["series", "riccati", *series],
            ["series", "v", *series],
        ]
    raise ValueError(f"unknown workload {workload!r}")


#: The no-work invocation whose spawn-to-exit time is ``setup_s``.
SETUP_COMMAND = ["table", "eulerian", "--n", "1"]
