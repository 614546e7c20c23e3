"""In-process span tracer for the per-layer metrics.

The tracer wraps public functions of the derivpoly layers from outside the
package: each call records a span (name, start, end, parent span, run id) in
flat arrays kept in memory, plus counters at the same boundary.  A wrapper is
bound wherever the original function object is reachable from a derivpoly
module or class, so names that modules re-import (``verify.build_Q``,
``cli.run_suite``, ...) are traced too; ``Tracer.uninstall`` puts every
original back.  A span's self time is its duration minus the time its child
spans cover.
"""

from __future__ import annotations

import bisect
import functools
import gzip
import sys
import time
from array import array

COUNTERS = ("polyseries.poly_mul.coeff_products", "polyseries.poly_mul.max_len",
            *(f"derivative_polys.build_{x}.repeats" for x in "PQS"))

SUITES = ("theorem1", "theorem2", "theorem3", "egf", "lemma1", "classical",
          "integrals", "grosset-veselov", "relations")

#: The per-layer metrics of a traced run.  ``<layer>.self_s`` is a median
#: self time, ``<span>.s`` a median inclusive time, the rest are counts.
PER_LAYER = (
    "polyseries.poly_mul.calls", "polyseries.poly_mul.self_s",
    "polyseries.poly_mul.coeff_products", "polyseries.poly_mul.max_len",
    "polyseries.poly_add.calls", "polyseries.poly_add.self_s",
    "polyseries.poly_eval.self_s", "polyseries.poly_integral.self_s",
    "polyseries.poly_divmod.self_s",
    "polyseries.series_mul.calls", "polyseries.series_mul.self_s",
    *(f"derivative_polys.build_{x}.{stat}" for x in "PQS"
      for stat in ("calls", "self_s", "repeat_share")),
    "special_numbers.bernoulli_numbers.calls",
    "special_numbers.bernoulli_numbers.self_s",
    "special_numbers.bernoulli_poly.self_s",
    "special_numbers.triangle_row.calls", "special_numbers.triangle_row.self_s",
    "verify.oracle.self_s", "verify.quadrature.self_s",
    *(f"verify.suite.{suite}.s" for suite in SUITES),
    "verify.verdicts.pass", "verify.verdicts.fail", "verify.verdicts.inconclusive",
    "cli.main.self_s", "trace.overhead_ratio",
)


def unit(metric: str) -> str:
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    if metric.endswith("_share") or metric.endswith("_ratio"):
        return "ratio"
    return "count"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.run_first: list[int] = []
        self.counts: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self._built: set = set()
        self._restore: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def reset_counts(self) -> None:
        self.counts.update(dict.fromkeys(COUNTERS, 0))

    def new_run(self) -> None:
        """Start the spans of one command; builder repeats are per process."""
        self.run_first.append(len(self.start))
        self._built.clear()

    def wrap(self, fn, name: str, count=None, name_of=None):
        """A traced version of ``fn``; ``count(args)`` updates counters and
        ``name_of(args)`` names the span from the arguments."""
        nid = self.name_id(name)
        add_name, add_parent = self.name.append, self.parent.append
        start, end, stack = self.start, self.end, self._stack
        add_start, add_end, push, pop = start.append, end.append, stack.append, stack.pop
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(args)
            i = len(start)
            add_name(self.name_id(name_of(args)) if name_of else nid)
            add_parent(stack[-1])
            add_end(0.0)
            push(i)
            add_start(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                pop()

        return traced

    def install(self, package) -> None:
        """Bind wrappers over the layers of ``package`` (derivpoly)."""
        polyseries = package.polyseries
        special = package.special_numbers
        builders = package.derivative_polys
        verify = package.verify
        Poly, Series = polyseries.Poly, polyseries.Series
        counts = self.counts

        def count_mul(args):
            a, b = args
            if isinstance(b, Poly) and a._coeffs and b._coeffs:
                la, lb = len(a._coeffs), len(b._coeffs)
                counts["polyseries.poly_mul.coeff_products"] += la * lb
                if la + lb - 1 > counts["polyseries.poly_mul.max_len"]:
                    counts["polyseries.poly_mul.max_len"] = la + lb - 1

        def builder(letter):
            def count(args):
                n, params = args
                key = (letter, n, params.a, params.b, getattr(params, "d", None))
                if key in self._built:
                    counts[f"derivative_polys.build_{letter}.repeats"] += 1
                self._built.add(key)
            return count

        targets = [
            (Poly.__dict__["__mul__"], "polyseries.poly_mul", count_mul, None),
            (Poly.__dict__["__add__"], "polyseries.poly_add", None, None),
            (Poly.__dict__["eval"], "polyseries.poly_eval", None, None),
            (Poly.__dict__["definite_integral"], "polyseries.poly_integral", None, None),
            (Poly.__dict__["__divmod__"], "polyseries.poly_divmod", None, None),
            (Series.__dict__["__mul__"], "polyseries.series_mul", None, None),
            (special.bernoulli_numbers, "special_numbers.bernoulli_numbers",
             None, None),
            (special.bernoulli_poly, "special_numbers.bernoulli_poly", None, None),
            (special.Triangle.__dict__["row"], "special_numbers.triangle_row",
             None, None),
            (verify.riccati_series, "verify.oracle", None, None),
            (verify.v_series, "verify.oracle", None, None),
            (verify.grosset_veselov_numeric, "verify.quadrature", None, None),
            (verify.run_suite, "verify.suite", None,
             lambda args: f"verify.suite.{args[0]}"),
            (package.cli.main, "cli.main", None, None),
        ]
        targets += [(getattr(builders, f"build_{x}"),
                     f"derivative_polys.build_{x}", builder(x), None)
                    for x in "PQS"]
        owners = [m for n, m in sys.modules.items()
                  if n == package.__name__ or n.startswith(package.__name__ + ".")]
        owners += [Poly, Series, special.Triangle]
        for fn, name, count, name_of in targets:
            traced = self.wrap(fn, name, count, name_of)
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is fn:
                        self._restore.append((owner, attr, value))
                        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def summary(self, first: int = 0) -> dict[str, tuple[int, float, float]]:
        """(calls, self time, inclusive time) per span name, over spans
        ``first`` onwards."""
        n = len(self.start)
        child = [0.0] * (n - first)
        for i in range(n - 1, first - 1, -1):
            p = self.parent[i]
            if p >= first:
                child[p - first] += self.end[i] - self.start[i]
        out: dict[str, tuple[int, float, float]] = {}
        for i in range(first, n):
            key = self.names[self.name[i]]
            calls, self_s, total_s = out.get(key, (0, 0.0, 0.0))
            duration = self.end[i] - self.start[i]
            out[key] = (calls + 1, self_s + duration - child[i - first],
                        total_s + duration)
        return out

    def write(self, path) -> None:
        """All spans as gzip'd CSV: run,span,parent,name,start,end; the run
        id numbers the traced commands from 1."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("run,span,parent,name,start,end\n")
            for i in range(len(self.start)):
                run = bisect.bisect_right(self.run_first, i)
                f.write(f"{run},{i},{self.parent[i]},"
                        f"{self.names[self.name[i]]},{self.start[i]!r},"
                        f"{self.end[i]!r}\n")
