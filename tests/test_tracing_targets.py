"""The benchmark tracer finds its targets by name.

``perfbench/tracing.py`` looks functions up by string (``Poly.__dict__[
"__divmod__"]``, ``special.Triangle.__dict__["row"]``, ...) and its builder
counter reads ``params.a`` and ``params.b``.  A rename in the package keeps
every other test green and breaks only traced benchmark runs, so these
tests install the tracer over the package, run suites, and check that the
spans and counters came out and that uninstalling puts every original back.
"""

import importlib.util
from pathlib import Path

import derivpoly
import derivpoly.cli  # noqa: F401  (the tracer wraps cli.main)
from derivpoly import derivative_polys, polyseries, special_numbers, verify

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_its_targets():
    originals = {
        (verify, "run_suite"): verify.run_suite,
        (verify, "build_S"): verify.build_S,
        (derivative_polys, "build_S"): derivative_polys.build_S,
        (derivpoly.cli, "main"): derivpoly.cli.main,
        (polyseries.Poly, "__divmod__"): polyseries.Poly.__dict__["__divmod__"],
    }
    tracer = load_tracing().Tracer()
    try:
        tracer.install(derivpoly)
        tracer.new_run()
        # theorem 3 reads S at u0 from its row, so the S integrals build it
        assert all(v.passed for v in verify.run_suite(
            "integrals", n_max=3, a=0, b=1, d="1/3"))
        spans = tracer.summary()
    finally:
        tracer.uninstall()
    assert spans["derivative_polys.build_S"][0] > 0
    assert spans["verify.suite.integrals"][0] == 1
    for (owner, name), fn in originals.items():
        assert vars(owner)[name] is fn


def test_tracer_counts_builders_over_cold_verify_all():
    """One cold ``run_suite("all")`` under the tracer: every builder gets
    spans, and the repeat counters, which key on ``params.a``, ``params.b``
    and ``d`` of each ``RiccatiParams``, count repeats of P and Q.  No S
    lookup repeats: theorem 3 and the closed forms read S at u0 from its
    row, and the S integrals and the integrality check each look up their
    own (n, a, b, d)."""
    originals = {(owner, f"build_{x}"): getattr(owner, f"build_{x}")
                 for owner in (verify, derivative_polys) for x in "PQS"}
    originals[(verify, "run_suite")] = verify.run_suite
    tracer = load_tracing().Tracer()
    special_numbers.reset_caches()
    try:
        tracer.install(derivpoly)
        tracer.new_run()
        verdicts = verify.run_suite("all")
        spans = tracer.summary()
    finally:
        tracer.uninstall()
        special_numbers.reset_caches()
    assert len(verdicts) == 304 and all(v.passed for v in verdicts)
    for x in "PQS":
        assert spans[f"derivative_polys.build_{x}"][0] > 0, x
    for x in "PQ":
        assert 0 < tracer.counts[f"derivative_polys.build_{x}.repeats"] < \
            spans[f"derivative_polys.build_{x}"][0], x
    assert tracer.counts["derivative_polys.build_S.repeats"] == 0
    assert spans["verify.suite.all"][0] == 1
    for (owner, name), fn in originals.items():
        assert vars(owner)[name] is fn
