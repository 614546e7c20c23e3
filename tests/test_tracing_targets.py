"""The benchmark tracer finds its targets by name.

``perfbench/tracing.py`` looks functions up by string (``Poly.__dict__[
"__divmod__"]``, ``special.Triangle.__dict__["row"]``, ...) and its builder
counter reads ``params.a`` and ``params.b``.  A rename in the package keeps
every other test green and breaks only traced benchmark runs, so this test
installs the tracer over the package, runs one suite, and checks that the
spans came out and that uninstalling puts every original back.
"""

import importlib.util
from pathlib import Path

import derivpoly
import derivpoly.cli  # noqa: F401  (the tracer wraps cli.main)
from derivpoly import derivative_polys, polyseries, verify

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
        assert all(v.passed for v in verify.run_suite("theorem3", n_max=3))
        spans = tracer.summary()
    finally:
        tracer.uninstall()
    assert spans["derivative_polys.build_S"][0] > 0
    assert spans["verify.suite.theorem3"][0] == 1
    for (owner, name), fn in originals.items():
        assert vars(owner)[name] is fn
