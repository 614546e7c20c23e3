import pytest

from derivpoly import derivative_polys, polyseries, special_numbers, verify


def _inject_fault(monkeypatch, module, name, faulty):
    """Patch one module attribute between two cache resets.

    Resetting drops the triangle rows and the P/Q memo built from them, so the
    fault reaches every cached layer, and the correct values come back after.
    """
    special_numbers.reset_caches()
    monkeypatch.setattr(module, name, faulty)
    try:
        yield
    finally:
        monkeypatch.undo()
        special_numbers.reset_caches()


@pytest.fixture
def mutated_eulerian_recurrence(monkeypatch):
    """Inject an off-by-one into the ascent recurrence, with isolated caches.

    Row 1 stays [1]; every later row is corrupted, so anything built from the
    Eulerian triangle must stop verifying while independent routes (explicit
    sums, ODE series, exponential factors) are unaffected.
    """

    def bad_row(n, prev):
        row = []
        for k in range(n):
            left = prev[k] if k < n - 1 else 0
            right = prev[k - 1] if k >= 1 else 0
            row.append((k + 2) * left + (n - k) * right)
        return row

    yield from _inject_fault(monkeypatch, special_numbers,
                             "_eulerian_next_row", bad_row)


@pytest.fixture
def mutated_macmahon_recurrence(monkeypatch):
    """Inject an off-by-one into the MacMahon recurrence, with isolated caches.

    Row 1 stays [1]; from row 2 on the anchor M(n, 1) = 1 breaks, so the Q
    and S families and everything built on them must stop verifying.
    """

    def bad_row(n, prev):
        row = []
        for k in range(1, n + 1):
            left = prev[k - 1] if k <= n - 1 else 0
            right = prev[k - 2] if k >= 2 else 0
            row.append(2 * k * left + (2 * n - 2 * k + 1) * right)
        return row

    yield from _inject_fault(monkeypatch, special_numbers,
                             "_macmahon_next_row", bad_row)


@pytest.fixture
def mutated_horner_kernel(monkeypatch):
    """Put the constant coefficient of the P/Q Horner kernel off by one.

    The triangles stay correct, so only the families built from them (and
    every check that reads P, Q or S) must stop verifying.
    """
    kernel = derivative_polys._homogeneous

    def bad_kernel(coeffs, x, y):
        return kernel((coeffs[0] + 1, *coeffs[1:]), x, y)

    yield from _inject_fault(monkeypatch, derivative_polys, "_homogeneous",
                             bad_kernel)


@pytest.fixture
def mutated_shift_transform(monkeypatch):
    """Put the k = 2 weight of the S binomial transform off by one, C(n,2)
    becoming C(n,2) + 1, so S_n gains (2d)^2 Q_{n-2}.

    The triangles and the P/Q families stay correct, so only checks that
    read S with d != 0 must fail.
    """
    transform = derivative_polys._shift_transform

    def bad_transform(qs, two_d):
        poly = transform(qs, two_d)
        return poly + two_d ** 2 * qs[-3] if len(qs) >= 3 else poly

    yield from _inject_fault(monkeypatch, derivative_polys, "_shift_transform",
                             bad_transform)


@pytest.fixture
def mutated_poly_eval(monkeypatch):
    """Put ``Poly.eval`` off by one on polynomials of degree 8 and up.

    Products, sums and the builders stay correct, so only checks that read
    a polynomial's value at a point (the series oracles, the Bernoulli
    values on the right of the integral identities, the substitution
    relations) must fail.  An antiderivative evaluated at both endpoints
    carries the error twice, and it cancels.
    """
    evaluate = polyseries.Poly.eval

    def bad_eval(poly, x):
        return evaluate(poly, x) + (poly.degree >= 8)

    yield from _inject_fault(monkeypatch, polyseries.Poly, "eval", bad_eval)


@pytest.fixture
def mutated_definite_integral(monkeypatch):
    """Integrate the u^2 term of every ``Poly`` as u^3/4 instead of u^3/3.

    Products, evaluation and the builders stay correct, so only the checks
    that integrate a polynomial (the integral identities and the exact
    Grosset-Veselov integrals) must fail.
    """
    integrate = polyseries.Poly.definite_integral

    def bad_integral(poly, a, b):
        # c (b^3 - a^3) / 4 in place of c (b^3 - a^3) / 3 takes 1/12 of it away
        c = poly.coefficient(2)
        return integrate(poly, a, b) - c * (b ** 3 - a ** 3) / 12

    yield from _inject_fault(monkeypatch, polyseries.Poly, "definite_integral",
                             bad_integral)


@pytest.fixture
def mutated_poly_product(monkeypatch):
    """Add 1 to the numerator of coefficient 2 of every ``Poly`` x ``Poly``
    product of degree 2 or more; products by a scalar stay correct.

    The triangles and the Horner-built P and Q families never multiply two
    polynomials, so only the checks that do (lemma 1, the Grosset-Veselov
    squares, the generating-function checks over polynomial coefficients)
    must fail.
    """
    multiply = polyseries.Poly.__mul__

    def bad_multiply(self, other):
        product = multiply(self, other)
        if not isinstance(other, polyseries.Poly) or product.degree < 2:
            return product
        nums = list(product._coeffs)
        nums[2] += 1
        return polyseries.Poly._over(nums, product._den)

    yield from _inject_fault(monkeypatch, polyseries.Poly, "__mul__",
                             bad_multiply)


@pytest.fixture
def mutated_exp_transform(monkeypatch):
    """Put the k = 2 weight of the generating-function binomial sum off by
    one, C(n,2) becoming C(n,2) + 1, so g_n gains rate^(n-2) F_2 for n >= 2.

    Polynomials, the families and the triangles stay correct, so only the
    checks that multiply a generating function by c + d e^(rate t) (the
    generating-function identities and closed forms) must fail.
    """
    transform = verify._exp_transform

    def bad_transform(fs, rate):
        return [g + rate ** (n - 2) * fs[2] if n >= 2 else g
                for n, g in enumerate(transform(fs, rate))]

    yield from _inject_fault(monkeypatch, verify, "_exp_transform",
                             bad_transform)


@pytest.fixture
def mutated_tangent_numbers(monkeypatch):
    """Double the tangent number T_3, so B_6 doubles.

    The triangles and families stay correct, so only checks that read a
    Bernoulli number from B_6 on (the integral identities and the even
    Bernoulli integrals) must fail.  The memoized Bernoulli list is dropped
    with the other caches, or a warm memo would hide the fault.
    """
    tangent_numbers = special_numbers._tangent_numbers

    def bad_tangent_numbers(k_max):
        t = tangent_numbers(k_max)
        if k_max >= 3:
            t[2] *= 2
        return t

    yield from _inject_fault(monkeypatch, special_numbers, "_tangent_numbers",
                             bad_tangent_numbers)


@pytest.fixture
def mutated_series_oracle(monkeypatch):
    """Put x_5, the scaled integer coefficient of z^5 in the u oracle, off by
    one.  The v oracle reuses the same integers, so theorems 1-3 must fail
    while the families they are compared with stay correct.
    """
    numerators = verify._riccati_numerators

    def bad_numerators(alpha, beta, mu, order):
        x = numerators(alpha, beta, mu, order)
        if order >= 5:
            x[5] += 1
        return x

    yield from _inject_fault(monkeypatch, verify, "_riccati_numerators",
                             bad_numerators)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if rep.when != "call":
        return
    label = getattr(item.function, "_criterion", None)
    if label:
        tr = item.config.pluginmanager.get_plugin("terminalreporter")
        if tr is not None:
            tr.write_line(f"{label}: {'PASS' if rep.passed else 'FAIL'}")
