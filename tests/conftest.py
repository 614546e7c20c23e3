from fractions import Fraction

import pytest

from derivpoly import derivative_polys, polyseries, special_numbers, verify

Poly, X = polyseries.Poly, polyseries.X


def _at(seq, k, edit):
    """``seq`` as a list with item k replaced by ``edit(item)``; unchanged if
    shorter."""
    return [*seq[:k], edit(seq[k]), *seq[k + 1:]] if k < len(seq) else seq


def _plus(seq, k, delta=1):
    """``seq`` as a list with ``delta`` added to item k; unchanged if
    shorter."""
    return _at(seq, k, lambda x: x + delta)


def _pair_plus(pair, delta):
    """The integer (numerator, denominator) pair of a rational value plus
    the rational ``delta``."""
    num, den = pair
    delta = Fraction(delta)
    return (num * delta.denominator + delta.numerator * den,
            den * delta.denominator)


def _poly_plus(poly, k):
    """``poly`` with 1 added to the numerator of its coefficient k."""
    return Poly._over(_plus(list(poly._coeffs), k), poly._den)


#: Fixture name -> (owner, attribute, wrap, failing, identities): the fixture
#: replaces ``owner.attribute`` by ``wrap(owner.attribute)``, and a cold
#: ``verify all`` then fails exactly ``failing`` of its 304 verdicts, whose
#: identities are exactly ``identities``.  Adding a fault is adding a row.
FAULTS = {
    # Row 1 stays [1]; every later row gains its left parent once more, so
    # anything built from the Eulerian triangle must fail while independent
    # routes (explicit sums, ODE series, exponential factors) hold.
    "mutated_eulerian_recurrence": (
        special_numbers, "_eulerian_next_row",
        lambda step: lambda n, prev: [x + left for x, left in
                                      zip(step(n, prev), (*prev, 0))],
        117, {"classical", "closed_form_f", "egf_a", "egf_eulerian",
              "grosset_veselov_exact", "grosset_veselov_numeric", "integral_P",
              "integrality", "lemma1", "theorem1", "triangle_eulerian"}),
    # The same off-by-one in the MacMahon recurrence, at every shift: from
    # row 2 on the anchor M(n, 1) = 1 breaks, so the Q and S families must
    # fail.
    "mutated_macmahon_recurrence": (
        special_numbers, "_macmahon_next_row",
        lambda step: lambda n, prev, *shift: [
            x + left for x, left in zip(step(n, prev, *shift), (*prev, 0))],
        167, {"closed_form_h", "egf_macmahon", "integral_Q", "integral_S",
              "integrality", "substitution_M", "theorem2", "theorem3",
              "triangle_macmahon"}),
    # The constant coefficient of the P/Q Horner kernel off by one: the
    # triangles stay correct, so only checks that build P, Q or S fail.
    # Theorems 1-3 and the closed forms read the rows at u0 through
    # family_value, which does not call the kernel.
    "mutated_horner_kernel": (
        derivative_polys, "_homogeneous",
        lambda kernel: lambda c, *args: kernel((c[0] + 1, *c[1:]), *args),
        264, {"grosset_veselov_exact", "grosset_veselov_numeric",
              "integral_P", "integral_Q", "integral_S", "integrality",
              "lemma1", "substitution_E", "substitution_M"}),
    # The lowest digit read off a packed integer off by one, in both passes
    # of the P/Q kernel: the triangles and the Horner steps stay correct.
    # The packed EGF and classical checks unpack only a failing side.
    "mutated_digit_unpacking": (
        derivative_polys, "_digits",
        lambda digits: lambda *args: _plus(digits(*args), 0),
        264, {"grosset_veselov_exact", "grosset_veselov_numeric",
              "integral_P", "integral_Q", "integral_S", "integrality",
              "lemma1", "substitution_E", "substitution_M"}),
    # The value of a family member at a point off by one from n = 8 on, in
    # the integer pair it returns: theorems 1-3 and the closed forms, which
    # read P, Q and S at u0 from their rows, fail; everything that builds a
    # member holds.
    "mutated_family_value": (
        verify, "family_value",
        lambda value: lambda letter, n, *args: _pair_plus(
            value(letter, n, *args), n >= 8),
        17, {"closed_form_f", "closed_form_h", "theorem1", "theorem2",
             "theorem3"}),
    # The lowest digit of every polynomial packed into one int off by one:
    # the packed EGF and classical checks fail, the scalar closed forms
    # too, since a scalar is packed as its one digit.
    "mutated_packing": (
        verify, "_packed",
        lambda pack: lambda digits, width: pack(_plus(list(digits), 0), width),
        21, {"classical", "closed_form_f", "closed_form_h", "egf_a",
             "egf_eulerian", "egf_macmahon"}),
    # The shift numerator p of the shifted MacMahon row step off by one when
    # p != 0: the MacMahon rows stay correct, so only checks that read S
    # with d != 0 fail.
    "mutated_shift_weight": (
        special_numbers, "_macmahon_next_row",
        lambda step: lambda n, prev, p=0, e=1: step(n, prev, p + (p != 0), e),
        76, {"closed_form_h", "integral_S", "integrality", "theorem3"}),
    # The integer pair of a value at a point off by one from degree 8 on:
    # only checks that evaluate a built polynomial at a point fail (the
    # Bernoulli values and the substitution relations); the integral runs
    # its own Horner pass, and family_value reads the rows without a Poly.
    "mutated_poly_eval": (
        Poly, "_eval_pair",
        lambda evaluate: lambda p, x: _pair_plus(evaluate(p, x),
                                                 p.degree >= 8),
        81, {"integral_Q", "integral_S", "substitution_E", "substitution_M"}),
    # The u^2 term integrated as u^3/4 instead of u^3/3, taking
    # c (b^3 - a^3) / 12 away from the integral's integer pair: only the
    # checks that integrate fail.
    "mutated_definite_integral": (
        Poly, "_integral_pair",
        lambda integrate: lambda p, a, b: _pair_plus(
            integrate(p, a, b), -p.coefficient(2) * (b ** 3 - a ** 3) / 12),
        148, {"grosset_veselov_exact", "integral_P", "integral_Q",
              "integral_S"}),
    # Numerator 2 of every Poly x Poly product of degree 2 or more plus 1;
    # products by a scalar stay correct, the Horner-built P and Q never
    # multiply two polynomials, and the EGF checks multiply packed ints.
    "mutated_poly_product": (
        Poly, "__mul__",
        lambda multiply: lambda p, o: (
            _poly_plus(multiply(p, o), 2) if isinstance(o, Poly)
            else multiply(p, o)),
        23, {"grosset_veselov_exact", "lemma1"}),
    # The k = 2 weight of the binomial (Pascal) transform off by one, so g_n
    # gains rate^(n-2) F_2: the generating-function checks fail, and
    # theorems 2 and 3, whose v oracle sums its numerators by the same
    # transform; theorem 1's u oracle does not read it.
    "mutated_exp_transform": (
        verify, "_exp_transform",
        lambda transform: lambda fs, rate: [
            g + rate ** (n - 2) * fs[2] if n >= 2 else g
            for n, g in enumerate(transform(fs, rate))],
        14, {"closed_form_f", "closed_form_h", "egf_a", "egf_eulerian",
             "egf_macmahon", "theorem2", "theorem3"}),
    # T_3 = 16 doubled, so B_6 doubles: only checks that read a Bernoulli
    # number from B_6 on fail.  The reset drops the Bernoulli memo too.
    "mutated_tangent_numbers": (
        special_numbers, "_tangent_numbers",
        lambda tangents: lambda k_max: _plus(tangents(k_max), 2, 16),
        78, {"grosset_veselov_exact", "grosset_veselov_numeric", "integral_P",
             "integral_Q", "integral_S"}),
    # x_5 of the integer u oracle off by one; the v oracle reads the same
    # integers, so theorems 1-3 fail while the families stay correct.
    "mutated_series_oracle": (
        verify, "_riccati_numerators",
        lambda numerators: lambda *args: _plus(numerators(*args), 5),
        13, {"theorem1", "theorem2", "theorem3"}),
    # y_5 of the integer v oracle off by one: the u oracle stays correct,
    # so theorems 2 and 3 fail and theorem 1 holds.
    "mutated_v_numerators": (
        verify, "_v_numerators",
        lambda numerators: lambda *args: _plus(numerators(*args), 5),
        10, {"theorem2", "theorem3"}),
    # eta, the scaled h = d - (a+b)/2, off by one: only the v oracle reads
    # it, so theorems 2 and 3 fail and theorem 1 holds.
    "mutated_scaled_shift": (
        verify, "_scaled_parameters",
        lambda scale: lambda *args: _plus(scale(*args), 4),
        10, {"theorem2", "theorem3"}),
    # Entry 2 of every Pascal row from row 4 on off by one: the binomials of
    # the oracle's convolution, so only theorems 1-3 fail.
    "mutated_pascal_row": (
        verify, "_pascal_next",
        lambda step: lambda row: _plus(step(row), 2, len(row) >= 4),
        13, {"theorem1", "theorem2", "theorem3"}),
    # Numerator 6 of either oracle off by one before it is scaled back.
    "mutated_unscaling": (
        verify, "_unscaled",
        lambda unscale: lambda nums, *args: unscale(_plus(nums, 6), *args),
        13, {"theorem1", "theorem2", "theorem3"}),
    # The k = 2 weight of every integer combination of polynomials off by
    # one: lemma 1's right side, its only caller.
    "mutated_combination_weight": (
        Poly, "_combination",
        lambda combine: lambda w, polys: combine(_plus(list(w), 2), polys),
        13, {"lemma1"}),
    # Numerator 3 of every Poly sum of degree 3 or more plus 1: lemma 1's
    # right side u*acc - acc, of degree n + 1, from n = 2 on; the EGF
    # checks add packed ints.
    "mutated_poly_sum": (
        Poly, "__add__",
        lambda add: lambda p, o: _poly_plus(add(p, o), 3),
        14, {"lemma1"}),
    # Numerator 3 of every negation of degree 3 or more plus 1: lemma 1's
    # right side negates its sum acc, of degree n, so it fails from n = 3 on.
    "mutated_poly_negation": (
        Poly, "__neg__",
        lambda negate: lambda p: _poly_plus(negate(p), 3),
        13, {"lemma1"}),
    # Numerator 2 of every quotient plus 1: the exact divisions of the
    # Grosset-Veselov squares and of the integrality check.
    "mutated_quotient_coefficient_2": (
        Poly, "__divmod__",
        lambda divide: lambda p, o: _at(divide(p, o), 0,
                                        lambda q: _poly_plus(q, 2)),
        27, {"grosset_veselov_exact", "integrality"}),
    # Numerator 1 of every quotient plus 1: the even Grosset-Veselov
    # quotient shows it only in its odd-part pair.
    "mutated_quotient_coefficient_1": (
        Poly, "__divmod__",
        lambda divide: lambda p, o: _at(divide(p, o), 0,
                                        lambda q: _poly_plus(q, 1)),
        28, {"grosset_veselov_exact", "integrality"}),
    # Every remainder plus 1, so no division is exact.
    "mutated_remainder": (
        Poly, "__divmod__",
        lambda divide: lambda p, o: _plus(divide(p, o), 1),
        28, {"grosset_veselov_exact", "integrality"}),
    # The quadrature's value off by 1e-3, far above its tolerance: only the
    # numeric Grosset-Veselov cross-checks integrate numerically.
    "mutated_quadrature": (
        verify, "_trapezoid",
        lambda trapezoid: lambda *args: _plus(trapezoid(*args), 0, 1e-3),
        3, {"grosset_veselov_numeric"}),
    # x^1 of B_n(x) plus 1 from n = 4 on: the Bernoulli values on the right
    # of the Q and S integrals.
    "mutated_bernoulli_poly": (
        special_numbers, "bernoulli_poly",
        lambda bernoulli: lambda n: bernoulli(n) + X * (n >= 4),
        87, {"integral_Q", "integral_S"}),
    # B_1 = +1/2, the other sign convention: the integrals read B_1.
    "mutated_bernoulli_b1": (
        special_numbers, "_bernoulli_cache",
        lambda numbers: lambda n_max: _plus(numbers(n_max), 1),
        111, {"integral_P", "integral_Q", "integral_S"}),
    # The explicit sums as verify reads them, off by one at a single entry:
    # each is the second route of its triangle check only.
    "mutated_eulerian_explicit": (
        verify, "eulerian_explicit",
        lambda explicit: lambda n, k: explicit(n, k) + (n >= 4 and k == 1),
        1, {"triangle_eulerian"}),
    "mutated_macmahon_explicit": (
        verify, "macmahon_explicit",
        lambda explicit: lambda n, k: explicit(n, k) + (n >= 4 and k == 2),
        1, {"triangle_macmahon"}),
}


def _fault_fixture(name, owner, attribute, wrap, *_):
    @pytest.fixture(name=name)
    def inject(monkeypatch):
        """Patch one kernel between two cache resets: the reset drops the
        triangle rows and the memos built from them, so the fault reaches
        every cached layer, and the correct values come back after."""
        special_numbers.reset_caches()
        monkeypatch.setattr(owner, attribute, wrap(getattr(owner, attribute)))
        try:
            yield
        finally:
            monkeypatch.undo()
            special_numbers.reset_caches()

    return inject


for _name, _row in FAULTS.items():
    globals()[_name] = _fault_fixture(_name, *_row)


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
