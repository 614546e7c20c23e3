import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from derivpoly.derivative_polys import RiccatiParams, build_P
from derivpoly.exact import binomial, factorial
from derivpoly.polyseries import Poly
from derivpoly import special_numbers as sn
from derivpoly import verify as V

small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=8)


def brute_force_ascent_counts(n):
    """Count permutations of {1..n} by number of ascents, from the definition."""
    counts = [0] * n
    for perm in itertools.permutations(range(1, n + 1)):
        ascents = sum(1 for i in range(n - 1) if perm[i] < perm[i + 1])
        counts[ascents] += 1
    return counts


def macmahon_explicit(n, k):
    """Alternating-sum closed form for the triangle, independent of the
    recurrence: sum_j (-1)^j C(n,j) (2k-2j-1)^(n-1)."""
    total = 0
    for j in range(k):
        term = binomial(n, j) * (2 * k - 2 * j - 1) ** (n - 1)
        total += -term if j % 2 else term
    return total


def fraction_recurrence_bernoulli(n_max):
    """B_0..B_n_max by coefficient-wise inversion of (e^t - 1)/t on
    Fractions: beta_n = B_n/n! = -sum_{k<n} beta_k / (n-k+1)!.  The
    reference route for the integer tangent-number kernel."""
    bs = [Fraction(1)]
    for n in range(1, n_max + 1):
        acc = sum((bs[k] / (factorial(k) * factorial(n - k + 1))
                   for k in range(n)), Fraction(0))
        bs.append(-acc * factorial(n))
    return bs


class TestEulerian:
    def test_row_three(self):
        assert sn.eulerian_row(3) == (1, 4, 1)
        assert (sn.eulerian(3, 0), sn.eulerian(3, 1), sn.eulerian(3, 2)) == (1, 4, 1)

    def test_permutation_oracle(self):
        for n in range(1, 8):
            assert list(sn.eulerian_row(n)) == brute_force_ascent_counts(n)

    def test_max_ascent_case(self):
        for n in range(1, 13):
            assert sn.eulerian(n, n - 1) == 1

    def test_spot_values(self):
        assert sn.eulerian(5, 2) == 66
        assert sn.eulerian(6, 3) == 302
        assert sn.eulerian(7, 3) == 2416

    def test_out_of_support_is_zero(self):
        assert sn.eulerian(4, -1) == 0
        assert sn.eulerian(4, 4) == 0

    def test_bad_row_rejected(self):
        with pytest.raises(ValueError):
            sn.eulerian(0, 0)
        with pytest.raises(ValueError):
            sn.eulerian_row(-2)

    def test_recurrence_matches_explicit(self):
        for n in range(1, 13):
            for k in range(n):
                assert sn.eulerian(n, k) == sn.eulerian_explicit(n, k)

    def test_explicit_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            sn.eulerian_explicit(3, 3)
        with pytest.raises(ValueError):
            sn.eulerian_explicit(0, 0)

    def test_symmetry(self):
        for n in range(1, 26):
            row = sn.eulerian_row(n)
            assert row == tuple(reversed(row))

    def test_row_sums_are_factorials(self):
        for n in range(1, 13):
            assert sum(sn.eulerian_row(n)) == factorial(n)


class TestMacMahon:
    def test_anchor_rows(self):
        assert sn.macmahon_row(1) == (1,)
        assert sn.macmahon_row(2) == (1, 1)
        assert sn.macmahon_row(3) == (1, 6, 1)
        assert sn.macmahon_row(4) == (1, 23, 23, 1)
        assert sn.macmahon_row(5) == (1, 76, 230, 76, 1)

    def test_boundary_ones(self):
        for n in range(1, 21):
            assert sn.macmahon(n, 1) == 1
            assert sn.macmahon(n, n) == 1

    def test_symmetry(self):
        for n in range(1, 21):
            row = sn.macmahon_row(n)
            assert row == tuple(reversed(row))

    def test_explicit_oracle(self):
        for n in range(1, 13):
            for k in range(1, n + 1):
                assert sn.macmahon(n, k) == macmahon_explicit(n, k)

    def test_library_explicit_sum(self):
        for n in range(1, 31):
            explicit = tuple(sn.macmahon_explicit(n, k) for k in range(1, n + 1))
            assert explicit == sn.macmahon_row(n)
            assert explicit == tuple(macmahon_explicit(n, k)
                                     for k in range(1, n + 1))
        for n, k in ((3, 0), (3, 4), (0, 1)):
            with pytest.raises(ValueError):
                sn.macmahon_explicit(n, k)

    def test_out_of_support_is_zero(self):
        assert sn.macmahon(4, 0) == 0
        assert sn.macmahon(4, 5) == 0

    def test_bad_row_rejected(self):
        with pytest.raises(ValueError):
            sn.macmahon(0, 1)


class TestTriangleObject:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            sn.Triangle("pascal")


class TestBernoulliNumbers:
    def test_anchors(self):
        assert sn.bernoulli_number(0) == 1
        assert sn.bernoulli_number(1) == Fraction(-1, 2)
        assert sn.bernoulli_number(2) == Fraction(1, 6)
        assert sn.bernoulli_number(3) == 0
        assert sn.bernoulli_number(4) == Fraction(-1, 30)
        assert sn.bernoulli_number(12) == Fraction(-691, 2730)

    def test_odd_vanishing(self):
        for m in range(1, 15):
            assert sn.bernoulli_number(2 * m + 1) == 0

    def test_double_sum_oracle(self):
        # B_n = sum_k 1/(k+1) sum_v (-1)^v C(k,v) v^n, with 0^0 = 1
        for n in range(13):
            total = Fraction(0)
            for k in range(n + 1):
                inner = Fraction(0)
                for v in range(k + 1):
                    power = 1 if (v == 0 and n == 0) else v ** n
                    inner += (-1) ** v * binomial(k, v) * power
                total += inner / (k + 1)
            assert sn.bernoulli_number(n) == total

    def test_prefix_list(self):
        values = sn.bernoulli_numbers(4)
        assert values == [Fraction(1), Fraction(-1, 2), Fraction(1, 6),
                          Fraction(0), Fraction(-1, 30)]
        # cache extension keeps earlier values identical
        assert sn.bernoulli_numbers(10)[:5] == values

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sn.bernoulli_numbers(-1)

    def test_matches_fraction_recurrence(self):
        assert sn.bernoulli_numbers(200) == fraction_recurrence_bernoulli(200)

    def test_tangent_numbers_are_p_family_values(self):
        # T_k = (-1)^k P_2k(0) for u' = (u+1)(u-1)
        params = RiccatiParams(1, -1, 1)
        for k, t in enumerate(sn._tangent_numbers(12), 1):
            assert t == (-1) ** k * build_P(2 * k, params).eval(0)

    def test_memo_keeps_longest_prefix_until_reset(self):
        sn.reset_caches()
        long = sn.bernoulli_numbers(60)
        assert sn.bernoulli_numbers(10) == long[:11]
        assert len(sn._bernoulli_cache(10)) == 61
        sn.reset_caches()
        assert len(sn._bernoulli_cache(10)) < 61

    @pytest.mark.parametrize("climb", [
        lambda: sn.table_rows("bernoulli-poly", 120),
        lambda: V.run_suite("grosset-veselov", m_max=40),
    ])
    def test_memo_grows_geometrically(self, monkeypatch, climb):
        # Both callers climb one index at a time (through 120 and 80); the
        # memo must not rebuild the tangent triangle for every index.
        tangent_numbers, calls = sn._tangent_numbers, []

        def counted(k_max):
            calls.append(k_max)
            return tangent_numbers(k_max)

        sn.reset_caches()
        monkeypatch.setattr(sn, "_tangent_numbers", counted)
        try:
            climb()
        finally:
            monkeypatch.undo()
            sn.reset_caches()
        assert 1 <= len(calls) <= 8


class TestBernoulliPolynomials:
    def test_matches_fraction_sum(self):
        bs = fraction_recurrence_bernoulli(60)
        for n in range(61):
            coeffs = [Fraction(0)] * (n + 1)
            for k in range(n + 1):
                coeffs[n - k] = binomial(n, k) * bs[k]
            assert sn.bernoulli_poly(n) == Poly(coeffs)

    def test_anchors(self):
        assert sn.bernoulli_poly(0) == Poly([1])
        assert sn.bernoulli_poly(1) == Poly([Fraction(-1, 2), 1])
        assert sn.bernoulli_poly(2) == Poly([Fraction(1, 6), -1, 1])

    def test_value_at_zero_is_number(self):
        for n in range(13):
            assert sn.bernoulli_value(n, 0) == sn.bernoulli_number(n)

    def test_half_value(self):
        assert sn.bernoulli_value(2, Fraction(1, 2)) == Fraction(-1, 12)

    def test_value_matches_fraction_sum(self):
        """B_n(x) against sum_k C(n,k) B_k x^(n-k) on Fractions, with the
        B_k from the Fraction recurrence: no Poly and no tangent numbers."""
        bs = fraction_recurrence_bernoulli(60)
        for x in (0, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3)):
            for n in range(61):
                expected = sum((binomial(n, k) * bs[k] * x ** (n - k)
                                for k in range(n + 1)), Fraction(0))
                assert sn.bernoulli_value(n, x) == expected

    @given(small_fractions, small_fractions)
    @settings(max_examples=30)
    def test_addition_formula(self, x, y):
        for n in range(13):
            lhs = sn.bernoulli_value(n, x + y)
            rhs = sum(binomial(n, k) * sn.bernoulli_value(k, x) * y ** (n - k)
                      for k in range(n + 1))
            assert lhs == rhs


class TestTables:
    def test_eulerian_rows(self):
        rows = sn.table_rows("eulerian", 3)
        assert rows == [["1"], ["1", "1"], ["1", "4", "1"]]

    def test_macmahon_rows(self):
        assert sn.table_rows("macmahon", 4)[-1] == ["1", "23", "23", "1"]

    def test_bernoulli_rows(self):
        rows = sn.table_rows("bernoulli", 4)
        assert rows == [["1"], ["-1/2"], ["1/6"], ["0"], ["-1/30"]]

    def test_bernoulli_poly_rows(self):
        rows = sn.table_rows("bernoulli-poly", 2)
        assert rows == [["1"], ["-1/2", "1"], ["1/6", "-1", "1"]]

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            sn.table_rows("eulerian", 0)
        with pytest.raises(ValueError):
            sn.table_rows("fibonacci", 3)

    @pytest.mark.parametrize("kind", sn.TABLE_KINDS)
    def test_limit_checked_before_any_work(self, monkeypatch, kind):
        """The limit itself is accepted and limit + 1 refused, with no row,
        number or polynomial computed for the refusal."""
        def work(*args):
            raise RuntimeError("work started")

        for name in ("eulerian_row", "macmahon_row", "bernoulli_numbers",
                     "bernoulli_poly"):
            monkeypatch.setattr(sn, name, work)
        with pytest.raises(RuntimeError):
            sn.table_rows(kind, sn.TABLE_LIMITS[kind])
        with pytest.raises(ValueError):
            sn.table_rows(kind, sn.TABLE_LIMITS[kind] + 1)

    @pytest.mark.parametrize("values, converted", [
        ((7,), 1), ((7, 7), 1), ((3, 9, 3), 2), ((3, 9, 9, 3), 2),
        ((3, 9, 9, 4), 4), ((5, 5, 5, 5), 2),
    ])
    def test_row_strings_convert_half_a_symmetric_row(self, values, converted):
        """A palindromic row converts its first half, with the middle value,
        and mirrors the strings; any other row converts every value."""
        calls = []

        class Counted(int):
            def __str__(self):
                calls.append(int(self))
                return int.__str__(self)

        row = tuple(map(Counted, values))
        assert sn._row_strings(row) == [str(v) for v in values]
        assert len(calls) == converted

    @pytest.mark.parametrize("kind, fixture", [
        ("eulerian", "mutated_eulerian_recurrence"),
        ("macmahon", "mutated_macmahon_recurrence"),
    ])
    def test_strings_do_not_assume_symmetric_rows(self, request, kind, fixture):
        """Under a faulty recurrence the rows are not palindromes, and every
        entry still prints as its own value."""
        request.getfixturevalue(fixture)
        row = sn.eulerian_row if kind == "eulerian" else sn.macmahon_row
        rows = [row(n) for n in range(1, 31)]
        assert any(r != r[::-1] for r in rows)
        assert sn.table_rows(kind, 30) == [[str(v) for v in r] for r in rows]


class TestMutationHook:
    def test_patched_recurrence_changes_rows(self, mutated_eulerian_recurrence):
        assert sn.eulerian_row(1) == (1,)
        assert sn.eulerian_row(3) != (1, 4, 1)
        assert any(sn.eulerian(n, k) != sn.eulerian_explicit(n, k)
                   for n in range(2, 6) for k in range(n))

    def test_reset_restores_good_rows(self):
        assert sn.eulerian_row(3) == (1, 4, 1)
