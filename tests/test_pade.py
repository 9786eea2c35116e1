import math

import numpy as np
import pytest

from specgrad.core import Precision
from specgrad.errors import InvalidInputError, NumericalFailureError, PoleError
from specgrad.pade import (
    PadeApproximant,
    PowerSeries,
    approximation_error_table,
    diagonal_degrees,
    eval_rational,
    geometric_series,
    pade_from_continued_fraction,
    pade_from_series,
    reciprocal_gap_pade,
    series_match_residual,
    taylor_eval,
)


def exp_series(length: int) -> PowerSeries:
    return PowerSeries(np.array([1.0 / math.factorial(i) for i in range(length)]))


class TestFromSeries:
    def test_geometric_0_1_is_exact(self):
        # hand-solved lower block: a_1 + a_0 q_1 = 0 gives q_1 = -1
        pa = pade_from_series(geometric_series(2), 0, 1)
        np.testing.assert_allclose(pa.p, [1.0])
        np.testing.assert_allclose(pa.q, [-1.0])
        assert eval_rational(pa, 0.5) == pytest.approx(2.0)

    def test_exp_1_1_classic(self):
        pa = pade_from_series(exp_series(3), 1, 1)
        np.testing.assert_allclose(pa.p, [1.0, 0.5], atol=1e-14)
        np.testing.assert_allclose(pa.q, [-0.5], atol=1e-14)
        assert eval_rational(pa, 1.0) == pytest.approx(3.0)

    def test_zero_denominator_degree_truncates_taylor(self):
        series = PowerSeries(np.array([2.0, 3.0, 5.0, 7.0]))
        pa = pade_from_series(series, 2, 0)
        np.testing.assert_allclose(pa.p, [2.0, 3.0, 5.0])
        assert pa.q.size == 0

    def test_insufficient_series_length(self):
        with pytest.raises(InvalidInputError):
            pade_from_series(geometric_series(3), 2, 2)

    def test_one_coefficient_gives_the_0_0_approximant(self):
        pa = pade_from_series(geometric_series(1), 0, 0)
        assert pa.degrees == (0, 0)
        assert eval_rational(pa, 0.75) == 1.0
        # the continued fraction checks its own length: [1/0] needs two
        with pytest.raises(InvalidInputError):
            pade_from_continued_fraction(geometric_series(1), 0)
        with pytest.raises(InvalidInputError):
            PowerSeries(np.zeros(0))

    def test_series_match_invariant(self):
        for m, n in ((1, 1), (2, 1), (3, 2), (5, 4)):
            pa = pade_from_series(exp_series(m + n + 1), m, n)
            assert series_match_residual(pa, exp_series(m + n + 1)) <= 1e-8

    def test_singular_toeplitz_minimum_norm(self):
        # all-ones Toeplitz block; the min-norm solution still matches the series
        pa = pade_from_series(geometric_series(10), 5, 4)
        assert series_match_residual(pa, geometric_series(10)) <= 1e-12
        for x in (0.1, 0.5, 0.9):
            assert eval_rational(pa, x) == pytest.approx(1.0 / (1.0 - x), rel=1e-12)


class TestContinuedFraction:
    def test_geometric_evaluates_exactly(self):
        for n in (1, 2, 5):
            pa = pade_from_continued_fraction(geometric_series(2 * n + 2), n)
            for x in (0.1, 0.5, 0.9):
                assert abs(eval_rational(pa, x) - 1.0 / (1.0 - x)) <= 1e-12

    def test_exp_2_1_matches_linear_solve(self):
        cf = pade_from_continued_fraction(exp_series(4), 1)
        lin = pade_from_series(exp_series(4), 2, 1)
        for x in np.linspace(-1.0, 1.0, 21):
            assert abs(eval_rational(cf, x) - eval_rational(lin, x)) <= 1e-10

    def test_n_zero_is_linear_taylor(self):
        series = PowerSeries(np.array([2.0, -3.0, 1.0]))
        pa = pade_from_continued_fraction(series, 0)
        np.testing.assert_allclose(pa.p, [2.0, -3.0])
        assert pa.q.size == 0

    def test_uniqueness_against_linear_solve(self):
        # nonsingular Toeplitz block: both constructions give one approximant
        for n in (1, 2, 3):
            m = n + 1
            cf = pade_from_continued_fraction(exp_series(m + n + 1), n)
            lin = pade_from_series(exp_series(m + n + 1), m, n)
            for x in np.linspace(-0.9, 0.9, 19):
                assert abs(eval_rational(cf, x) - eval_rational(lin, x)) <= 1e-9

    def test_series_match_invariant(self):
        pa = pade_from_continued_fraction(exp_series(8), 3)
        assert series_match_residual(pa, exp_series(8)) <= 1e-8

    def test_breakdown_is_typed(self):
        # a_1 = 0 cannot seed the fraction
        series = PowerSeries(np.array([1.0, 0.0, 1.0, 0.0]))
        with pytest.raises(NumericalFailureError):
            pade_from_continued_fraction(series, 1)


class TestEvalRational:
    def test_x_zero_returns_p0(self):
        pa = pade_from_series(exp_series(4), 2, 1)
        assert eval_rational(pa, 0.0) == pytest.approx(1.0)

    def test_pole_is_reported(self):
        pa = PadeApproximant(np.array([1.0]), np.array([-1.0]))
        with pytest.raises(PoleError) as err:
            eval_rational(pa, 1.0)
        assert err.value.details["x"] == 1.0

    def test_pole_in_an_array_names_the_first_offending_x(self):
        pa = PadeApproximant(np.array([1.0]), np.array([-1.0]))
        with pytest.raises(PoleError) as err:
            eval_rational(pa, np.array([0.5, 1.0, 0.25, 1.0]))
        assert err.value.details == {"x": 1.0}
        assert str(err.value) == "denominator vanishes at x = 1.0"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestArrayEvaluation:
    """One evaluator per surrogate: an array call is the scalar calls, elementwise."""

    XS = (0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0)

    def test_taylor_eval(self, dtype):
        got = taylor_eval(100, np.array(self.XS, dtype=dtype), dtype=dtype)
        assert got.dtype == dtype
        expected = [taylor_eval(100, dtype(x), dtype=dtype) for x in self.XS]
        np.testing.assert_array_equal(got, np.array(expected, dtype=dtype))

    def test_eval_rational(self, dtype):
        prec = Precision.double() if dtype is np.float64 else Precision.single()
        pa = reciprocal_gap_pade(50, prec)
        xs = self.XS[:-1]  # 1 is the pole
        got = eval_rational(pa, np.array(xs, dtype=dtype))
        assert got.dtype == dtype
        expected = [eval_rational(pa, dtype(x)) for x in xs]
        np.testing.assert_array_equal(got, np.array(expected, dtype=dtype))


class TestDegreeBookkeeping:
    def test_degree_100_gives_50_49(self):
        assert diagonal_degrees(100) == (50, 49)

    def test_total_coefficients_is_degree(self):
        for k in (1, 2, 3, 50, 101, 300):
            m, n = diagonal_degrees(k)
            assert m + n + 1 == k
            assert m in (n, n + 1)

    def test_cached_approximant_consistent(self):
        pa = reciprocal_gap_pade(100)
        assert pa.degrees == (50, 49)
        assert pa is reciprocal_gap_pade(100)


class TestErrorTable:
    def test_taylor_remainder_law(self):
        # |1/(1-x) - sum_{i<=K} x^i| = x^(K+1)/(1-x), checked within 1%
        table = approximation_error_table(
            "taylor", (50, 100, 200, 300), (0.5, 0.7, 0.9, 0.99), Precision.double()
        )
        for i, x in enumerate(table.ratios):
            for j, k in enumerate(table.degrees):
                expected = x ** (k + 1) / (1.0 - x)
                if expected > 1e-12:  # above the double-precision noise floor
                    assert table.errors[i, j] == pytest.approx(expected, rel=1e-2)

    def test_taylor_reference_cells(self):
        table = approximation_error_table(
            "taylor", (100,), (0.9, 0.99, 0.999), Precision.double()
        )
        assert table.cell(0.99, 100) == pytest.approx(36.0, rel=0.1)
        assert table.cell(0.999, 100) == pytest.approx(904.0, rel=0.1)
        # the 0.9 cell prints as 2e-4 at one significant figure
        assert 1.5e-4 <= table.cell(0.9, 100) < 2.5e-4

    def test_pade_cells_tiny_everywhere(self):
        table = approximation_error_table(
            "pade",
            (50, 100, 200, 300),
            (0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999),
            Precision.double(),
        )
        assert table.errors.max() <= 1e-9

    def test_pade_dominates_taylor_near_the_pole(self):
        ratios = (0.9, 0.99, 0.999)
        taylor = approximation_error_table("taylor", (100,), ratios)
        pade = approximation_error_table("pade", (100,), ratios)
        for i in range(len(ratios)):
            assert pade.errors[i, 0] < taylor.errors[i, 0] * 1e-6

    def test_ratio_zero_is_exact(self):
        table = approximation_error_table("taylor", (50,), (0.0,))
        assert table.errors.max() == 0.0

    def test_ratio_one_rejected(self):
        with pytest.raises(InvalidInputError):
            approximation_error_table("taylor", (50,), (1.0,))

    def test_single_precision_floor(self):
        # float32 arithmetic cannot see errors below its epsilon scale
        table = approximation_error_table("taylor", (100,), (0.5,), Precision.single())
        assert table.errors[0, 0] <= 1e-5

    def test_single_precision_pade_table_is_finite(self):
        # float32 coefficient solve and evaluation stay well-behaved even at
        # the near-pole column (values are float32-roundoff limited)
        table = approximation_error_table(
            "pade", (50, 100), (0.5, 0.9, 0.999), Precision.single()
        )
        assert np.all(np.isfinite(table.errors))
        assert table.cell(0.5, 100) <= 1e-5

    def test_taylor_eval_tie_value(self):
        assert taylor_eval(100, 1.0) == 101.0
