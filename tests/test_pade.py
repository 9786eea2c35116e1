import math

import numpy as np
import pytest

from specgrad.errors import InvalidInputError, NumericalFailureError, PoleError
from specgrad.pade import (
    PadeApproximant,
    PowerSeries,
    approximation_error_table,
    diagonal_degrees,
    eval_rational,
    geometric_series,
    horner,
    pade_from_series,
    reciprocal_gap_pade,
)
from specgrad.schemes import BackwardScheme, k_matrix

from oracles import pade_from_continued_fraction, series_match_residual, table_cell


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

    def test_zero_denominator_degree_keeps_the_coefficient_dtype(self):
        # an [m/0] approximant of float32 coefficients evaluates in float32
        pa = pade_from_series(geometric_series(5, np.float32), 4, 0)
        assert pa.q.dtype == pa.q_full.dtype == np.float32
        assert eval_rational(pa, np.float32([0.5])).dtype == np.float32

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

    def test_non_finite_coefficients_refused(self):
        with pytest.raises(InvalidInputError, match="power series coefficients must be finite"):
            PowerSeries(np.array([1.0, np.nan]))
        with pytest.raises(InvalidInputError, match="non-finite approximant coefficients"):
            PadeApproximant(np.array([1.0]), np.array([np.inf]))

    def test_series_match_invariant(self):
        for m, n in ((1, 1), (2, 1), (3, 2), (5, 4)):
            pa = pade_from_series(exp_series(m + n + 1), m, n)
            assert series_match_residual(pa, exp_series(m + n + 1)) <= 1e-8

    def test_integer_coefficients_solve_in_float64(self):
        ints = pade_from_series(PowerSeries(np.arange(1, 7)), 2, 3)
        floats = pade_from_series(PowerSeries(np.arange(1.0, 7.0)), 2, 3)
        assert ints.p.dtype == ints.q.dtype == np.float64
        np.testing.assert_array_equal(ints.p, floats.p)
        np.testing.assert_array_equal(ints.q, floats.q)

    def test_integer_approximant_evaluates_in_float64(self):
        # (1 + 2x) / (1 + x) at x = 0.5; int coefficients must not cast x to int
        pa = PadeApproximant(np.array([1, 2]), np.array([1]))
        assert pa.p.dtype == pa.q.dtype == np.float64
        assert eval_rational(pa, 0.5) == 4 / 3

    def test_float16_coefficients_evaluate_in_float64(self):
        half = np.float16
        pa = PadeApproximant(np.array([1, 2], dtype=half), np.array([1], dtype=half))
        assert pa.p.dtype == pa.q.dtype == np.float64
        assert eval_rational(pa, half(0.5)).dtype == np.float64
        assert eval_rational(pa, half(0.5)) == 4 / 3
        assert PowerSeries(np.ones(3, dtype=half)).coeffs.dtype == np.float64

    def test_numerator_and_denominator_share_one_width(self):
        single = np.ones(2, dtype=np.float32)
        assert PadeApproximant(single, single[:1]).q.dtype == np.float32
        mixed = PadeApproximant(single, np.ones(1))
        assert mixed.p.dtype == mixed.q.dtype == np.float64

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

    def test_rational_series_terminates_at_its_degree(self):
        # 1/(1-x) is [0/1]: e_1 vanishes and the fraction stops there
        pa = pade_from_continued_fraction(geometric_series(8), 3)
        assert pa.degrees == (0, 1)
        assert pa.p.tolist() == [1.0] and pa.q.tolist() == [-1.0]

    def test_interior_breakdown_names_its_step(self):
        # e_1^(1) = 0 with the column still needed for q_2
        series = PowerSeries(np.array([0.0, 1.0, 1.0, -1.0, 1.0, 0.0]))
        with pytest.raises(NumericalFailureError) as err:
            pade_from_continued_fraction(series, 2)
        assert err.value.details == {"step": "e_1^(1)"}


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

    @pytest.mark.parametrize("kind", ["taylor", "pade"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_x_is_refused(self, kind, bad):
        # a nan from a nan x would pass on silently
        pa = reciprocal_gap_pade(kind, 4)
        for x in (bad, np.array([0.5, bad, 0.25])):
            with pytest.raises(InvalidInputError) as err:
                eval_rational(pa, x)
            assert str(err.value) == f"x must be finite, got {float(bad)!r}"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestArrayEvaluation:
    """One evaluator for both surrogates: an array call is the scalar calls, elementwise."""

    XS = (0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0)

    def test_taylor_eval(self, dtype):
        pa = reciprocal_gap_pade("taylor", 100, dtype)
        got = eval_rational(pa, np.array(self.XS, dtype=dtype))
        assert got.dtype == dtype
        expected = [eval_rational(pa, dtype(x)) for x in self.XS]
        np.testing.assert_array_equal(got, np.array(expected, dtype=dtype))
        # the [100/0] denominator is exactly 1: the bits of the bare polynomial
        xs = np.array(self.XS, dtype=dtype)
        np.testing.assert_array_equal(got, horner(np.ones(101, dtype=dtype), xs))

    def test_eval_rational(self, dtype):
        pa = reciprocal_gap_pade("pade", 50, dtype)
        xs = self.XS[:-1]  # 1 is the pole
        got = eval_rational(pa, np.array(xs, dtype=dtype))
        assert got.dtype == dtype
        expected = [eval_rational(pa, dtype(x)) for x in xs]
        np.testing.assert_array_equal(got, np.array(expected, dtype=dtype))


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def two_real_passes(pa, x):
    """The oracle of the packed pass: numerator and denominator evaluated apart."""
    return horner(pa.p, x) / horner(pa.q_full, x)


@pytest.mark.parametrize("kind", ["taylor", "pade"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestPackedEvaluation:
    """One complex Horner pass gives the bits of two real passes."""

    DEGREES = (1, 2, 3, 4, 7, 50, 100, 300)

    def test_matches_two_real_passes(self, kind, dtype):
        eps = np.finfo(dtype).eps
        xs = np.array([0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1 - eps], dtype=dtype)
        for k in self.DEGREES:
            pa = reciprocal_gap_pade(kind, k, dtype)
            assert_same_bits(eval_rational(pa, xs), two_real_passes(pa, xs))
            assert_same_bits(eval_rational(pa, xs[3]), two_real_passes(pa, xs[3]))

    def test_pole_at_one_matches_two_real_passes(self, kind, dtype):
        # the pole rule of eval_rational, applied to the oracle's denominator;
        # float32 cannot hold the 1e-300 floor, so its floor is its smallest
        # normal, and an exact zero there is a pole too
        one = np.ones(1, dtype=dtype)
        floor = max(1e-300, np.finfo(dtype).tiny)
        for k in self.DEGREES:
            pa = reciprocal_gap_pade(kind, k, dtype)
            if np.abs(horner(pa.q_full, one))[0] < floor:
                with pytest.raises(PoleError) as err:
                    eval_rational(pa, one)
                assert err.value.details == {"x": 1.0}
            else:
                with np.errstate(divide="ignore"):
                    assert_same_bits(eval_rational(pa, one), two_real_passes(pa, one))

    @pytest.mark.parametrize("d", [2, 8, 128])
    def test_k_matrix_at_a_tie_at_eps(self, kind, dtype, d):
        # the lower half of the spectrum ties at the clamp floor of the width
        eps = float(np.finfo(dtype).eps)
        lam = np.concatenate([np.linspace(1.0, 0.1, d - d // 2), np.full(d // 2, eps)])
        rows, cols = np.triu_indices(d, 1)
        ratios = lam[cols] / lam[rows]
        for k in self.DEGREES:
            pa = reciprocal_gap_pade(kind, k)
            if np.any(np.abs(horner(pa.q_full, ratios)) < 1e-300):
                with pytest.raises(PoleError, match="x = 1.0"):
                    k_matrix(lam, BackwardScheme(kind, k))
                continue
            k_data = k_matrix(lam, BackwardScheme(kind, k))
            assert_same_bits(k_data[rows, cols], two_real_passes(pa, ratios) / lam[rows])

    def test_no_warning_below_the_pole(self, kind, dtype):
        # the packed pass adds no inf * 0 anywhere the package evaluates
        eps = np.finfo(dtype).eps
        xs = np.append(np.linspace(0, 1, 201, dtype=dtype)[:-1], dtype(1 - eps))
        with np.errstate(all="warn"):  # pytest turns any RuntimeWarning into an error
            for k in self.DEGREES:
                assert np.all(np.isfinite(eval_rational(reciprocal_gap_pade(kind, k, dtype), xs)))


def test_an_overflowing_half_poisons_the_other():
    # outside [0, 1]: x^100 overflows Taylor's P; its Q = 1 is not packed
    # (one real pass), so the value is inf, as two real passes give
    pa = reciprocal_gap_pade("taylor", 100)
    with np.errstate(over="ignore", invalid="ignore"):
        assert two_real_passes(pa, np.float64(1e4)) == np.inf
        assert eval_rational(pa, 1e4) == np.inf
        assert eval_rational(pa, np.array([0.5, 1e4]))[0] == two_real_passes(pa, 0.5)
        # with a denominator the halves share the pass: P = x^3 overflows
        # before the last step, and inf * 0 turns the exact Q = 1 into nan
        cubic = PadeApproximant(np.array([0.0, 0.0, 0.0, 1.0]), np.array([0.0]))
        assert two_real_passes(cubic, np.float64(1e200)) == np.inf
        assert np.isnan(eval_rational(cubic, 1e200))


class TestPackedCoefficients:
    """The packed p + iq vector is built once per approximant and never goes stale."""

    X = np.linspace(0.0, 0.99, 37)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_repeated_calls_give_the_same_bits(self, dtype):
        pa = reciprocal_gap_pade("pade", 100, dtype)
        x = self.X.astype(dtype)
        first = eval_rational(pa, x)
        assert pa.packed is pa.packed  # packed once and kept
        assert not pa.packed.flags.writeable
        for _ in range(3):
            assert_same_bits(eval_rational(pa, x), first)
        assert_same_bits(first, two_real_passes(pa, x))

    def test_equal_but_distinct_approximants_pack_their_own(self):
        a = pade_from_series(geometric_series(7), 3, 3)
        b = pade_from_series(geometric_series(7), 3, 3)
        other = pade_from_series(exp_series(7), 3, 3)
        assert a is not b
        assert np.array_equal(a.p, b.p) and np.array_equal(a.q, b.q)
        assert_same_bits(eval_rational(a, self.X), eval_rational(b, self.X))
        assert a.packed is not b.packed
        # packing one approximant leaves another's values alone
        assert_same_bits(eval_rational(other, self.X), two_real_passes(other, self.X))
        assert_same_bits(eval_rational(a, self.X), two_real_passes(a, self.X))

    def test_float32_packs_as_complex64(self):
        pa = reciprocal_gap_pade("pade", 100, np.float32)
        assert pa.packed.dtype == np.complex64
        assert reciprocal_gap_pade("pade", 100).packed.dtype == np.complex128
        out = eval_rational(pa, self.X.astype(np.float32))
        assert out.dtype == np.float32
        assert_same_bits(out, two_real_passes(pa, self.X.astype(np.float32)))

    @pytest.mark.parametrize("m,n", [(4, 3), (3, 3), (2, 5)])
    def test_packed_holds_p_and_q_zero_padded(self, m, n):
        pa = pade_from_series(exp_series(m + n + 1), m, n)
        size = max(m, n) + 1
        assert pa.packed.shape == (size,)
        assert np.array_equal(pa.packed.real, np.pad(pa.p, (0, size - m - 1)))
        assert np.array_equal(pa.packed.imag, np.pad(pa.q_full, (0, size - n - 1)))


def test_float32_pole_is_typed():
    # [1/1] of 1/(1-x) has Q(1) = 0 exactly; float32 cannot hold the 1e-300
    # floor, so it compares against its smallest normal, and raises before
    # dividing (pytest turns a divide-by-zero RuntimeWarning into an error)
    with pytest.raises(PoleError, match="x = 1.0"):
        eval_rational(reciprocal_gap_pade("pade", 3, np.float32), np.float32([1.0]))


class TestDegreeBookkeeping:
    def test_degree_100_gives_50_49(self):
        assert diagonal_degrees(100) == (50, 49)

    def test_total_coefficients_is_degree(self):
        for k in (1, 2, 3, 50, 101, 300):
            m, n = diagonal_degrees(k)
            assert m + n + 1 == k
            assert m in (n, n + 1)

    def test_cached_approximant_consistent(self):
        pa = reciprocal_gap_pade("pade", 100)
        assert pa.degrees == (50, 49)
        assert pa is reciprocal_gap_pade("pade", 100)
        # one cache entry per width, however the dtype is spelled
        assert pa is reciprocal_gap_pade("pade", 100, "float64")

    def test_taylor_is_the_k_0_approximant(self):
        pa = reciprocal_gap_pade("taylor", 7, np.float32)
        assert pa.degrees == (7, 0)
        assert pa.p.dtype == pa.q.dtype == np.float32
        np.testing.assert_array_equal(pa.p, np.ones(8, dtype=np.float32))
        # [1/0] = 1 + x is both taylor(1) and pade(2): one cache entry
        assert reciprocal_gap_pade("taylor", 1) is reciprocal_gap_pade("pade", 2)

    @pytest.mark.parametrize("kind", ["both", "Taylor", None])
    def test_unknown_kind_refused(self, kind):
        message = f"kind must be 'taylor' or 'pade', got {kind!r}"
        with pytest.raises(InvalidInputError, match=message):
            reciprocal_gap_pade(kind, 3)
        with pytest.raises(InvalidInputError, match=message):
            approximation_error_table(kind, (3,), (0.5,))


class TestErrorTable:
    def test_taylor_remainder_law(self):
        # |1/(1-x) - sum_{i<=K} x^i| = x^(K+1)/(1-x), checked within 1%
        table = approximation_error_table("taylor", (50, 100, 200, 300), (0.5, 0.7, 0.9, 0.99))
        for i, x in enumerate(table.ratios):
            for j, k in enumerate(table.degrees):
                expected = x ** (k + 1) / (1.0 - x)
                if expected > 1e-12:  # above the double-precision noise floor
                    assert table.errors[i, j] == pytest.approx(expected, rel=1e-2)

    def test_taylor_reference_cells(self):
        table = approximation_error_table("taylor", (100,), (0.9, 0.99, 0.999))
        assert table_cell(table, 0.99, 100) == pytest.approx(36.0, rel=0.1)
        assert table_cell(table, 0.999, 100) == pytest.approx(904.0, rel=0.1)
        # the 0.9 cell prints as 2e-4 at one significant figure
        assert 1.5e-4 <= table_cell(table, 0.9, 100) < 2.5e-4

    def test_pade_cells_tiny_everywhere(self):
        table = approximation_error_table(
            "pade",
            (50, 100, 200, 300),
            (0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999),
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

    @pytest.mark.parametrize(
        "degrees,ratios,dtype",
        [((), (0.5,), np.float64), ((10,), (), np.float64), ((10,), (0.5,), np.int64)],
        ids=["no-degrees", "no-ratios", "int64"],
    )
    def test_empty_grid_or_non_float_width_rejected(self, degrees, ratios, dtype):
        with pytest.raises(InvalidInputError):
            approximation_error_table("pade", degrees, ratios, dtype)

    def test_single_precision_floor(self):
        # float32 arithmetic cannot see errors below its epsilon scale
        table = approximation_error_table("taylor", (100,), (0.5,), np.float32)
        assert table.errors[0, 0] <= 1e-5

    def test_single_precision_pade_table_is_finite(self):
        # float32 coefficient solve and evaluation stay well-behaved even at
        # the near-pole column (values are float32-roundoff limited)
        table = approximation_error_table("pade", (50, 100), (0.5, 0.9, 0.999), np.float32)
        assert np.all(np.isfinite(table.errors))
        assert table_cell(table, 0.5, 100) <= 1e-5

    def test_taylor_eval_tie_value(self):
        assert eval_rational(reciprocal_gap_pade("taylor", 100), 1.0) == 101.0

    def test_single_precision_pade_without_denominator_is_float32(self):
        # degrees 1 and 2 are [0/0] and [1/0]; 1/(1-0.9) - (1 + 0.9) in float32
        table = approximation_error_table("pade", (1, 2), (0.9,), np.float32)
        x = np.float32(0.9)
        exact = np.float32(1) / (np.float32(1) - x)
        assert table.errors[0, 1] == float(exact - (np.float32(1) + x)) == 8.099998474121094
