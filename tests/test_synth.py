import numpy as np
import pytest

from specgrad.errors import InvalidInputError
from specgrad.synth import feature_matrix_with_spectrum, spectrum_for_condition

from oracles import spectrum_with_min_gap


class TestSpectrumForCondition:
    @pytest.mark.parametrize("cond", [np.nan, np.inf, 0.5])
    def test_target_outside_finite_range_rejected(self, cond):
        with pytest.raises(InvalidInputError, match="finite and >= 1"):
            spectrum_for_condition(4, cond)

    @pytest.mark.parametrize("cond", [None, "10", True, np.True_, 10j], ids=repr)
    def test_target_that_is_not_a_real_number_refused(self, cond):
        # None and "10" used to raise TypeError, and True passed as 1
        with pytest.raises(InvalidInputError, match="condition target must be a real number"):
            spectrum_for_condition(4, cond)

    def test_single_eigenvalue_refused(self):
        with pytest.raises(InvalidInputError, match="need d >= 2 for a spectrum"):
            spectrum_for_condition(1, 10.0)


class TestFeatureMatrixWithSpectrum:
    # a count up to d fails the full-rank comparison first, a fraction the count rule
    @pytest.mark.parametrize(
        "n_cols,message",
        [(9.5, "n_cols must be a positive int, got 9.5"), (4, "need n_cols > d"),
         (0, "need n_cols > d"), (True, "need n_cols > d")],
        ids=["fraction", "d", "zero", "bool"],
    )
    def test_column_count_refused(self, n_cols, message, rng):
        with pytest.raises(InvalidInputError, match=message):
            feature_matrix_with_spectrum(np.ones(4), n_cols, rng)

    @pytest.mark.parametrize("n_cols", [None, "9", 9j], ids=repr)
    def test_column_count_that_is_not_a_number_refused(self, n_cols, rng):
        # checked before the comparison with d, which raised TypeError
        with pytest.raises(InvalidInputError, match=r"^n_cols must be a positive int, got"):
            feature_matrix_with_spectrum(np.ones(4), n_cols, rng)

    @pytest.mark.parametrize(
        "lam,message",
        [(np.ones((2, 2)), r"one non-empty 1-d vector, got shape \(2, 2\)$"),
         (np.ones(0), r"one non-empty 1-d vector, got shape \(0,\)$"),
         (3.0, r"one non-empty 1-d vector, got shape \(\)$"),
         # the array rule refuses them first, by name
         (["a", "b"], "^target eigenvalues must be numeric: ")],
        ids=["2-d", "empty", "scalar", "strings"],
    )
    def test_eigenvalues_that_are_not_one_vector_refused(self, lam, message, rng):
        # a 2-d target used to fail in a broadcast with a bare ValueError
        with pytest.raises(InvalidInputError, match=message):
            feature_matrix_with_spectrum(lam, 9, rng)

    def test_complex_eigenvalues_refused_not_truncated(self, rng):
        # np.asarray(..., float64) kept only the real parts: spectrum [2, 1]
        with pytest.raises(InvalidInputError, match="^target eigenvalues must be real, got complex"):
            feature_matrix_with_spectrum(np.array([2 + 5j, 1]), 9, rng)

    @pytest.mark.parametrize(
        "lam", [[1.0, 0.0], [1.0, -0.5], [1.0, np.nan], [1.0, np.inf]],
        ids=["zero", "negative", "nan", "inf"],
    )
    def test_non_positive_target_refused(self, lam, rng):
        # a nan or inf target used to reach the recolouring and fail there
        # with a RuntimeWarning or an error about the features
        with pytest.raises(InvalidInputError, match="target eigenvalues must be positive"):
            feature_matrix_with_spectrum(np.array(lam), 4, rng)

    def test_integral_float_column_count_passes(self, rng):
        x = feature_matrix_with_spectrum(np.array([3.0, 2.0, 1.0, 0.5]), 9.0, rng)
        assert x.n_samples == 9
        lam = np.linalg.eigvalsh(np.cov(x.data, bias=True))[::-1]
        np.testing.assert_allclose(lam, [3.0, 2.0, 1.0, 0.5], rtol=1e-10)


class TestSpectrumWithMinGap:
    def test_infeasible_gap_refused(self, rng):
        # five gaps of at least 0.2 * lambda_1 cannot fit under 0.8 * lambda_1
        with pytest.raises(InvalidInputError, match="cannot fit 5 gaps of at least 0.2"):
            spectrum_with_min_gap(6, rng, gap_frac=0.2)
