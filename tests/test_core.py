import math
import warnings

import numpy as np
import pytest

from specgrad.core import (
    EPS_DOUBLE,
    EPS_SINGLE,
    EigenDecomposition,
    FeatureMatrix,
    Precision,
    SymPsdMatrix,
    centering_matrix,
    clamp_eigenvalues,
    condition_number,
    covariance,
    eigh,
    matrix_power,
)
from specgrad.errors import DomainError, InvalidInputError, NumericalFailureError

from conftest import random_spd


class TestTypes:
    def test_feature_matrix_needs_two_samples(self):
        with pytest.raises(InvalidInputError):
            FeatureMatrix(np.zeros((3, 1)))

    def test_feature_matrix_rejects_nonfinite(self):
        bad = np.ones((2, 3))
        bad[0, 0] = np.nan
        with pytest.raises(InvalidInputError):
            FeatureMatrix(bad)

    def test_sym_matrix_symmetrizes_roundoff(self):
        a = np.array([[1.0, 2.0], [2.0 + 1e-14, 3.0]])
        m = SymPsdMatrix(a)
        assert np.array_equal(m.data, m.data.T)

    def test_sym_matrix_keeps_entries_near_the_float_maximum(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = SymPsdMatrix(np.diag([1e308, 1e308]))
        assert np.array_equal(np.diag(m.data), [1e308, 1e308])

    def test_sym_matrix_symmetrizes_as_the_mean_of_a_and_its_transpose(self, rng):
        # halving before adding rounds like halving the sum (outside subnormals)
        for scale in (1e-300, 1e-8, 1.0, 1e8, 1e300):
            a = scale * rng.normal(size=(6, 6))
            a = a + 1e-14 * np.abs(a).max() * rng.normal(size=a.shape) + a.T
            assert np.array_equal(SymPsdMatrix(a).data, 0.5 * (a + a.T))

    def test_sym_matrix_rejects_asymmetric(self):
        with pytest.raises(InvalidInputError):
            SymPsdMatrix(np.array([[1.0, 2.0], [0.0, 3.0]]))

    def test_eigendecomposition_enforces_order(self):
        with pytest.raises(InvalidInputError):
            EigenDecomposition(np.array([1.0, 2.0]), np.eye(2))

    def test_eigendecomposition_enforces_orthogonality(self):
        u = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(InvalidInputError):
            EigenDecomposition(np.array([2.0, 1.0]), u)

    def test_precision_eps_values(self):
        assert Precision.double().eps == EPS_DOUBLE == 2.220446049250313e-16
        assert Precision.single().eps == EPS_SINGLE == 1.1920929e-07
        with pytest.raises(InvalidInputError):
            Precision("half")


class TestCovariance:
    def test_constant_rows_give_zero(self):
        x = FeatureMatrix(np.array([[3.0, 3.0, 3.0], [-1.0, -1.0, -1.0]]))
        assert np.abs(covariance(x).data).max() == 0.0

    def test_hand_case(self):
        # P = X Ibar X^T for X = [[1,-1],[0,0]]: centered columns are
        # (1,0) and (-1,0), so the (0,0) entry is (1 + 1)/2 = 1
        x = FeatureMatrix(np.array([[1.0, -1.0], [0.0, 0.0]]))
        np.testing.assert_allclose(
            covariance(x).data, np.array([[1.0, 0.0], [0.0, 0.0]]), atol=1e-15
        )

    def test_matches_centering_matrix_formula(self, rng):
        x = rng.normal(size=(4, 50))
        direct = covariance(FeatureMatrix(x)).data
        literal = x @ centering_matrix(50) @ x.T
        np.testing.assert_allclose(direct, literal, atol=1e-13)

    def test_matches_per_sample_oracle(self, rng):
        x = rng.normal(size=(4, 50))
        mean = x.mean(axis=1)
        oracle = sum(np.outer(x[:, i] - mean, x[:, i] - mean) for i in range(50)) / 50
        np.testing.assert_allclose(covariance(FeatureMatrix(x)).data, oracle, atol=1e-12)

    def test_output_is_psd_up_to_roundoff(self, rng):
        for _ in range(10):
            x = rng.normal(size=(6, 9))
            p = covariance(FeatureMatrix(x))
            lam = np.linalg.eigvalsh(p.data)
            assert lam.min() >= -1e-10 * max(lam.max(), 1.0)
            assert np.array_equal(p.data, p.data.T)


class TestEigh:
    def test_diagonal_matrix(self):
        e = eigh(SymPsdMatrix(np.diag([4.0, 1.0])))
        np.testing.assert_allclose(e.eigenvalues, [4.0, 1.0])
        np.testing.assert_allclose(np.abs(e.eigenvectors), np.eye(2), atol=1e-14)

    def test_analytic_2x2(self):
        e = eigh(SymPsdMatrix(np.array([[2.0, 1.0], [1.0, 2.0]])))
        np.testing.assert_allclose(e.eigenvalues, [3.0, 1.0], rtol=1e-14)
        s = 1.0 / math.sqrt(2.0)
        got = np.abs(e.eigenvectors)
        np.testing.assert_allclose(got, [[s, s], [s, s]], rtol=1e-12)

    def test_reconstruction_residual(self, rng):
        for d in (2, 3, 5, 8, 16):
            p = random_spd(d, rng)
            e = eigh(p)
            residual = np.abs(e.reconstruct() - p.data).max()
            assert residual <= 1e-9 * (1.0 + e.eigenvalues[0])

    def test_matches_reference_eigenvalues(self, rng):
        for _ in range(5):
            p = random_spd(7, rng)
            e = eigh(p)
            ref = np.linalg.eigvalsh(p.data)[::-1]
            np.testing.assert_allclose(e.eigenvalues, ref, rtol=1e-10, atol=1e-12)

    def test_deterministic(self, rng):
        p = random_spd(6, rng)
        e1 = eigh(p)
        e2 = eigh(p)
        assert np.array_equal(e1.eigenvalues, e2.eigenvalues)
        assert np.array_equal(e1.eigenvectors, e2.eigenvectors)

    def test_sign_convention(self, rng):
        for _ in range(5):
            e = eigh(random_spd(5, rng))
            anchors = np.argmax(np.abs(e.eigenvectors), axis=0)
            assert all(e.eigenvectors[anchors[j], j] > 0 for j in range(5))

    def test_repeated_eigenvalues_give_orthogonal_basis(self):
        p = SymPsdMatrix(np.diag([2.0, 2.0, 1.0]))
        e = eigh(p)
        np.testing.assert_allclose(e.eigenvalues, [2.0, 2.0, 1.0], rtol=1e-14)
        # subspace comparison, not vector comparison: span of first two
        # columns must be the xy-plane
        sub = e.eigenvectors[:, :2]
        proj = sub @ sub.T
        np.testing.assert_allclose(proj, np.diag([1.0, 1.0, 0.0]), atol=1e-12)

    def test_zero_matrix(self):
        e = eigh(SymPsdMatrix(np.zeros((3, 3))))
        np.testing.assert_allclose(e.eigenvalues, np.zeros(3))

    @pytest.mark.parametrize("d", [1, 64, 256])  # 256: the paper's pooling width
    def test_moderately_large_matrix(self, rng, d):
        p = random_spd(d, rng)
        e = eigh(p)
        assert np.abs(e.reconstruct() - p.data).max() <= 1e-9 * (1.0 + e.eigenvalues[0])
        assert np.abs(e.eigenvectors.T @ e.eigenvectors - np.eye(d)).max() <= 1e-10
        ref = np.linalg.eigvalsh(p.data)[::-1]
        np.testing.assert_allclose(e.eigenvalues, ref, rtol=1e-9, atol=1e-10)
        anchors = np.argmax(np.abs(e.eigenvectors), axis=0)
        assert np.all(e.eigenvectors[anchors, np.arange(d)] > 0)

    def test_solver_failure_is_typed(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NumericalFailureError):
            eigh(SymPsdMatrix(np.eye(2)))


class TestClamp:
    def test_forced_by_rule(self):
        e = EigenDecomposition(np.array([1.0, 0.0]), np.eye(2))
        out = clamp_eigenvalues(e, Precision.double())
        np.testing.assert_allclose(out.eigenvalues, [1.0, EPS_DOUBLE])

    def test_no_change_above_eps(self):
        e = EigenDecomposition(np.array([1.0, 0.5]), np.eye(2))
        out = clamp_eigenvalues(e, Precision.double())
        np.testing.assert_allclose(out.eigenvalues, [1.0, 0.5])

    def test_tiny_values_collapse_to_eps(self):
        e = EigenDecomposition(np.array([1e-20, 1e-30]), np.eye(2))
        out = clamp_eigenvalues(e, Precision.double())
        np.testing.assert_allclose(out.eigenvalues, [EPS_DOUBLE, EPS_DOUBLE])

    def test_single_precision_eps(self):
        e = EigenDecomposition(np.array([1.0, 1e-9]), np.eye(2))
        out = clamp_eigenvalues(e, Precision.single())
        np.testing.assert_allclose(out.eigenvalues, [1.0, EPS_SINGLE])

    def test_idempotent(self, rng):
        lam = np.sort(np.abs(rng.normal(size=6) * 1e-12))[::-1]
        e = EigenDecomposition(lam, np.eye(6))
        once = clamp_eigenvalues(e, Precision.double())
        twice = clamp_eigenvalues(once, Precision.double())
        assert np.array_equal(once.eigenvalues, twice.eigenvalues)


class TestMatrixPower:
    def test_diagonal_square_root(self):
        e = eigh(SymPsdMatrix(np.diag([4.0, 1.0])))
        q = matrix_power(e, 0.5)
        np.testing.assert_allclose(q.data, np.diag([2.0, 1.0]), atol=1e-14)

    def test_identity_power(self, rng):
        p = random_spd(5, rng)
        q = matrix_power(eigh(p), 1.0)
        assert np.abs(q.data - p.data).max() <= 1e-10

    def test_squaring_oracle(self, rng):
        for _ in range(5):
            p = random_spd(6, rng)
            q = matrix_power(eigh(p), 0.5)
            np.testing.assert_allclose(
                q.data @ q.data, p.data, rtol=1e-9, atol=1e-9
            )

    def test_negative_eigenvalue_fractional_power(self):
        e = EigenDecomposition(np.array([1.0, -0.5]), np.eye(2))
        with pytest.raises(DomainError):
            matrix_power(e, 0.5)

    def test_sqrt_squared_relative_frobenius(self, rng):
        # cond <= 1e12 regime: sqrt then square reproduces the matrix
        lam = np.array([1.0, 1e-3, 1e-6, 1e-9])
        u = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        p = SymPsdMatrix((u * lam) @ u.T)
        e = clamp_eigenvalues(eigh(p), Precision.double())
        q = matrix_power(e, 0.5)
        rel = np.linalg.norm(q.data @ q.data - p.data) / np.linalg.norm(p.data)
        assert rel <= 1e-8


class TestConditionNumber:
    def test_identity(self):
        e = eigh(SymPsdMatrix(np.eye(4)))
        cn = condition_number(e)
        assert cn.value == 1.0 and not cn.ill_conditioned

    def test_threshold_is_strict(self):
        e = EigenDecomposition(np.array([1e14, 1.0]), np.eye(2))
        cn = condition_number(e)
        assert cn.value == 1e14 and not cn.ill_conditioned
        e = EigenDecomposition(np.array([1.0000001e14, 1.0]), np.eye(2))
        assert condition_number(e).ill_conditioned

    def test_zero_eigenvalue_sentinel(self):
        e = EigenDecomposition(np.array([1.0, 0.0]), np.eye(2))
        cn = condition_number(e)
        assert math.isinf(cn.value) and cn.ill_conditioned

    def test_negative_eigenvalue_rejected(self):
        e = EigenDecomposition(np.array([1.0, -1e-12]), np.eye(2))
        with pytest.raises(DomainError):
            condition_number(e)

    def test_matches_reference_solver(self, rng):
        for _ in range(5):
            p = random_spd(6, rng)
            cn = condition_number(eigh(p))
            ref = np.linalg.eigvalsh(p.data)
            expected = ref[-1] / ref[0]
            assert abs(cn.value - expected) <= 1e-8 * expected
