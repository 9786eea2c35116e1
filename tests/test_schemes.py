import math

import numpy as np
import pytest

from specgrad.core import (
    EigenDecomposition,
    FeatureMatrix,
    Precision,
    SymPsdMatrix,
    clamp_eigenvalues,
    covariance,
    eigh,
    matrix_power,
)
from specgrad.errors import DegenerateInputError, DomainError, InvalidInputError
from specgrad.newton_schulz import ns_gradient_of_x
from specgrad.schemes import (
    FLOAT32_MAX,
    BackwardScheme,
    beta_smoothness,
    grad_covariance,
    grad_eigvec_eigval,
    gradient_upper_bound,
    k_matrix,
    pade_bound_ratio,
    pi_gradient,
    power_iteration,
)

from conftest import random_spd


def eig_of(lam, u=None):
    d = len(lam)
    return EigenDecomposition(np.asarray(lam, dtype=float), np.eye(d) if u is None else u)


class TestSchemeConfig:
    def test_defaults(self):
        assert BackwardScheme.trunc().threshold == 1e10
        assert BackwardScheme.taylor().degree == 100
        assert BackwardScheme.pade().degree == 100
        assert BackwardScheme.newton_schulz().iterations == 10

    def test_topn_default_ratio(self):
        # top 200 of 256 scales to d
        assert BackwardScheme.topn().resolve_top_n(256) == 200
        assert BackwardScheme.topn().resolve_top_n(8) == 6
        assert BackwardScheme.topn(3).resolve_top_n(8) == 3

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            BackwardScheme("trunc", threshold=-1.0)
        with pytest.raises(InvalidInputError):
            BackwardScheme("taylor")
        with pytest.raises(InvalidInputError):
            BackwardScheme("nonsense")


class TestGradEigvecEigval:
    def test_zero_gradient(self, rng):
        e = eigh(random_spd(4, rng))
        gu, gl = grad_eigvec_eigval(np.zeros((4, 4)), e)
        assert np.abs(gu).max() == 0.0 and np.abs(gl).max() == 0.0

    def test_trace_loss_diagonal_case(self):
        # l = tr(Q) with P = diag(4, 1): dl/dlambda = 1/(2 sqrt(lambda))
        e = eig_of([4.0, 1.0])
        _, gl = grad_eigvec_eigval(np.eye(2), e)
        np.testing.assert_allclose(gl, [0.25, 0.5])

    def test_nonpositive_eigenvalue_rejected(self):
        e = eig_of([1.0, 0.0])
        with pytest.raises(DomainError):
            grad_eigvec_eigval(np.eye(2), e)


class TestKMatrix:
    def test_ordinary_direct_formula(self):
        k = k_matrix(eig_of([3.0, 1.0]), BackwardScheme.ordinary())
        assert k.data[0, 1] == pytest.approx(0.5)
        assert k.data[1, 0] == pytest.approx(-0.5)

    def test_ordinary_tie_gives_inf(self):
        k = k_matrix(eig_of([1.0, 1.0]), BackwardScheme.ordinary())
        assert math.isinf(k.data[0, 1])
        assert k.data[1, 0] == -math.inf
        assert k.nonfinite_entries() == [(0, 1), (1, 0)]

    def test_topn_zeroes_dropped_pairs(self):
        k = k_matrix(eig_of([4.0, 2.0, 1.0, 0.5]), BackwardScheme.topn(2))
        assert k.data[0, 1] == pytest.approx(1.0 / 2.0)
        assert k.data[0, 2] == pytest.approx(1.0 / 4.0)  # dropped lambda treated as 0
        assert k.data[2, 3] == 0.0  # both dropped

    def test_trunc_clips(self):
        k = k_matrix(eig_of([1.0, 1.0 - 1e-12]), BackwardScheme.trunc(1e10))
        assert k.data[0, 1] == 1e10
        assert k.data[1, 0] == -1e10
        k = k_matrix(eig_of([1.0, 1.0]), BackwardScheme.trunc(1e10))
        assert k.data[0, 1] == 1e10  # infinity clips to the threshold

    def test_taylor_tie_attains_bound(self):
        k = k_matrix(eig_of([1.0, 1.0]), BackwardScheme.taylor(100))
        assert k.data[0, 1] == pytest.approx(101.0)

    def test_pade_near_pole_accuracy(self):
        k = k_matrix(eig_of([1.0, 0.999]), BackwardScheme.pade(100))
        assert k.data[0, 1] == pytest.approx(1000.0, rel=1e-6)

    def test_antisymmetry_all_schemes(self, rng):
        e = eigh(random_spd(6, rng))
        e = clamp_eigenvalues(e, Precision.double())
        for scheme in (
            BackwardScheme.ordinary(),
            BackwardScheme.topn(4),
            BackwardScheme.trunc(),
            BackwardScheme.taylor(50),
            BackwardScheme.pade(50),
        ):
            k = k_matrix(e, scheme).data
            assert np.abs(np.diag(k)).max() == 0.0
            np.testing.assert_allclose(k, -k.T, atol=1e-10)

    @pytest.mark.parametrize(
        "prec", [Precision.double(), Precision.single()], ids=["double", "single"]
    )
    def test_boundedness(self, rng, prec):
        lam = np.sort(rng.uniform(0.1, 1.0, size=6))[::-1]
        lam[3] = lam[2]  # plant a tie
        # and a tie at the clamp floor, where the bounds are attained
        at_floor = np.concatenate([lam[:4], [prec.eps, prec.eps]])
        for spectrum in (lam, at_floor):
            e = eig_of(spectrum)
            for scheme in (
                BackwardScheme.taylor(100),
                BackwardScheme.trunc(1e10),
                BackwardScheme.pade(100),
            ):
                k = np.abs(k_matrix(e, scheme).data)
                if scheme.kind == "taylor":
                    per_row_bound = (scheme.degree + 1) / spectrum[:, None]
                    assert np.all(k <= per_row_bound + 1e-9)
                bound = gradient_upper_bound(scheme, prec).max_value
                assert k.max() <= bound * (1 + 1e-12)
                if spectrum is at_floor:
                    assert k.max() == pytest.approx(bound, rel=1e-12)

    def test_iterative_schemes_have_no_k(self, rng):
        e = eigh(random_spd(3, rng))
        with pytest.raises(InvalidInputError):
            k_matrix(e, BackwardScheme.newton_schulz(10))
        with pytest.raises(InvalidInputError):
            k_matrix(e, BackwardScheme.power_iteration(10))


def fd_gradient_through_x(x_arr, w, h=1e-6):
    def loss(arr):
        e = clamp_eigenvalues(eigh(covariance(FeatureMatrix(arr))), Precision.double())
        return float(np.sum(w * matrix_power(e, 0.5).data))

    fd = np.zeros_like(x_arr)
    for i in range(x_arr.shape[0]):
        for j in range(x_arr.shape[1]):
            pert = np.zeros_like(x_arr)
            pert[i, j] = h * (1.0 + abs(x_arr[i, j]))
            fd[i, j] = (loss(x_arr + pert) - loss(x_arr - pert)) / (2 * pert[i, j])
    return fd


class TestGradCovariance:
    def test_zero_gradient(self, rng):
        e = eigh(random_spd(3, rng))
        out = grad_covariance(np.zeros((3, 3)), e, BackwardScheme.ordinary())
        assert np.abs(out).max() == 0.0

    def test_ordinary_matches_finite_differences(self, rng):
        x_arr = rng.normal(size=(3, 12))
        w = rng.normal(size=(3, 3))
        x = FeatureMatrix(x_arr)
        e = clamp_eigenvalues(eigh(covariance(x)), Precision.double())
        gp = grad_covariance(w, e, BackwardScheme.ordinary())
        gx = ns_gradient_of_x(gp, x)
        fd = fd_gradient_through_x(x_arr, w)
        assert np.abs(gx - fd).max() / np.abs(fd).max() <= 1e-5

    def test_remedies_agree_on_separated_spectra(self, rng):
        # all eigenvalue ratios <= 0.7: taylor(100), pade(100), ordinary
        # must agree pairwise to 1e-8 relative
        lam = np.array([1.0, 0.65, 0.4, 0.2])
        u = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        e = EigenDecomposition(lam, u)
        w = rng.normal(size=(4, 4))
        grads = {
            scheme.kind: grad_covariance(w, e, scheme)
            for scheme in (
                BackwardScheme.ordinary(),
                BackwardScheme.taylor(100),
                BackwardScheme.pade(100),
            )
        }
        scale = np.abs(grads["ordinary"]).max()
        for a in grads:
            for b in grads:
                assert np.abs(grads[a] - grads[b]).max() / scale <= 1e-8


class TestPowerIteration:
    def test_converges_when_dominant(self):
        p = SymPsdMatrix(np.diag([4.0, 1.0]))
        v0 = np.array([1.0, 1.0]) / math.sqrt(2.0)
        trace = power_iteration(p, 30, v0)
        # alignment error (1/4)^30 from the induction bound
        assert np.linalg.norm(trace.estimate - np.array([1.0, 0.0])) <= 1e-6

    def test_identity_never_aligns(self):
        p = SymPsdMatrix(np.eye(3))
        v0 = np.array([1.0, 2.0, 2.0])
        trace = power_iteration(p, 25, v0)
        np.testing.assert_allclose(trace.estimate, v0 / 3.0, atol=1e-14)

    def test_slow_rate_near_tied_spectrum(self):
        # lambda1/lambda2 = 1.01: error shrinks like (1/1.01)^k
        p = SymPsdMatrix(np.diag([1.01, 1.0]))
        v0 = np.array([1.0, 1.0]) / math.sqrt(2.0)
        trace = power_iteration(p, 10, v0)
        assert np.linalg.norm(trace.estimate - np.array([1.0, 0.0])) >= 0.1

    def test_zero_start_rejected(self):
        with pytest.raises(DegenerateInputError):
            power_iteration(SymPsdMatrix(np.eye(2)), 5, np.zeros(2))

    def test_annihilated_iterate_rejected(self):
        p = SymPsdMatrix(np.diag([1.0, 0.0]))
        with pytest.raises(DegenerateInputError):
            power_iteration(p, 3, np.array([0.0, 1.0]))


class TestPiGradient:
    def test_zero_gradient(self, rng):
        p = random_spd(3, rng)
        trace = power_iteration(p, 10, rng.normal(size=3))
        assert np.abs(pi_gradient(trace, np.zeros(3))).max() == 0.0

    def test_parallel_component_annihilated(self, rng):
        p = random_spd(3, rng)
        trace = power_iteration(p, 40, rng.normal(size=3))
        out = pi_gradient(trace, trace.estimate.copy())
        assert np.abs(out).max() <= 1e-10

    def test_equals_taylor_leading_block(self, rng):
        # PI seeded with the exact leading eigenvector reproduces the i = 1
        # term of the taylor-scheme gradient; K_pi iterations match degree
        # K_pi - 1
        lam = np.array([1.0, 0.45, 0.2])
        u = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        e = EigenDecomposition(lam, u)
        p = SymPsdMatrix(e.reconstruct())
        degree = 60
        grad_u1 = rng.normal(size=3)

        trace = power_iteration(p, degree + 1, u[:, 0])
        got = pi_gradient(trace, grad_u1)

        acc = np.zeros(3)
        expected = np.zeros((3, 3))
        for j in range(1, 3):
            coeff = sum((lam[j] / lam[0]) ** m for m in range(degree + 1)) / lam[0]
            expected += coeff * np.outer(u[:, j], u[:, j]) @ np.outer(grad_u1, u[:, 0])
        rel = np.abs(got - expected).max() / np.abs(expected).max()
        assert rel <= 1e-4


class TestBounds:
    def test_reference_values_double(self):
        prec = Precision.double()
        taylor = gradient_upper_bound(BackwardScheme.taylor(100), prec)
        assert taylor.max_value == pytest.approx(4.55e17, rel=0.01)
        topn = gradient_upper_bound(BackwardScheme.topn(), prec)
        assert topn.max_value == pytest.approx(4.50e15, rel=0.01)
        trunc = gradient_upper_bound(BackwardScheme.trunc(1e10), prec)
        assert trunc.max_value == 1e10

    def test_ordinary_and_newton_markers(self):
        prec = Precision.double()
        assert math.isinf(gradient_upper_bound(BackwardScheme.ordinary(), prec).max_value)
        ns = gradient_upper_bound(BackwardScheme.newton_schulz(), prec)
        assert ns.max_value is None and ns.single_safe is None

    def test_single_precision_safety(self):
        prec = Precision.single()
        for scheme in (
            BackwardScheme.taylor(100),
            BackwardScheme.pade(100),
            BackwardScheme.topn(),
            BackwardScheme.trunc(1e10),
        ):
            bound = gradient_upper_bound(scheme, prec)
            assert bound.max_value < FLOAT32_MAX
            assert bound.single_safe

    def test_pade_bound_ratio_finite_and_reproducible(self):
        r1 = pade_bound_ratio(100)
        r2 = pade_bound_ratio(100)
        assert r1 == r2 and np.isfinite(r1) and r1 > 0


class TestBetaSmoothness:
    @staticmethod
    def _grad_fn(scheme, chain_to_x=True):
        w = np.ones((3, 3))

        def fn(x_arr):
            x = FeatureMatrix(x_arr)
            e = clamp_eigenvalues(eigh(covariance(x)), Precision.double())
            gp = grad_covariance(w, e, scheme)
            return ns_gradient_of_x(gp, x) if chain_to_x else gp

        return fn

    def test_linear_map_is_perfectly_smooth(self):
        w = np.full((3, 8), 0.7)
        fn = lambda x: w  # constant gradient field
        assert beta_smoothness(fn, np.ones((3, 8)), samples=4) == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_ordinary_rougher_than_trunc_near_degeneracy(self, seed):
        # eigengap at the eigensolver resolution limit: the 1/(gap) entry
        # jitters with roundoff under perturbation while truncation pins it.
        # Measured on dl/dP, where K acts: the 1/gap term lives only in the
        # antisymmetric part of dl/dP, and the chain to X, (G + G^T) X Ibar,
        # cancels that part exactly, so on dl/dX both schemes are O(1) and
        # the comparison is a coin flip between roundoff and clipping bias.
        from specgrad.synth import feature_matrix_with_spectrum

        gen = np.random.default_rng(seed)
        lam = np.array([1.0, 0.5 + 4e-16, 0.5])
        x0 = feature_matrix_with_spectrum(lam, 16, gen).data
        rough = beta_smoothness(
            self._grad_fn(BackwardScheme.ordinary(), chain_to_x=False), x0, samples=48, rng=3
        )
        smooth = beta_smoothness(
            self._grad_fn(BackwardScheme.trunc(1e10), chain_to_x=False), x0, samples=48, rng=3
        )
        assert rough > smooth

    def test_taylor_matches_ordinary_on_separated_spectrum(self, rng):
        from specgrad.synth import feature_matrix_with_spectrum

        x0 = feature_matrix_with_spectrum(np.array([1.0, 0.5, 0.2]), 16, rng).data
        a = beta_smoothness(self._grad_fn(BackwardScheme.ordinary()), x0, samples=16, rng=5)
        b = beta_smoothness(
            self._grad_fn(BackwardScheme.taylor(100)), x0, samples=16, rng=5
        )
        assert a == pytest.approx(b, rel=0.1)
