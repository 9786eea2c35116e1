import math

import numpy as np
import pytest

from specgrad.core import (
    EPS_DOUBLE,
    EigenDecomposition,
    FeatureMatrix,
    Precision,
    SymPsdMatrix,
    clamp_eigenvalues,
    covariance,
    eigh,
    matrix_power,
)
from specgrad.errors import DegenerateInputError, DomainError, InvalidInputError, PoleError
from specgrad.newton_schulz import ns_gradient_of_x
from specgrad.pade import diagonal_degrees, reciprocal_gap_pade
from specgrad.schemes import (
    FLOAT32_MAX,
    BackwardScheme,
    beta_smoothness,
    grad_covariance,
    grad_eigvec_eigval,
    gradient_upper_bound,
    k_matrix,
    pi_gradient,
    power_iteration,
)

from conftest import random_spd


def gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u) for double precision."""
    u = EPS_DOUBLE / 2
    return k * u / (1 - k * u)


def eig_of(lam, u=None):
    d = len(lam)
    return EigenDecomposition(np.asarray(lam, dtype=float), np.eye(d) if u is None else u)


class TestSchemeConfig:
    def test_defaults(self):
        assert BackwardScheme.trunc().param == 1e10
        assert BackwardScheme.taylor().param == 100
        assert BackwardScheme.pade().param == 100
        assert BackwardScheme.newton_schulz().param == 10
        assert BackwardScheme.topn().param is None

    def test_topn_default_ratio(self):
        # top 200 of 256 scales to d
        assert BackwardScheme.topn().resolve_top_n(256) == 200
        assert BackwardScheme.topn().resolve_top_n(8) == 6
        assert BackwardScheme.topn(3).resolve_top_n(8) == 3

    def test_validation(self):
        for kind, param in (
            ("ordinary", 3),  # ordinary reads no parameter
            ("ordinary", 0.0),
            ("trunc", None),  # missing parameter
            ("taylor", None),
            ("pade", None),
            ("newton_schulz", None),
            ("topn", 0),  # non-positive parameter
            ("trunc", -1.0),
            ("trunc", 0.0),
            ("taylor", 0),
            ("pade", -5),
            ("newton_schulz", 0),
            ("trunc", float("nan")),  # not a positive number of the kind's type
            ("taylor", 2.5),
            ("topn", "3"),
            ("pade", float("inf")),
            ("power_iteration", 10),  # standalone op, not a backward kind
            ("power_iteration", None),
            ("nonsense", None),
        ):
            with pytest.raises(InvalidInputError):
                BackwardScheme(kind, param)

    def test_parameter_takes_its_kind_type(self):
        # trunc(1000) and trunc(1000.0) are one scheme with one label
        assert BackwardScheme.trunc(1000) == BackwardScheme.trunc(1000.0)
        assert type(BackwardScheme.trunc(1000).param) is float
        assert type(BackwardScheme.taylor(np.int64(5)).param) is int
        assert BackwardScheme.taylor(5.0).label == "taylor(degree=5)"

    @pytest.mark.parametrize(
        "scheme,label",
        [
            (BackwardScheme.ordinary(), "ordinary"),
            (BackwardScheme.topn(), "topn(n=auto)"),
            (BackwardScheme.topn(3), "topn(n=3)"),
            (BackwardScheme.trunc(), "trunc(t=1e+10)"),
            (BackwardScheme.trunc(1e3), "trunc(t=1000)"),
            (BackwardScheme.taylor(), "taylor(degree=100)"),
            (BackwardScheme.pade(), "pade(degree=100)"),
            (BackwardScheme.newton_schulz(), "newton_schulz(iterations=10)"),
        ],
    )
    def test_labels(self, scheme, label):
        assert scheme.label == label


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

    @pytest.mark.parametrize("degree", [10, 50, 100, 200])
    @pytest.mark.parametrize("delta", [0.5, 1e-2, 1e-4, 1e-8])
    def test_pade_equals_ordinary_away_from_ties(self, degree, delta):
        """Pade K is the ordinary K to roundoff wherever relative gaps are >= delta.

        The approximant of 1/(1-x) has q_n = -1/N, so Q(x) = (1-x) P(x) with
        p_m = 1 - m/N >= 0 and P(x) >= 1 on [0, 1]: it is 1/(1-x) itself, not
        an approximation. At a pair with relative gap g = 1 - lambda_j/lambda_i
        the first-order roundoff of the Pade entry against 1/(lambda_i -
        lambda_j) is, with u the unit roundoff and gamma_k = k u / (1 - k u):
        u/g for rounding the ratio; 2 gamma_{2N}/g and 2 gamma_{N+1}/g for
        Horner and the coefficients of Q (sum|q_full| = 2, |Q| = g P >= g);
        gamma_{2M} + gamma_{M+N+1} for P (positive terms); 3u for the gap and
        the two divisions. For M = N + 1 that sums to at most
        gamma_{5(M+N+1)} / g. Only at a tie (g = 0) does Pade differ from the
        ordinary rule, and there its entry is roundoff at the pole.
        """
        m, n = diagonal_degrees(degree)
        np.testing.assert_allclose(
            reciprocal_gap_pade(degree).p[:n], 1.0 - np.arange(n) / n, rtol=0, atol=gamma(m + n + 1)
        )
        d = 8
        rows, cols = np.triu_indices(d, k=1)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            steps = delta * rng.uniform(1.0, 1.5, size=d - 1)
            lam = rng.uniform(0.5, 2.0) * np.cumprod(np.concatenate([[1.0], 1.0 - steps]))
            e = eig_of(lam)
            pade = k_matrix(e, BackwardScheme.pade(degree)).data[rows, cols]
            ordinary = k_matrix(e, BackwardScheme.ordinary()).data[rows, cols]
            g = (lam[rows] - lam[cols]) / lam[rows]
            assert g.min() >= delta
            bound = gamma(5 * (m + n + 1)) / g * np.abs(ordinary)
            assert np.all(np.abs(pade - ordinary) <= bound), (seed, np.max(np.abs(pade - ordinary) / bound))

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
                    per_row_bound = (scheme.param + 1) / spectrum[:, None]
                    assert np.all(k <= per_row_bound + 1e-9)
                bound = gradient_upper_bound(scheme, prec).max_value
                assert k.max() <= bound * (1 + 1e-12)
                if spectrum is at_floor:
                    assert k.max() == pytest.approx(bound, rel=1e-12)

    def test_iterative_schemes_have_no_k(self, rng):
        e = eigh(random_spd(3, rng))
        with pytest.raises(InvalidInputError):
            k_matrix(e, BackwardScheme.newton_schulz(10))


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
        out = grad_covariance(np.zeros((3, 3)), e, k_matrix(e, BackwardScheme.ordinary()))
        assert np.abs(out).max() == 0.0

    def test_ordinary_matches_finite_differences(self, rng):
        x_arr = rng.normal(size=(3, 12))
        w = rng.normal(size=(3, 3))
        x = FeatureMatrix(x_arr)
        e = clamp_eigenvalues(eigh(covariance(x)), Precision.double())
        gp = grad_covariance(w, e, k_matrix(e, BackwardScheme.ordinary()))
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
            scheme.kind: grad_covariance(w, e, k_matrix(e, scheme))
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

    @pytest.mark.parametrize(
        "prec", [Precision.double(), Precision.single()], ids=["double", "single"]
    )
    @pytest.mark.parametrize(
        "scheme,closed_form",
        [
            (BackwardScheme.taylor(1), lambda eps: 2 / eps),
            (BackwardScheme.taylor(100), lambda eps: 101 / eps),
            (BackwardScheme.topn(), lambda eps: 1.0 / eps),
            (BackwardScheme.topn(3), lambda eps: 1.0 / eps),
            (BackwardScheme.trunc(1e10), lambda eps: 1e10),
            (BackwardScheme.trunc(1e3), lambda eps: 1e3),
            (BackwardScheme.ordinary(), lambda eps: math.inf),
        ],
        ids=["taylor-1", "taylor-100", "topn-auto", "topn-3", "trunc-1e10", "trunc-1e3", "ordinary"],
    )
    def test_bound_equals_closed_form(self, scheme, closed_form, prec):
        # the per-kind formulas the bound once restated, kept as oracles for
        # the entry k_matrix emits at a tie at eps
        assert gradient_upper_bound(scheme, prec).max_value == closed_form(prec.eps)

    def test_pade_pole_at_the_tie_is_an_infinite_bound(self):
        # pade(3)'s denominator rounds to exactly zero at ratio 1
        bound = gradient_upper_bound(BackwardScheme.pade(3), Precision.double())
        assert bound.max_value == math.inf and bound.single_safe is False
        with pytest.raises(PoleError) as err:
            k_matrix(eig_of([EPS_DOUBLE, EPS_DOUBLE]), BackwardScheme.pade(3))
        assert err.value.details == {"x": 1.0}
        assert "np.float64" not in str(err.value)

    def test_pade_degree_one_is_the_constant_surrogate(self):
        # the [0/0] approximant of 1/(1-x) is 1, so K_ij = 1/lambda_i
        assert reciprocal_gap_pade(1).degrees == (0, 0)
        k = k_matrix(eig_of([4.0, 2.0, 1.0]), BackwardScheme.pade(1))
        np.testing.assert_array_equal(k.data[0], [0.0, 0.25, 0.25])
        assert k.data[1, 2] == 0.5
        bound = gradient_upper_bound(BackwardScheme.pade(1), Precision.double())
        assert bound.max_value == 1.0 / EPS_DOUBLE

    def test_pade_bound_finite_and_reproducible(self):
        r1 = gradient_upper_bound(BackwardScheme.pade(100), Precision.double()).max_value
        r2 = gradient_upper_bound(BackwardScheme.pade(100), Precision.double()).max_value
        assert r1 == r2 and np.isfinite(r1) and r1 > 0


class TestBetaSmoothness:
    @staticmethod
    def _grad_fn(scheme, chain_to_x=True):
        w = np.ones((3, 3))

        def fn(x_arr):
            x = FeatureMatrix(x_arr)
            e = clamp_eigenvalues(eigh(covariance(x)), Precision.double())
            gp = grad_covariance(w, e, k_matrix(e, scheme))
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
