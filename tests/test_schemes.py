import math

import numpy as np
import pytest

from specgrad.core import (
    EPS_DOUBLE,
    EPS_SINGLE,
    SymPsdMatrix,
    clamp_eigenvalues,
    covariance,
    eigh,
    matrix_power,
)
from specgrad.errors import InvalidInputError, NumericalFailureError, PoleError
from specgrad.newton_schulz import ns_gradient_of_x
from specgrad.pade import diagonal_degrees, reciprocal_gap_pade
from specgrad.schemes import (
    BackwardScheme,
    grad_covariance,
    gradient_upper_bound,
    k_matrix,
)
from specgrad.synth import spectrum_for_condition

from conftest import random_spd
from oracles import (
    PowerIterationTrace,
    beta_smoothness,
    pi_gradient,
    power_iteration,
    reconstruct,
)


def gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u) for double precision."""
    u = EPS_DOUBLE / 2
    return k * u / (1 - k * u)


def eig_of(lam, u=None):
    """Eigenpairs (lam, u) as float64 arrays; identity eigenvectors unless given."""
    d = len(lam)
    return np.asarray(lam, dtype=float), np.eye(d) if u is None else u


def clamped_eigh(p):
    """The exact forward's eigenpairs of ``p``: eigenvalues clamped at eps."""
    lam, u = eigh(p)
    return clamp_eigenvalues(lam), u


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


class TestKMatrix:
    def test_ordinary_direct_formula(self):
        k = k_matrix(eig_of([3.0, 1.0])[0], BackwardScheme.ordinary())
        assert k[0, 1] == pytest.approx(0.5)
        assert k[1, 0] == pytest.approx(-0.5)

    def test_ordinary_tie_gives_inf(self):
        k = k_matrix(eig_of([1.0, 1.0])[0], BackwardScheme.ordinary())
        assert math.isinf(k[0, 1])
        assert k[1, 0] == -math.inf
        assert np.argwhere(~np.isfinite(k)).tolist() == [[0, 1], [1, 0]]

    @pytest.mark.parametrize("scheme", [BackwardScheme.taylor(), BackwardScheme.pade()])
    def test_series_scheme_needs_clamped_eigenvalues(self, scheme):
        with pytest.raises(InvalidInputError, match="need strictly positive .clamped."):
            k_matrix(eig_of([1.0, 0.0])[0], scheme)

    def test_topn_zeroes_dropped_pairs(self):
        k = k_matrix(eig_of([4.0, 2.0, 1.0, 0.5])[0], BackwardScheme.topn(2))
        assert k[0, 1] == pytest.approx(1.0 / 2.0)
        assert k[0, 2] == pytest.approx(1.0 / 4.0)  # dropped lambda treated as 0
        assert k[2, 3] == 0.0  # both dropped

    def test_trunc_clips(self):
        k = k_matrix(eig_of([1.0, 1.0 - 1e-12])[0], BackwardScheme.trunc(1e10))
        assert k[0, 1] == 1e10
        assert k[1, 0] == -1e10
        k = k_matrix(eig_of([1.0, 1.0])[0], BackwardScheme.trunc(1e10))
        assert k[0, 1] == 1e10  # infinity clips to the threshold

    def test_taylor_tie_attains_bound(self):
        k = k_matrix(eig_of([1.0, 1.0])[0], BackwardScheme.taylor(100))
        assert k[0, 1] == pytest.approx(101.0)

    def test_pade_near_pole_accuracy(self):
        k = k_matrix(eig_of([1.0, 0.999])[0], BackwardScheme.pade(100))
        assert k[0, 1] == pytest.approx(1000.0, rel=1e-6)

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
            reciprocal_gap_pade("pade", degree).p[:n],
            1.0 - np.arange(n) / n,
            rtol=0,
            atol=gamma(m + n + 1),
        )
        d = 8
        rows, cols = np.triu_indices(d, k=1)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            steps = delta * rng.uniform(1.0, 1.5, size=d - 1)
            lam = rng.uniform(0.5, 2.0) * np.cumprod(np.concatenate([[1.0], 1.0 - steps]))
            e = eig_of(lam)
            pade = k_matrix(e[0], BackwardScheme.pade(degree))[rows, cols]
            ordinary = k_matrix(e[0], BackwardScheme.ordinary())[rows, cols]
            g = (lam[rows] - lam[cols]) / lam[rows]
            assert g.min() >= delta
            bound = gamma(5 * (m + n + 1)) / g * np.abs(ordinary)
            assert np.all(np.abs(pade - ordinary) <= bound), (seed, np.max(np.abs(pade - ordinary) / bound))

    def test_antisymmetry_all_schemes(self, rng):
        e = clamped_eigh(random_spd(6, rng))
        for scheme in (
            BackwardScheme.ordinary(),
            BackwardScheme.topn(4),
            BackwardScheme.trunc(),
            BackwardScheme.taylor(50),
            BackwardScheme.pade(50),
        ):
            k = k_matrix(e[0], scheme)
            assert np.abs(np.diag(k)).max() == 0.0
            np.testing.assert_allclose(k, -k.T, atol=1e-10)

    @pytest.mark.parametrize(
        "dtype,eps", [(np.float64, EPS_DOUBLE), (np.float32, EPS_SINGLE)], ids=["double", "single"]
    )
    def test_boundedness(self, rng, dtype, eps):
        lam = np.sort(rng.uniform(0.1, 1.0, size=6))[::-1]
        lam[3] = lam[2]  # plant a tie
        # and a tie at the clamp floor, where the bounds are attained
        at_floor = np.concatenate([lam[:4], [eps, eps]])
        for spectrum in (lam, at_floor):
            e = eig_of(spectrum)
            for scheme in (
                BackwardScheme.taylor(100),
                BackwardScheme.trunc(1e10),
                BackwardScheme.pade(100),
            ):
                k = np.abs(k_matrix(e[0], scheme))
                if scheme.kind == "taylor":
                    per_row_bound = (scheme.param + 1) / spectrum[:, None]
                    assert np.all(k <= per_row_bound + 1e-9)
                bound = gradient_upper_bound(scheme, dtype)
                assert k.max() <= bound * (1 + 1e-12)
                if spectrum is at_floor:
                    assert k.max() == pytest.approx(bound, rel=1e-12)

    def test_iterative_schemes_have_no_k(self, rng):
        e = eigh(random_spd(3, rng))
        with pytest.raises(InvalidInputError):
            k_matrix(e[0], BackwardScheme.newton_schulz(10))


def fd_gradient_through_x(x_arr, w, h=1e-6):
    def loss(arr):
        return float(np.sum(w * matrix_power(*clamped_eigh(covariance(arr)), 0.5)))

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
        out = grad_covariance(np.zeros((3, 3)), *e, k_matrix(e[0], BackwardScheme.ordinary()))
        assert np.abs(out).max() == 0.0

    def test_trace_loss_diagonal_case(self):
        # l = tr(Q) with P = diag(4, 1): dl/dP = diag(1/(2 sqrt(lambda)))
        e = eig_of([4.0, 1.0])
        out = grad_covariance(np.eye(2), *e, k_matrix(e[0], BackwardScheme.ordinary()))
        np.testing.assert_allclose(out, np.diag([0.25, 0.5]))

    def test_nonpositive_eigenvalue_rejected(self):
        e = eig_of([1.0, 0.0])
        with pytest.raises(InvalidInputError, match="clamp before the backward pass"):
            grad_covariance(np.eye(2), *e, k_matrix(e[0], BackwardScheme.ordinary()))

    @pytest.mark.parametrize(
        "grad_q,k_lam",
        [
            (np.eye(3), [2.0, 1.0]),
            (np.eye(2), [3.0, 2.0, 1.0]),
            (np.diag([1.0, 1.0, np.nan]), [3.0, 2.0, 1.0]),
        ],
        ids=["k-size", "grad-shape", "grad-nonfinite"],
    )
    def test_malformed_input_rejected(self, grad_q, k_lam):
        e = eig_of([3.0, 2.0, 1.0])
        k = k_matrix(eig_of(k_lam)[0], BackwardScheme.ordinary())
        with pytest.raises(InvalidInputError):
            grad_covariance(grad_q, *e, k)

    def test_ordinary_matches_finite_differences(self, rng):
        x_arr = rng.normal(size=(3, 12))
        w = rng.normal(size=(3, 3))
        e = clamped_eigh(covariance(x_arr))
        gp = grad_covariance(w, *e, k_matrix(e[0], BackwardScheme.ordinary()))
        gx = ns_gradient_of_x(gp, x_arr)
        fd = fd_gradient_through_x(x_arr, w)
        assert np.abs(gx - fd).max() / np.abs(fd).max() <= 1e-5

    def test_remedies_agree_on_separated_spectra(self, rng):
        # all eigenvalue ratios <= 0.7: taylor(100), pade(100), ordinary
        # must agree pairwise to 1e-8 relative
        lam = np.array([1.0, 0.65, 0.4, 0.2])
        u = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        e = lam, u
        w = rng.normal(size=(4, 4))
        grads = {
            scheme.kind: grad_covariance(w, *e, k_matrix(e[0], scheme))
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


def daleckii_krein(lam, u, g):
    """dl/dP for Q = P^(1/2) and G = dl/dQ, the solution X of QX + XQ = sym(G):

    X = U ((U^T sym(G) U) / (sqrt(lambda_i) + sqrt(lambda_j))) U^T.
    """
    root = np.sqrt(lam)
    inner = u.T @ ((g + g.T) / 2) @ u
    return u @ (inner / (root[:, None] + root[None, :])) @ u.T


def rel_diff(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


class TestDaleckiiKrein:
    """The adjoint of the square root in closed form, an oracle for each K scheme.

    Spectra at condition 10 over 20 seeds: neighbouring ratios are
    10^(-1/(d-1)), 0.72 at d = 8, 0.86 at d = 16 and 0.98 at d = 128.
    """

    SEEDS = range(20)

    @staticmethod
    def case(d, seed):
        rng = np.random.default_rng(seed)
        lam = spectrum_for_condition(d, 10)
        u = np.linalg.qr(rng.normal(size=(d, d)))[0]
        g = rng.normal(size=(d, d))
        return (lam, u), g, daleckii_krein(lam, u, g)

    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    def test_matches_kronecker_solve(self, d):
        # (I kron Q + Q kron I) vec X = vec sym(G)
        for seed in self.SEEDS:
            (lam, u), g, x = self.case(d, seed)
            q = u @ np.diag(np.sqrt(lam)) @ u.T
            lyapunov = np.kron(np.eye(d), q) + np.kron(q, np.eye(d))
            vec = np.linalg.solve(lyapunov, ((g + g.T) / 2).reshape(-1))
            assert rel_diff(vec.reshape(d, d), x) <= 1e-13

    @pytest.mark.parametrize(
        "scheme,dims,tol",
        [
            (BackwardScheme.ordinary(), (2, 4, 8, 16), 1e-13),
            (BackwardScheme.trunc(), (2, 4, 8, 16), 1e-13),
            (BackwardScheme.pade(100), (2, 4, 8, 16), 1e-13),
            # the pooling widths, against the closed form only
            (BackwardScheme.ordinary(), (32, 64, 128), 1e-12),
            (BackwardScheme.trunc(), (32, 64, 128), 1e-12),
            (BackwardScheme.pade(100), (32, 64, 128), 1e-12),
            # the series' remainder ratio^101 is roundoff only up to ratio 0.72
            (BackwardScheme.taylor(100), (2, 4, 8), 1e-12),
        ],
        ids=["ordinary", "trunc", "pade", "ordinary-wide", "trunc-wide", "pade-wide", "taylor"],
    )
    def test_unbiased_schemes_match(self, scheme, dims, tol):
        for d in dims:
            for seed in self.SEEDS:
                e, g, x = self.case(d, seed)
                grad_p = grad_covariance(g, *e, k_matrix(e[0], scheme))
                assert rel_diff((grad_p + grad_p.T) / 2, x) <= tol

    @pytest.mark.parametrize(
        "scheme",
        [
            BackwardScheme.ordinary(),
            BackwardScheme.topn(),
            BackwardScheme.trunc(),
            BackwardScheme.taylor(100),
            BackwardScheme.pade(100),
        ],
        ids=lambda scheme: scheme.kind,
    )
    def test_adjoint_is_symmetric(self, scheme):
        # U (L o S) U^T with L and S symmetric: only the products' roundoff skews it
        for d in (2, 3, 8, 64, 128):
            for seed in range(3):
                e, g, _ = self.case(d, seed)
                grad_p = grad_covariance(g, *e, k_matrix(e[0], scheme))
                assert np.abs(grad_p - grad_p.T).max() <= 1e-14 * np.abs(grad_p).max()

    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    def test_topn_is_biased(self, d):
        # dropping the smallest eigenvalue changes the gradient
        for seed in self.SEEDS:
            e, g, x = self.case(d, seed)
            grad_p = grad_covariance(g, *e, k_matrix(e[0], BackwardScheme.topn(d - 1)))
            assert rel_diff((grad_p + grad_p.T) / 2, x) > 1e-4


class TestPowerIteration:
    def test_converges_when_dominant(self):
        p = np.diag([4.0, 1.0])
        v0 = np.array([1.0, 1.0]) / math.sqrt(2.0)
        trace = power_iteration(p, 30, v0)
        # alignment error (1/4)^30 from the induction bound
        assert np.linalg.norm(trace.estimate - np.array([1.0, 0.0])) <= 1e-6

    def test_identity_never_aligns(self):
        p = np.eye(3)
        v0 = np.array([1.0, 2.0, 2.0])
        trace = power_iteration(p, 25, v0)
        np.testing.assert_allclose(trace.estimate, v0 / 3.0, atol=1e-14)

    def test_slow_rate_near_tied_spectrum(self):
        # lambda1/lambda2 = 1.01: error shrinks like (1/1.01)^k
        p = np.diag([1.01, 1.0])
        v0 = np.array([1.0, 1.0]) / math.sqrt(2.0)
        trace = power_iteration(p, 10, v0)
        assert np.linalg.norm(trace.estimate - np.array([1.0, 0.0])) >= 0.1

    def test_trace_keeps_each_unit_iterate_and_norm(self, rng):
        # pi_gradient back-propagates through exactly these iterates and norms
        p = random_spd(3, rng)
        trace = power_iteration(p, 4, rng.normal(size=3))
        assert isinstance(trace, PowerIterationTrace)
        assert trace.k_iters == 4 and trace.us.shape == (5, 3)
        np.testing.assert_allclose(np.linalg.norm(trace.us, axis=1), 1.0, rtol=1e-13)
        steps = trace.us[:-1] @ p  # row k is P u^(k); P is symmetric
        np.testing.assert_allclose(trace.norms, np.linalg.norm(steps, axis=1), rtol=1e-13)
        np.testing.assert_allclose(trace.us[1:], steps / trace.norms[:, None], rtol=1e-13)


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
        p = SymPsdMatrix(reconstruct(lam, u)).data
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
        taylor = gradient_upper_bound(BackwardScheme.taylor(100))
        assert taylor == pytest.approx(4.55e17, rel=0.01)
        topn = gradient_upper_bound(BackwardScheme.topn())
        assert topn == pytest.approx(4.50e15, rel=0.01)
        trunc = gradient_upper_bound(BackwardScheme.trunc(1e10))
        assert trunc == 1e10

    def test_ordinary_and_newton_markers(self):
        assert math.isinf(gradient_upper_bound(BackwardScheme.ordinary()))
        assert gradient_upper_bound(BackwardScheme.newton_schulz()) is None

    def test_single_precision_safety(self):
        for scheme in (
            BackwardScheme.taylor(100),
            BackwardScheme.pade(100),
            BackwardScheme.topn(),
            BackwardScheme.trunc(1e10),
        ):
            assert gradient_upper_bound(scheme, np.float32) < np.finfo(np.float32).max

    @pytest.mark.parametrize(
        "dtype,eps", [(np.float64, EPS_DOUBLE), (np.float32, EPS_SINGLE)], ids=["double", "single"]
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
    def test_bound_equals_closed_form(self, scheme, closed_form, dtype, eps):
        # the per-kind formulas the bound once restated, kept as oracles for
        # the entry k_matrix emits at a tie at eps
        assert gradient_upper_bound(scheme, dtype) == closed_form(eps)

    def test_pade_pole_at_the_tie_is_an_infinite_bound(self):
        # pade(3)'s denominator rounds to exactly zero at ratio 1
        assert gradient_upper_bound(BackwardScheme.pade(3)) == math.inf
        with pytest.raises(PoleError) as err:
            k_matrix(eig_of([EPS_DOUBLE, EPS_DOUBLE])[0], BackwardScheme.pade(3))
        assert err.value.details == {"x": 1.0}
        assert "np.float64" not in str(err.value)

    def test_pade_degree_one_is_the_constant_surrogate(self):
        # the [0/0] approximant of 1/(1-x) is 1, so K_ij = 1/lambda_i
        assert reciprocal_gap_pade("pade", 1).degrees == (0, 0)
        k = k_matrix(eig_of([4.0, 2.0, 1.0])[0], BackwardScheme.pade(1))
        np.testing.assert_array_equal(k[0], [0.0, 0.25, 0.25])
        assert k[1, 2] == 0.5
        assert gradient_upper_bound(BackwardScheme.pade(1)) == 1.0 / EPS_DOUBLE

    def test_pade_bound_finite_and_reproducible(self):
        r1 = gradient_upper_bound(BackwardScheme.pade(100))
        r2 = gradient_upper_bound(BackwardScheme.pade(100))
        assert r1 == r2 and np.isfinite(r1) and r1 > 0


class TestBetaSmoothness:
    @staticmethod
    def _grad_fn(scheme):
        w = np.ones((3, 3))

        def fn(x_arr):
            e = clamped_eigh(covariance(x_arr))
            gp = grad_covariance(w, *e, k_matrix(e[0], scheme))
            return ns_gradient_of_x(gp, x_arr)

        return fn

    def test_linear_map_is_perfectly_smooth(self):
        w = np.full((3, 8), 0.7)
        fn = lambda x: w  # constant gradient field
        assert beta_smoothness(fn, np.ones((3, 8)), samples=4) == 0.0

    @pytest.mark.parametrize("point", ["the base", "a perturbed"])
    def test_nonfinite_gradient_is_a_numerical_failure(self, point):
        x0 = np.ones((3, 8))

        def fn(x):
            finite = point == "a perturbed" and np.array_equal(x, x0)
            return np.full(3, 1.0 if finite else np.inf)

        with pytest.raises(NumericalFailureError, match=f"at {point} point under scheme pade"):
            beta_smoothness(fn, x0, samples=2, scheme_label="pade")

    @pytest.mark.parametrize("seed", range(10))
    def test_ordinary_rougher_than_trunc_near_degeneracy(self, seed):
        # Named for the paper's claim that the 1/gap rule is the rougher one
        # near ties. With the eigengap at the eigensolver's resolution limit,
        # ordinary's 1/gap entries reach dl/dP only through
        # Phi_ij = K_ij (lam_i - lam_j), which rounds to 1 however small the
        # gap, times L_ij = 1/(2 (sqrt(lam_i) + sqrt(lam_j))), a sum with no
        # cancellation. So dl/dP is symmetric and is the Daleckii-Krein
        # adjoint to a few ulps. Which scheme is rougher on dl/dX is not
        # settled by this spectrum, so no direction is asserted.
        from specgrad.synth import feature_matrix_with_spectrum

        gen = np.random.default_rng(seed)
        lam = np.array([1.0, 0.5 + 4e-16, 0.5])
        x0 = feature_matrix_with_spectrum(lam, 16, gen).data
        e = clamped_eigh(covariance(x0))
        w = np.ones((3, 3))
        grad_p = grad_covariance(w, *e, k_matrix(e[0], BackwardScheme.ordinary()))
        assert np.abs(grad_p - grad_p.T).max() <= 1e-14 * np.abs(grad_p).max()
        assert rel_diff(grad_p, daleckii_krein(*e, w)) <= 1e-14

    def test_taylor_matches_ordinary_on_separated_spectrum(self, rng):
        from specgrad.synth import feature_matrix_with_spectrum

        x0 = feature_matrix_with_spectrum(np.array([1.0, 0.5, 0.2]), 16, rng).data
        a = beta_smoothness(self._grad_fn(BackwardScheme.ordinary()), x0, samples=16, rng=5)
        b = beta_smoothness(
            self._grad_fn(BackwardScheme.taylor(100)), x0, samples=16, rng=5
        )
        assert a == pytest.approx(b, rel=0.1)
