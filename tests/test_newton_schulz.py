import numpy as np
import pytest

from specgrad.core import (
    FeatureMatrix,
    Precision,
    SymPsdMatrix,
    clamp_eigenvalues,
    covariance,
    eigh,
    matrix_power,
)
from specgrad.errors import DomainError, InvalidInputError
from specgrad.newton_schulz import (
    NewtonSchulzTrace,
    ns_backward,
    ns_forward,
    ns_gradient_of_x,
)

from conftest import random_spd


def spd_with_condition(d, cond, rng):
    lam = cond ** (-np.arange(d) / (d - 1))
    u = np.linalg.qr(rng.normal(size=(d, d)))[0]
    return SymPsdMatrix((u * lam) @ u.T)


def expanded_ns_backward(trace, grad_q):
    """Reference backward: each step's reverse rule expanded into six triple
    products (12 matmuls a step), with no special first or last step."""
    tr_p = trace.trace_p
    dy = np.sqrt(tr_p) * grad_q
    dz = np.zeros_like(dy)
    for k in range(trace.iterations, 0, -1):
        yt = trace.y_seq[k - 1].T
        zt = trace.z_seq[k - 1].T
        dy, dz = (
            1.5 * dy - 0.5 * (dy @ yt @ zt + zt @ yt @ dy + zt @ dz @ zt),
            1.5 * dz - 0.5 * (dz @ zt @ yt + yt @ zt @ dz + yt @ dy @ yt),
        )
    p = trace.normalized_input * tr_p
    trace_term = -np.sum(dy * p) / tr_p**2 + np.sum(grad_q * trace.final_y) / (
        2.0 * np.sqrt(tr_p)
    )
    return dy / tr_p + trace_term * np.eye(trace.d)


def fd_relative_error(p_arr, w, iterations, h=1e-6):
    """Relative error of ns_backward against central differences of <w, Q(P)>
    under symmetric pair perturbations, which measure G_ij + G_ji off the
    diagonal."""
    _, trace = ns_forward(SymPsdMatrix(p_arr), iterations)
    g = ns_backward(trace, w)
    g_sym = g + g.T - np.diag(np.diag(g))
    d = p_arr.shape[0]
    fd = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            pert = np.zeros((d, d))
            pert[i, j] += h
            pert[j, i] += h if i != j else 0.0
            qp, _ = ns_forward(SymPsdMatrix(p_arr + pert), iterations)
            qm, _ = ns_forward(SymPsdMatrix(p_arr - pert), iterations)
            fd[i, j] = float(np.sum(w * (qp.data - qm.data))) / (2 * h)
    return np.abs(g_sym - fd).max() / np.abs(fd).max()


class TestForward:
    def test_identity_is_fixed_point(self):
        q, trace = ns_forward(SymPsdMatrix(np.eye(3)), 20)
        assert np.abs(q.data - np.eye(3)).max() <= 1e-10
        assert trace.iterations == 20
        np.testing.assert_allclose(trace.normalized_input, np.eye(3) / 3.0)

    def test_matches_exact_square_root(self, rng):
        q, _ = ns_forward(SymPsdMatrix(np.diag([4.0, 1.0])), 20)
        np.testing.assert_allclose(q.data, np.diag([2.0, 1.0]), atol=1e-6)

    def test_scale_equivariance(self, rng):
        p = random_spd(5, rng)
        c = 7.3
        q1, _ = ns_forward(p, 12)
        q2, _ = ns_forward(SymPsdMatrix(c * p.data), 12)
        np.testing.assert_allclose(q2.data, np.sqrt(c) * q1.data, rtol=1e-12)

    def test_monotone_convergence_then_small_error(self, rng):
        for seed in range(5):
            local = np.random.default_rng(seed)
            p = spd_with_condition(6, 100.0, local)
            exact = matrix_power(clamp_eigenvalues(eigh(p), Precision.double()), 0.5)
            norm = np.linalg.norm(exact.data)
            errors = []
            for iters in range(1, 11):
                q, _ = ns_forward(p, iters)
                errors.append(np.linalg.norm(q.data - exact.data) / norm)
            assert all(b < a for a, b in zip(errors, errors[1:])), errors
            q, _ = ns_forward(p, 20)
            assert np.linalg.norm(q.data - exact.data) / norm <= 1e-5

    def test_first_step_shortcut_is_bit_identical(self, rng):
        # the forward skips the products with Z_0 = I; they are exact, so the
        # plain coupled recursion gives the same bits
        p = random_spd(6, rng)
        q, trace = ns_forward(p, 4)
        y = trace.normalized_input
        z = np.eye(6)
        for k in range(1, 5):
            t = 0.5 * (3.0 * np.eye(6) - z @ y)
            y, z = y @ t, t @ z
            assert np.array_equal(trace.y_seq[k], y)
            assert np.array_equal(trace.z_seq[k], z)
        expected = np.sqrt(trace.trace_p) * y
        assert np.array_equal(q.data, 0.5 * (expected + expected.T))

    def test_nonpositive_trace_rejected(self):
        with pytest.raises(DomainError):
            ns_forward(SymPsdMatrix(np.zeros((3, 3))), 5)

    def test_needs_at_least_one_iteration(self):
        with pytest.raises(InvalidInputError):
            ns_forward(SymPsdMatrix(np.eye(2)), 0)

    def test_divergence_guard_is_typed(self):
        # indefinite input with a mildly negative eigenvalue slips past the
        # sanity bound but the iteration blows up; the guard must catch it
        from specgrad.errors import NumericalFailureError

        with pytest.raises(NumericalFailureError) as err:
            ns_forward(SymPsdMatrix(np.diag([2.0, -0.5])), 30)
        assert "step" in err.value.details


class TestBackward:
    def test_zero_gradient_maps_to_zero(self, rng):
        _, trace = ns_forward(random_spd(4, rng), 6)
        out = ns_backward(trace, np.zeros((4, 4)))
        assert np.abs(out).max() == 0.0

    def test_dimension_mismatch(self, rng):
        _, trace = ns_forward(random_spd(4, rng), 6)
        with pytest.raises(InvalidInputError):
            ns_backward(trace, np.zeros((3, 3)))

    def test_matches_finite_differences(self, rng):
        # one iteration: the first and last reverse steps are the same step;
        # two: each special step runs once, with no general step between
        for iterations in (1, 2, 8):
            for seed in range(4):
                local = np.random.default_rng(seed)
                d = 2 + seed
                p_arr = random_spd(d, local).data
                w = local.normal(size=(d, d))
                rel = fd_relative_error(p_arr, w, iterations)
                assert rel <= 1e-4, (iterations, seed, rel)

    @pytest.mark.parametrize("iterations", [1, 2, 3, 5, 10])
    @pytest.mark.parametrize("d", [2, 8, 64])
    def test_matches_expanded_recursion(self, d, iterations):
        local = np.random.default_rng(100 * d + iterations)
        p = random_spd(d, local)
        grad_q = local.normal(size=(d, d))  # not symmetric
        _, trace = ns_forward(p, iterations)
        g = ns_backward(trace, grad_q)
        ref = expanded_ns_backward(trace, grad_q)
        assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("iterations", [1, 2, 3, 5])
    def test_matches_expanded_recursion_without_symmetry(self, iterations):
        # iterates from a symmetric P are symmetric and commute, which hides a
        # misplaced transpose; the reverse rule assumes neither, so feed it a
        # trace of general matrices (Z_0 = I, as the last reverse step needs)
        d = 6
        local = np.random.default_rng(iterations)
        y_seq = [np.eye(d) / d + 0.1 * local.normal(size=(d, d))
                 for _ in range(iterations + 1)]
        z_seq = [np.eye(d)] + [np.eye(d) + 0.1 * local.normal(size=(d, d))
                               for _ in range(iterations)]
        trace = NewtonSchulzTrace(tuple(y_seq), tuple(z_seq), 2.5)
        grad_q = local.normal(size=(d, d))
        ref = expanded_ns_backward(trace, grad_q)
        g = ns_backward(trace, grad_q)
        assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_trace_loss_gradient_is_half_inverse_sqrt(self):
        # d tr(P^(1/2)) / dP = (1/2) P^(-1/2); at P = I that is I/2
        _, trace = ns_forward(SymPsdMatrix(np.eye(3)), 20)
        g = ns_backward(trace, np.eye(3))
        np.testing.assert_allclose(g, 0.5 * np.eye(3), atol=1e-8)

    def test_matches_finite_differences_badly_conditioned(self):
        # condition number 1e4, the top of the stated oracle range
        local = np.random.default_rng(13)
        p = spd_with_condition(5, 1e4, local)
        w = local.normal(size=(5, 5))
        assert fd_relative_error(p.data, w, 5) <= 1e-4


class TestGradientOfX:
    def test_zero_and_symmetry_doubling(self, rng):
        x = FeatureMatrix(rng.normal(size=(3, 7)))
        assert np.abs(ns_gradient_of_x(np.zeros((3, 3)), x)).max() == 0.0
        g = rng.normal(size=(3, 3))
        g = g + g.T
        ibar = (np.eye(7) - np.ones((7, 7)) / 7) / 7
        expected = 2.0 * g @ x.data @ ibar
        np.testing.assert_allclose(ns_gradient_of_x(g, x), expected, atol=1e-12)

    def test_dimension_mismatch(self, rng):
        x = FeatureMatrix(rng.normal(size=(3, 7)))
        with pytest.raises(InvalidInputError):
            ns_gradient_of_x(np.zeros((4, 4)), x)

    def test_end_to_end_finite_differences(self, rng):
        x_arr = rng.normal(size=(4, 10))
        w = rng.normal(size=(4, 4))

        def loss(arr):
            q, _ = ns_forward(covariance(FeatureMatrix(arr)), 7)
            return float(np.sum(w * q.data))

        _, trace = ns_forward(covariance(FeatureMatrix(x_arr)), 7)
        gp = ns_backward(trace, w)
        gx = ns_gradient_of_x(gp, FeatureMatrix(x_arr))
        h = 1e-6
        fd = np.zeros_like(x_arr)
        for i in range(4):
            for j in range(10):
                pert = np.zeros_like(x_arr)
                pert[i, j] = h
                fd[i, j] = (loss(x_arr + pert) - loss(x_arr - pert)) / (2 * h)
        assert np.abs(gx - fd).max() / np.abs(fd).max() <= 1e-4
