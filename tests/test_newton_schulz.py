import tracemalloc

import numpy as np
import pytest

from specgrad.core import SymPsdMatrix, clamp_eigenvalues, covariance, eigh, matrix_power
from specgrad.errors import InvalidInputError, NumericalFailureError
from specgrad.newton_schulz import (
    NewtonSchulzTrace,
    ns_backward,
    ns_forward,
    ns_gradient_of_x,
)

from conftest import random_spd, same_bits
from oracles import chain_to_x


def spd_with_condition(d, cond, rng):
    lam = cond ** (-np.arange(d) / (d - 1))
    u = np.linalg.qr(rng.normal(size=(d, d)))[0]
    return SymPsdMatrix((u * lam) @ u.T).data


def expanded_ns_backward(trace, grad_q):
    """Reference backward: each step's reverse rule expanded into six triple
    products (12 matmuls a step), with no special first or last step; the
    last step (k = 1) forms Z_0 = I itself."""
    tr_p = trace.trace_p
    dy = np.sqrt(tr_p) * grad_q
    dz = np.zeros_like(dy)
    for k in range(trace.iterations, 0, -1):
        yt = trace.y_seq[k - 1].T
        zt = trace.z_seq[k - 2].T if k > 1 else np.eye(trace.d)
        dy, dz = (
            1.5 * dy - 0.5 * (dy @ yt @ zt + zt @ yt @ dy + zt @ dz @ zt),
            1.5 * dz - 0.5 * (dz @ zt @ yt + yt @ zt @ dz + yt @ dy @ yt),
        )
    p = trace.y_seq[0] * tr_p
    trace_term = -np.sum(dy * p) / tr_p**2 + np.sum(grad_q * trace.y_seq[-1]) / (
        2.0 * np.sqrt(tr_p)
    )
    return dy / tr_p + trace_term * np.eye(trace.d)


def fd_relative_error(p_arr, w, iterations, h=1e-6):
    """Relative error of ns_backward against central differences of <w, Q(P)>
    under symmetric pair perturbations, which measure G_ij + G_ji off the
    diagonal."""
    _, trace = ns_forward(p_arr, iterations)
    g = ns_backward(trace, w)
    g_sym = g + g.T - np.diag(np.diag(g))
    d = p_arr.shape[0]
    fd = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            pert = np.zeros((d, d))
            pert[i, j] += h
            pert[j, i] += h if i != j else 0.0
            qp, _ = ns_forward(p_arr + pert, iterations)
            qm, _ = ns_forward(p_arr - pert, iterations)
            fd[i, j] = float(np.sum(w * (qp - qm))) / (2 * h)
    return np.abs(g_sym - fd).max() / np.abs(fd).max()


class MatmulCounting(np.ndarray):
    """An array that counts the matmuls it takes part in, then computes as numpy does."""

    matmuls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            MatmulCounting.matmuls += 1
        if "out" in kwargs:
            kwargs["out"] = tuple(map(_plain, kwargs["out"]))
        out = getattr(ufunc, method)(*map(_plain, inputs), **kwargs)
        return out.view(MatmulCounting) if isinstance(out, np.ndarray) else out


def _plain(a):
    return a.view(np.ndarray) if isinstance(a, MatmulCounting) else a


class TestForward:
    def test_identity_is_fixed_point(self):
        q, trace = ns_forward(np.eye(3), 20)
        assert np.abs(q - np.eye(3)).max() <= 1e-10
        assert trace.iterations == 20
        np.testing.assert_allclose(trace.y_seq[0], np.eye(3) / 3.0)

    def test_matches_exact_square_root(self, rng):
        q, _ = ns_forward(np.diag([4.0, 1.0]), 20)
        np.testing.assert_allclose(q, np.diag([2.0, 1.0]), atol=1e-6)

    def test_scale_equivariance(self, rng):
        p = random_spd(5, rng)
        c = 7.3
        q1, _ = ns_forward(p, 12)
        q2, _ = ns_forward(c * p, 12)
        np.testing.assert_allclose(q2, np.sqrt(c) * q1, rtol=1e-12)

    def test_monotone_convergence_then_small_error(self, rng):
        for seed in range(5):
            local = np.random.default_rng(seed)
            p = spd_with_condition(6, 100.0, local)
            lam, u = eigh(p)
            exact = matrix_power(clamp_eigenvalues(lam), u, 0.5)
            norm = np.linalg.norm(exact)
            errors = []
            for iters in range(1, 11):
                q, _ = ns_forward(p, iters)
                errors.append(np.linalg.norm(q - exact) / norm)
            assert all(b < a for a, b in zip(errors, errors[1:])), errors
            q, _ = ns_forward(p, 20)
            assert np.linalg.norm(q - exact) / norm <= 1e-5

    def test_first_step_shortcut_is_bit_identical(self, rng):
        # the forward skips the products with Z_0 = I; they are exact, so the
        # plain coupled recursion gives the same bits. It keeps each T_k and
        # stores neither Z_0 = I nor Z_N, which nothing reads
        p = random_spd(6, rng)
        q, trace = ns_forward(p, 4)
        y = trace.y_seq[0]
        z = np.eye(6)
        for k in range(1, 5):
            t = 0.5 * (3.0 * np.eye(6) - z @ y)
            assert np.array_equal(trace.t_seq[k - 1], t)
            y, z = y @ t, t @ z
            assert np.array_equal(trace.y_seq[k], y)
            if k < 4:
                assert np.array_equal(trace.z_seq[k - 1], z)
        assert (len(trace.y_seq), len(trace.z_seq), len(trace.t_seq)) == (5, 3, 4)
        expected = np.sqrt(trace.trace_p) * y
        assert np.array_equal(q, 0.5 * (expected + expected.T))

    def test_nonpositive_trace_rejected(self):
        with pytest.raises(InvalidInputError, match="needs tr\\(P\\) > 0"):
            ns_forward(np.zeros((3, 3)), 5)

    def test_indefinite_input_far_from_identity_rejected(self):
        # tr(P) > 0, but A = P / tr(P) = diag(10, -9) is no unit-trace PSD matrix
        with pytest.raises(InvalidInputError, match="too far from identity to be PSD"):
            ns_forward(np.diag([1.0, -0.9]), 5)

    def test_needs_at_least_one_iteration(self):
        with pytest.raises(InvalidInputError):
            ns_forward(np.eye(2), 0)

    def test_divergence_guard_is_typed(self):
        # indefinite input with a mildly negative eigenvalue slips past the
        # sanity bound but the iteration blows up; the guard must catch it
        from specgrad.errors import NumericalFailureError

        with pytest.raises(NumericalFailureError) as err:
            ns_forward(np.diag([2.0, -0.5]), 30)
        assert "step" in err.value.details

    def test_divergence_guard_names_step_and_entry(self):
        with pytest.raises(NumericalFailureError) as err:
            ns_forward(np.diag([1.0, -0.5]), 10)
        assert err.value.details == {"step": 4, "max_entry": 3014557.0}


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
                p_arr = random_spd(d, local)
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
        # trace of general matrices (after Z_0 = I, which the trace implies),
        # each T_k built from its Y and Z by the forward's rule
        d = 6
        local = np.random.default_rng(iterations)
        y_seq = [np.eye(d) / d + 0.1 * local.normal(size=(d, d))
                 for _ in range(iterations + 1)]
        z_seq = [np.eye(d) + 0.1 * local.normal(size=(d, d)) for _ in range(iterations - 1)]
        t_seq = [0.5 * (3.0 * np.eye(d) - z @ y) for y, z in zip(y_seq, [np.eye(d)] + z_seq)]
        trace = NewtonSchulzTrace(tuple(y_seq), tuple(z_seq), tuple(t_seq), np.array(2.5))
        grad_q = local.normal(size=(d, d))
        ref = expanded_ns_backward(trace, grad_q)
        g = ns_backward(trace, grad_q)
        assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("iterations,forward,backward",
                             [(1, 1, 2), (2, 3, 6), (5, 12, 24), (10, 27, 54)])
    def test_matmul_counts(self, rng, iterations, forward, backward):
        # 3N - 3 forward and 6N - 6 backward for N >= 2, as the module states;
        # every trace array descends from P, so each matmul has a counting operand
        p = random_spd(5, rng)
        MatmulCounting.matmuls = 0
        _, trace = ns_forward(p.view(MatmulCounting), iterations)
        assert MatmulCounting.matmuls == forward
        MatmulCounting.matmuls = 0
        ns_backward(trace, rng.normal(size=(5, 5)))
        assert MatmulCounting.matmuls == backward
        # a stack of three makes the same number of (stacked) matmul calls, not 3x
        stack = np.stack([random_spd(5, rng) for _ in range(3)]).view(MatmulCounting)
        MatmulCounting.matmuls = 0
        _, trace = ns_forward(stack, iterations)
        assert MatmulCounting.matmuls == forward
        MatmulCounting.matmuls = 0
        ns_backward(trace, rng.normal(size=(3, 5, 5)))
        assert MatmulCounting.matmuls == backward

    def test_trace_loss_gradient_is_half_inverse_sqrt(self):
        # d tr(P^(1/2)) / dP = (1/2) P^(-1/2); at P = I that is I/2
        _, trace = ns_forward(np.eye(3), 20)
        g = ns_backward(trace, np.eye(3))
        np.testing.assert_allclose(g, 0.5 * np.eye(3), atol=1e-8)

    def test_matches_finite_differences_badly_conditioned(self):
        # condition number 1e4, the top of the stated oracle range
        local = np.random.default_rng(13)
        p = spd_with_condition(5, 1e4, local)
        w = local.normal(size=(5, 5))
        assert fd_relative_error(p, w, 5) <= 1e-4

    def test_leaves_its_inputs_untouched(self, rng):
        _, trace = ns_forward(random_spd(6, rng), 5)
        grad_q = rng.normal(size=(6, 6))
        before = grad_q.copy()
        out = ns_backward(trace, grad_q)
        assert same_bits(grad_q, before) and not np.shares_memory(out, grad_q)


class TestTrace:
    I = np.eye(3)

    def test_one_step_trace_holds_no_z(self, rng):
        # N = 1 reads only Z_0 = I, which the trace implies
        p = random_spd(3, rng)
        _, trace = ns_forward(p, 1)
        assert trace.z_seq == () and len(trace.y_seq) == 2 and len(trace.t_seq) == 1
        rebuilt = NewtonSchulzTrace(trace.y_seq, (), trace.t_seq, trace.trace_p)
        grad_q = rng.normal(size=(3, 3))
        assert np.array_equal(ns_backward(rebuilt, grad_q), ns_backward(trace, grad_q))
        ref = expanded_ns_backward(trace, grad_q)
        assert np.abs(ns_backward(trace, grad_q) - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_trace_p_has_no_default(self):
        a = self.I / 3
        with pytest.raises(TypeError):
            NewtonSchulzTrace((a, a), (), (self.I,))


class TestGradientOfX:
    def test_zero_and_symmetry_doubling(self, rng):
        x = rng.normal(size=(3, 7))
        assert np.abs(ns_gradient_of_x(np.zeros((3, 3)), x)).max() == 0.0
        g = rng.normal(size=(3, 3))
        g = g + g.T
        ibar = (np.eye(7) - np.ones((7, 7)) / 7) / 7
        expected = 2.0 * g @ x @ ibar
        np.testing.assert_allclose(ns_gradient_of_x(g, x), expected, atol=1e-12)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(InvalidInputError):
            ns_gradient_of_x(np.zeros((4, 4)), rng.normal(size=(3, 7)))

    def test_end_to_end_finite_differences(self, rng):
        x_arr = rng.normal(size=(4, 10))
        w = rng.normal(size=(4, 4))

        def loss(arr):
            q, _ = ns_forward(covariance(arr), 7)
            return float(np.sum(w * q))

        _, trace = ns_forward(covariance(x_arr), 7)
        gp = ns_backward(trace, w)
        gx = ns_gradient_of_x(gp, x_arr)
        h = 1e-6
        fd = np.zeros_like(x_arr)
        for i in range(4):
            for j in range(10):
                pert = np.zeros_like(x_arr)
                pert[i, j] = h
                fd[i, j] = (loss(x_arr + pert) - loss(x_arr - pert)) / (2 * h)
        assert np.abs(gx - fd).max() / np.abs(fd).max() <= 1e-4

    @pytest.mark.parametrize("d", [1, 8, 64, 256])
    @pytest.mark.parametrize("batch", [None, 3], ids=["single", "stack3"])
    def test_has_the_bits_of_the_bare_numpy_chain(self, d, batch):
        rng = np.random.default_rng(d)
        n = 4 * d + 2  # not a power of two, so the order of the divisions shows
        x = rng.normal(size=(d, n) if batch is None else (batch, d, n))
        grad_p = rng.normal(size=x.shape[:-1] + (d,))
        grad_before, x_before = grad_p.copy(), x.copy()
        got = ns_gradient_of_x(grad_p, x)
        assert same_bits(got, chain_to_x(grad_p, x))
        assert same_bits(grad_p, grad_before) and same_bits(x, x_before)
        assert not np.shares_memory(got, grad_p) and not np.shares_memory(got, x)


class TestMemory:
    """Peak bytes a call allocates, counted by ``tracemalloc``: deterministic, unlike its time.

    The chain to X and the backward form their products in place, so each
    call holds a fixed number of arrays live at the pooling width d = 128,
    N = 4d. The slack covers array headers and the d-vector of row sums, and
    is far below one d x d array (131072 bytes).
    """

    D, N, SLACK = 128, 512, 4096

    @staticmethod
    def peak(call) -> int:
        call()  # the width's cached identity is built outside the count
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("batch", [None, 2], ids=["single", "stack2"])
    def test_chain_to_x_holds_one_d_by_n_array(self, batch):
        d, n = self.D, self.N
        rng = np.random.default_rng(0)
        shape = (d, n) if batch is None else (batch, d, n)
        x = rng.normal(size=shape)
        grad_p = rng.normal(size=shape[:-1] + (d,))
        per_matrix = 8 * (d * n + d * d)  # the d x N result and G + G^T
        assert self.peak(lambda: ns_gradient_of_x(grad_p, x)) <= (batch or 1) * per_matrix + self.SLACK

    def test_backward_holds_six_d_by_d_arrays(self):
        d = self.D
        rng = np.random.default_rng(1)
        _, trace = ns_forward(covariance(rng.normal(size=(d, self.N))), 5)
        grad_q = rng.normal(size=(d, d))
        assert self.peak(lambda: ns_backward(trace, grad_q)) <= 6 * 8 * d * d + self.SLACK


class TestStack:
    """A leading batch axis gives each matrix the bits of its own call."""

    @pytest.mark.parametrize("batch", [1, 3, 8])
    @pytest.mark.parametrize("d", [2, 8, 64])
    def test_same_bits_as_single_matrices(self, d, batch):
        local = np.random.default_rng(10 * d + batch)
        data = local.normal(size=(batch, d, 3 * d))
        grad_q = local.normal(size=(batch, d, d))
        x = data.copy()
        p = covariance(x)
        q, trace = ns_forward(p, 5)
        grad_p = ns_backward(trace, grad_q)
        grad_x = ns_gradient_of_x(grad_p, x)
        assert p.shape == q.shape == (batch, d, d) and trace.d == d
        assert grad_x.shape == data.shape
        for b in range(batch):
            x_b = data[b]
            p_b = covariance(x_b)
            q_b, trace_b = ns_forward(p_b, 5)
            grad_p_b = ns_backward(trace_b, grad_q[b])
            assert same_bits(p[b], p_b)
            assert same_bits(q[b], q_b)
            assert trace.trace_p[b] == trace_b.trace_p
            for seq, seq_b in zip(
                (trace.y_seq, trace.z_seq, trace.t_seq),
                (trace_b.y_seq, trace_b.z_seq, trace_b.t_seq),
            ):
                assert len(seq) == len(seq_b)
                assert all(same_bits(s[b], s_b) for s, s_b in zip(seq, seq_b))
            assert same_bits(grad_p[b], grad_p_b)
            assert same_bits(grad_x[b], ns_gradient_of_x(grad_p_b, x_b))

    def test_stacked_trace_rebuilds_through_its_constructor(self):
        local = np.random.default_rng(7)
        _, trace = ns_forward(covariance(local.normal(size=(3, 4, 12))), 5)
        assert trace.trace_p.shape == (3,)  # one tr(P) per matrix
        rebuilt = NewtonSchulzTrace(trace.y_seq, trace.z_seq, trace.t_seq, trace.trace_p)
        grad_q = local.normal(size=(3, 4, 4))
        assert same_bits(ns_backward(rebuilt, grad_q), ns_backward(trace, grad_q))

    def test_one_failing_matrix_fails_the_stack(self, rng):
        # each check reads every matrix: one member with tr(P) <= 0 or a
        # non-finite gradient raises for the whole stack, as its own call would
        good = random_spd(3, rng)
        with pytest.raises(InvalidInputError, match="tr\\(P\\) > 0, got -1.000e\\+00"):
            ns_forward(np.stack([good, -np.eye(3) / 3]), 5)
        grad = rng.normal(size=(2, 3, 3))
        grad[1, 0, 0] = np.nan
        _, trace = ns_forward(np.stack([good, good]), 5)
        with pytest.raises(InvalidInputError, match="non-finite gradient input"):
            ns_backward(trace, grad)
        with pytest.raises(InvalidInputError, match="gradient shape \\(3, 3\\)"):
            ns_backward(trace, grad[0])

    @pytest.mark.parametrize("guard", ["divergence", "trace overflow"])
    def test_guard_reports_the_first_failing_matrix(self, guard):
        # matrices 1 and 2 both fail the guard, and matrix 2's entries are the
        # larger: the stack raises what matrix 1 raises alone
        if guard == "divergence":
            # indefinite, both diverge at step 4: max_entry 3.0e6 and 1.2e7
            failing = [np.diag([2.0, -1.0]), np.diag([2.1, -1.1])]
        else:
            failing = [np.diag([1e308, 1e308]), np.diag([1.7e308, 1.7e308])]
        stack = np.stack([np.eye(2), *failing])
        with np.errstate(over="ignore"):  # the trace's own overflow
            with pytest.raises(NumericalFailureError) as got:
                ns_forward(stack, 5)
            with pytest.raises(NumericalFailureError) as alone:
                ns_forward(failing[0], 5)
        assert str(got.value) == str(alone.value)
        assert got.value.details == alone.value.details
        assert got.value.details["max_entry"] == (3014557.0 if guard == "divergence" else 1e308)
