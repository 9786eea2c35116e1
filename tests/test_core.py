import math
import os
import re
import warnings

import numpy as np
import pytest

from specgrad.core import (
    EPS_DOUBLE,
    EPS_SINGLE,
    ILL_CONDITIONED_THRESHOLD,
    FeatureMatrix,
    SymPsdMatrix,
    _require_finite,
    _triu,
    clamp_eigenvalues,
    condition_number,
    count_clamped,
    covariance,
    eigh,
    matrix_power,
)
from specgrad import io
from specgrad.errors import InvalidInputError, NumericalFailureError
from specgrad.layer import (
    GcpLayerConfig,
    _eigh_each,
    _trusted,
    gcp_backward,
    gcp_forward,
    grad_check,
    grad_from_upper_triangle,
    upper_triangle_vector,
)
from specgrad.newton_schulz import ns_forward
from specgrad.pade import (
    PadeApproximant,
    PowerSeries,
    approximation_error_table,
    diagonal_degrees,
    eval_rational,
    geometric_series,
    pade_from_series,
    reciprocal_gap_pade,
)
from specgrad.schemes import (
    BackwardScheme,
    grad_covariance,
    k_matrix,
)
from specgrad.synth import feature_matrix_with_spectrum, gaussian_features, spectrum_for_condition
from specgrad.training import HybridSchedule, ToyModelSpec, batch_stream, make_toy_task

from conftest import random_spd, same_bits
from oracles import centering_matrix, reconstruct

#: the five schemes that build a K matrix
K_SCHEMES = (
    BackwardScheme.ordinary(),
    BackwardScheme.topn(),
    BackwardScheme.trunc(),
    BackwardScheme.taylor(100),
    BackwardScheme.pade(100),
)


@pytest.mark.parametrize(
    "cls,inputs",
    [
        (FeatureMatrix, ([[1.0, 2.0, 3.0], [4.0, 5.0, 7.0]],)),
        (SymPsdMatrix, ([[2.0, 1.0], [1.0, 2.0]],)),
        (PowerSeries, ([1.0, 1.0, 1.0],)),
        (PadeApproximant, ([1.0, 0.5], [0.5])),
    ],
    ids=["FeatureMatrix", "SymPsdMatrix", "PowerSeries", "PadeApproximant"],
)
def test_value_objects_hold_read_only_copies(cls, inputs):
    inputs = [np.array(a) for a in inputs]
    obj = cls(*inputs)
    fields = {k: v for k, v in vars(obj).items() if isinstance(v, np.ndarray)}
    assert len(fields) == len(inputs)
    snapshot = {k: v.copy() for k, v in fields.items()}
    for name, value in fields.items():
        assert not value.flags.writeable, name
    for a in inputs:
        a += 1.0
    for name, value in fields.items():
        np.testing.assert_array_equal(value, snapshot[name], err_msg=name)


_X = FeatureMatrix(np.random.default_rng(0).normal(size=(2, 6)))
_I = np.eye(2)
_EIG = GcpLayerConfig.eig(BackwardScheme.pade())
_NS = GcpLayerConfig.newton_schulz(2)
#: a (2, 2, 6) stack: ``gcp_backward`` checks a stack's gradient before
#: ``grad_covariance`` or ``ns_backward`` reads it
_X_STACK = _trusted(FeatureMatrix, data=np.random.default_rng(1).normal(size=(2, 2, 6)))

#: every array argument the package converts, with the name its refusal gives
ARRAY_ARGUMENTS = {
    "FeatureMatrix": ("feature matrix", lambda a: FeatureMatrix(a)),
    "SymPsdMatrix": ("matrix", lambda a: SymPsdMatrix(a)),
    "grad_covariance": ("gradient", lambda a: gcp_backward(gcp_forward(_X_STACK, _EIG)[1], a)),
    "ns_backward": ("gradient", lambda a: gcp_backward(gcp_forward(_X_STACK, _NS)[1], a)),
    "gcp_backward-eig": ("gradient", lambda a: gcp_backward(gcp_forward(_X, _EIG)[1], a)),
    "gcp_backward-ns": ("gradient", lambda a: gcp_backward(gcp_forward(_X, _NS)[1], a)),
    "upper_triangle_vector": ("q", upper_triangle_vector),
    "grad_from_upper_triangle": ("gradient vector", lambda a: grad_from_upper_triangle(a, 2)),
    "PowerSeries": ("power series coefficients", lambda a: PowerSeries(a)),
    "PadeApproximant-p": ("approximant p", lambda a: PadeApproximant(a, [0.5])),
    "PadeApproximant-q": ("approximant q", lambda a: PadeApproximant([1.0], a)),
    "eval_rational": ("x", lambda a: eval_rational(reciprocal_gap_pade("pade", 3), a)),
    "approximation_error_table": ("ratios", lambda a: approximation_error_table("taylor", (2,), a)),
    "write_feature_file": ("feature matrix", lambda a: io.write_feature_file(os.devnull, [a])),
    "feature_matrix_with_spectrum": (
        "target eigenvalues",
        lambda a: feature_matrix_with_spectrum(a, 9, np.random.default_rng(0)),
    ),
}

NOT_REAL = {
    "strings": np.array(["a", "b"]),
    "dict": {"a": 1.0},
    "ragged": [[1.0, 2.0], [3.0]],
    "complex": np.array([[1.0 + 1.0j, 0.0], [0.0, 1.0]]),
}


@pytest.mark.parametrize("value", NOT_REAL.values(), ids=NOT_REAL.keys())
@pytest.mark.parametrize("name,call", ARRAY_ARGUMENTS.values(), ids=ARRAY_ARGUMENTS.keys())
def test_array_argument_that_is_not_real_numbers_is_refused_by_name(name, call, value):
    # one rule (``core._float_array``) converts every array argument; complex
    # input is refused, not truncated with a warning or kept complex
    refusal = f"^{re.escape(name)} must be (numeric: |real, got complex)"
    with pytest.raises(InvalidInputError, match=refusal):
        call(value)


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

    def test_float32_sym_matrix_holds_float64_and_roots_in_float64(self):
        # the layer is float64 by construction: the NS forward of a float32
        # input runs in float64, as the exact forward does
        p = SymPsdMatrix(np.diag([2.0, 1.0]).astype(np.float32))
        assert p.data.dtype == np.float64
        q, trace = ns_forward(p.data, 5)
        assert q.dtype == np.float64
        assert all(y.dtype == np.float64 for y in trace.y_seq)

    def test_sym_matrix_rejects_asymmetric(self):
        with pytest.raises(InvalidInputError):
            SymPsdMatrix(np.array([[1.0, 2.0], [0.0, 3.0]]))

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: FeatureMatrix(np.ones(4)), "feature matrix must be 2-d, got shape (4,)"),
            (lambda: SymPsdMatrix(np.ones((2, 3))), "expected a square matrix, got shape (2, 3)"),
            (lambda: SymPsdMatrix(np.diag([1.0, np.inf])), "matrix contains non-finite entries"),
            (lambda: SymPsdMatrix(np.zeros((0, 0))), "need d >= 1, got shape (0, 0)"),
        ],
        ids=["features-1d", "sym-not-square", "sym-non-finite", "sym-empty"],
    )
    def test_malformed_value_refused(self, build, message):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            build()

    def test_precision_eps_values(self):
        assert EPS_DOUBLE == 2.0**-52
        assert EPS_SINGLE == 2.0**-23

    @pytest.mark.parametrize("width", [np.float16, np.int64, np.complex128, "half", "bogus"])
    def test_width_other_than_float32_or_float64_is_rejected(self, width):
        with pytest.raises(InvalidInputError):
            clamp_eigenvalues(np.array([1.0, 0.0]), width)


class TestCovariance:
    def test_constant_rows_give_zero(self):
        x = np.array([[3.0, 3.0, 3.0], [-1.0, -1.0, -1.0]])
        assert np.abs(covariance(x)).max() == 0.0

    def test_hand_case(self):
        # P = X Ibar X^T for X = [[1,-1],[0,0]]: centered columns are
        # (1,0) and (-1,0), so the (0,0) entry is (1 + 1)/2 = 1
        x = np.array([[1.0, -1.0], [0.0, 0.0]])
        np.testing.assert_allclose(covariance(x), np.array([[1.0, 0.0], [0.0, 0.0]]), atol=1e-15)

    def test_matches_centering_matrix_formula(self, rng):
        x = rng.normal(size=(4, 50))
        direct = covariance(x)
        literal = x @ centering_matrix(50) @ x.T
        np.testing.assert_allclose(direct, literal, atol=1e-13)

    def test_matches_per_sample_oracle(self, rng):
        x = rng.normal(size=(4, 50))
        mean = x.mean(axis=1)
        oracle = sum(np.outer(x[:, i] - mean, x[:, i] - mean) for i in range(50)) / 50
        np.testing.assert_allclose(covariance(x), oracle, atol=1e-12)

    def test_output_is_psd_up_to_roundoff(self, rng):
        for _ in range(10):
            x = rng.normal(size=(6, 9))
            p = covariance(x)
            lam = np.linalg.eigvalsh(p)
            assert lam.min() >= -1e-10 * max(lam.max(), 1.0)
            assert np.array_equal(p, p.T)


class TestEigh:
    def test_diagonal_matrix(self):
        lam, u = eigh(np.diag([4.0, 1.0]))
        np.testing.assert_allclose(lam, [4.0, 1.0])
        np.testing.assert_allclose(np.abs(u), np.eye(2), atol=1e-14)

    def test_analytic_2x2(self):
        lam, u = eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(lam, [3.0, 1.0], rtol=1e-14)
        s = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(np.abs(u), [[s, s], [s, s]], rtol=1e-12)

    def test_reconstruction_residual(self, rng):
        for d in (2, 3, 5, 8, 16):
            p = random_spd(d, rng)
            lam, u = eigh(p)
            residual = np.abs(reconstruct(lam, u) - p).max()
            assert residual <= 1e-9 * (1.0 + lam[0])

    def test_matches_reference_eigenvalues(self, rng):
        for _ in range(5):
            p = random_spd(7, rng)
            ref = np.linalg.eigvalsh(p)[::-1]
            np.testing.assert_allclose(eigh(p)[0], ref, rtol=1e-10, atol=1e-12)

    def test_deterministic(self, rng):
        p = random_spd(6, rng)
        lam1, u1 = eigh(p)
        lam2, u2 = eigh(p)
        assert np.array_equal(lam1, lam2)
        assert np.array_equal(u1, u2)

    def test_repeated_eigenvalues_give_orthogonal_basis(self):
        lam, u = eigh(np.diag([2.0, 2.0, 1.0]))
        np.testing.assert_allclose(lam, [2.0, 2.0, 1.0], rtol=1e-14)
        # subspace comparison, not vector comparison: span of first two
        # columns must be the xy-plane
        sub = u[:, :2]
        proj = sub @ sub.T
        np.testing.assert_allclose(proj, np.diag([1.0, 1.0, 0.0]), atol=1e-12)

    def test_zero_matrix(self):
        np.testing.assert_allclose(eigh(np.zeros((3, 3)))[0], np.zeros(3))

    def test_stack_orders_each_matrix_by_its_own_eigenvalues(self, rng):
        # each matrix's last axis is reversed, not the stack's batch axis
        lam, u = eigh(np.stack([np.diag([1.0, 3.0]), np.diag([5.0, 2.0])]))
        np.testing.assert_array_equal(lam, [[3.0, 1.0], [5.0, 2.0]])
        np.testing.assert_array_equal(np.abs(u), [[[0.0, 1.0], [1.0, 0.0]], np.eye(2)])
        p = np.stack([random_spd(6, rng) for _ in range(3)])
        stacked = eigh(p)
        for got, want in zip(stacked, _eigh_each(p)):
            assert same_bits(got, want)

    @pytest.mark.parametrize("d", [1, 64, 256])  # 256: the paper's pooling width
    def test_moderately_large_matrix(self, rng, d):
        p = random_spd(d, rng)
        lam, u = eigh(p)
        assert np.abs(reconstruct(lam, u) - p).max() <= 1e-9 * (1.0 + lam[0])
        assert np.abs(u.T @ u - np.eye(d)).max() <= 1e-10
        ref = np.linalg.eigvalsh(p)[::-1]
        np.testing.assert_allclose(lam, ref, rtol=1e-9, atol=1e-10)

    @pytest.mark.parametrize("spectrum", ["random", "tied", "clamped"])
    def test_results_do_not_read_eigenvector_signs(self, rng, spectrum):
        # each term of U f(Lambda) U^T and of the backward's projections
        # carries a column's sign twice, and negation is exact: flipping any
        # subset of columns changes no bit of Q or of dL/dP. At an exact tie
        # (a diagonal P, or a clamped tail) the ordinary and topn K are
        # infinite, and the gradient is non-finite in the same entries either way
        for i in range(4):
            if spectrum == "random":
                p = random_spd(6, rng)
            elif spectrum == "tied":
                rot = np.linalg.qr(rng.normal(size=(6, 6)))[0] if i else np.eye(6)
                p = SymPsdMatrix((rot * [3.0, 3.0, 3.0, 1.0, 1.0, 0.5]) @ rot.T).data
            else:  # 3 samples: a rank-2 covariance with a clamped tail
                p = covariance(rng.normal(size=(6, 3)))
            lam, u = eigh(p)
            lam = clamp_eigenvalues(lam)
            flip = rng.random(6) < 0.5
            flip[rng.integers(6)] = True
            flipped = u * np.where(flip, -1.0, 1.0)
            assert np.array_equal(matrix_power(lam, flipped, 0.5), matrix_power(lam, u, 0.5))
            g = rng.normal(size=(6, 6))
            for scheme in K_SCHEMES:
                k = k_matrix(lam, scheme)
                with np.errstate(invalid="ignore"):
                    ref = grad_covariance(g, lam, u, k)
                    out = grad_covariance(g, lam, flipped, k)
                assert np.array_equal(out, ref, equal_nan=True), scheme.label

    def test_solver_failure_is_typed(self, monkeypatch):
        # the error names the solve and carries the largest |entry| of the
        # matrix it was given; through a stack, that of the failing matrix
        solve = np.linalg.eigh

        def fail_above(limit):
            def eigh_or_fail(a):
                if np.abs(a).max() > limit:
                    raise np.linalg.LinAlgError("Eigenvalues did not converge")
                return solve(a)

            return eigh_or_fail

        monkeypatch.setattr(np.linalg, "eigh", fail_above(0.0))
        with pytest.raises(NumericalFailureError, match="^eigensolver did not converge") as err:
            eigh(np.diag([1.0, -3.0]))
        assert err.value.details == {"where": "eigh", "max_entry": 3.0}

        data = np.random.default_rng(0).normal(size=(3, 4, 12))
        data[1] *= 10.0
        data[2] *= 100.0
        x = _trusted(FeatureMatrix, data=data)
        p = covariance(data)
        largest = [float(np.abs(p_b).max()) for p_b in p]
        # the first matrix passes; the second and third fail, and the third's entries are larger
        monkeypatch.setattr(np.linalg, "eigh", fail_above(largest[0]))
        with pytest.raises(NumericalFailureError) as err:
            gcp_forward(x, GcpLayerConfig.eig(BackwardScheme.pade()))
        assert largest[0] < largest[1] < largest[2]
        assert err.value.details == {"where": "eigh", "max_entry": largest[1]}


def _stacked_stage_arrays() -> dict:
    """Three (5, 8) feature blocks and what the exact path makes of them, stacked.

    Block 1 repeats a channel, so one of its eigenvalues clamps.
    """
    rng = np.random.default_rng(4)
    data = rng.normal(size=(3, 5, 8))
    data[1, 4] = data[1, 3]
    p = covariance(data)
    lam, u = _eigh_each(p)
    clamped = clamp_eigenvalues(lam)
    return {"data": data, "lam": lam, "clamped": clamped, "u": u, "g": rng.normal(size=p.shape)}


#: each stage kernel that takes a stack, with the arrays it is called on
STACKED_STAGES = {
    "covariance": (covariance, ("data",)),
    "clamp_eigenvalues": (clamp_eigenvalues, ("lam",)),
    "count_clamped": (count_clamped, ("lam",)),
    "matrix_power": (lambda lam, u: matrix_power(lam, u, 0.5), ("clamped", "u")),
    **{
        f"k_matrix-{scheme.kind}": ((lambda lam, s=scheme: k_matrix(lam, s)), ("clamped",))
        for scheme in K_SCHEMES
    },
    "grad_covariance": (
        lambda g, lam, u: grad_covariance(g, lam, u, k_matrix(lam, K_SCHEMES[-1])),
        ("g", "clamped", "u"),
    ),
}


@pytest.mark.parametrize("stage", STACKED_STAGES)
def test_stage_kernel_gives_each_matrix_of_a_stack_its_own_bits(stage):
    call, names = STACKED_STAGES[stage]
    arrays = _stacked_stage_arrays()
    stacked = call(*(arrays[name] for name in names))
    assert len(stacked) == 3
    for b in range(3):
        assert same_bits(stacked[b], call(*(arrays[name][b] for name in names))), b
    assert count_clamped(arrays["lam"]).tolist() == [0, 1, 0]


class TestTriangleIndices:
    @pytest.mark.parametrize("d,k", [(1, 0), (4, 0), (4, 1), (8, 1)])
    def test_matches_numpy_and_is_cached_read_only(self, d, k):
        rows, cols = _triu(d, k)
        ref = np.triu_indices(d, k)
        assert np.array_equal(rows, ref[0]) and np.array_equal(cols, ref[1])
        assert _triu(d, k) is _triu(d, k)
        for a in (rows, cols):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0


class TestClamp:
    def test_forced_by_rule(self):
        np.testing.assert_allclose(clamp_eigenvalues(np.array([1.0, 0.0])), [1.0, EPS_DOUBLE])

    def test_no_change_above_eps(self):
        np.testing.assert_allclose(clamp_eigenvalues(np.array([1.0, 0.5])), [1.0, 0.5])

    def test_tiny_values_collapse_to_eps(self):
        out = clamp_eigenvalues(np.array([1e-20, 1e-30]))
        np.testing.assert_allclose(out, [EPS_DOUBLE, EPS_DOUBLE])

    def test_single_precision_eps(self):
        out = clamp_eigenvalues(np.array([1.0, 1e-9]), np.float32)
        np.testing.assert_allclose(out, [1.0, EPS_SINGLE])

    def test_idempotent(self, rng):
        lam = np.sort(np.abs(rng.normal(size=6) * 1e-12))[::-1]
        once = clamp_eigenvalues(lam)
        assert np.array_equal(once, clamp_eigenvalues(once))


class TestMatrixPower:
    def test_diagonal_square_root(self):
        q = matrix_power(*eigh(np.diag([4.0, 1.0])), 0.5)
        np.testing.assert_allclose(q, np.diag([2.0, 1.0]), atol=1e-14)

    def test_identity_power(self, rng):
        p = random_spd(5, rng)
        assert np.abs(matrix_power(*eigh(p), 1.0) - p).max() <= 1e-10

    def test_squaring_oracle(self, rng):
        for _ in range(5):
            p = random_spd(6, rng)
            q = matrix_power(*eigh(p), 0.5)
            np.testing.assert_allclose(q @ q, p, rtol=1e-9, atol=1e-9)

    def test_negative_eigenvalue_fractional_power(self):
        # matrix_power trusts its eigenvalues: the layer clamps a negative
        # one to eps first, so the square root stays real
        q = matrix_power(clamp_eigenvalues(np.array([1.0, -0.5])), _I, 0.5)
        np.testing.assert_array_equal(q, np.diag([1.0, math.sqrt(EPS_DOUBLE)]))

    @pytest.mark.parametrize("alpha,same_as", [(1, 1.0), (np.float64(0.5), 0.5), (np.int64(2), 2.0)])
    def test_integer_and_numpy_exponents_pass_as_their_float(self, rng, alpha, same_as):
        lam, u = eigh(random_spd(4, rng))
        assert np.array_equal(matrix_power(lam, u, alpha), matrix_power(lam, u, same_as))

    def test_sqrt_squared_relative_frobenius(self, rng):
        # cond <= 1e12 regime: sqrt then square reproduces the matrix
        lam = np.array([1.0, 1e-3, 1e-6, 1e-9])
        u = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        p = SymPsdMatrix((u * lam) @ u.T).data
        lam, u = eigh(p)
        q = matrix_power(clamp_eigenvalues(lam), u, 0.5)
        rel = np.linalg.norm(q @ q - p) / np.linalg.norm(p)
        assert rel <= 1e-8


class TestRequireFinite:
    """A stack of products raises what its first non-finite matrix raises alone."""

    def test_stack_reports_its_first_failing_matrix(self, rng):
        # matrices 2 and 3 of 4 fail; matrices 0 and 3 hold larger operand entries
        operand = rng.uniform(-1.0, 1.0, size=(4, 3, 6))
        operand[2, 1, 4] = 7.5
        operand[0] *= 100.0
        operand[3] *= 1000.0
        product = operand @ operand.mT
        product[2, 0, 1] = product[2, 2, 2] = np.inf
        product[3] = np.nan
        with pytest.raises(NumericalFailureError) as got:
            _require_finite(product, "p", operand)
        with pytest.raises(NumericalFailureError) as alone:
            _require_finite(product[2], "p", operand[2])
        assert str(got.value) == str(alone.value)
        assert str(got.value) == (
            "p is non-finite in 2 of 9 entries (largest |operand entry| 7.500e+00)"
        )
        assert got.value.details == alone.value.details == {"where": "p", "max_entry": 7.5}

    def test_shared_operand_is_read_whole(self, rng):
        # w1 @ r at d = B = 8: w1's leading axis has the batch's length, but
        # w1 is shared by every sample, so sample 5 must not read w1[5]
        w1 = rng.uniform(-1.0, 1.0, size=(8, 8))
        w1[0, 0] = 9.0
        features = w1 @ rng.normal(size=(8, 8, 32))
        features[5, 3, :4] = np.inf
        with pytest.raises(NumericalFailureError) as err:
            _require_finite(features, "features w1 @ r", w1)
        assert err.value.details["max_entry"] == 9.0
        assert "non-finite in 4 of 256 entries" in str(err.value)

    def test_matrix_power_slices_its_eigenvalues(self):
        # B = d = 2: the (B, d) eigenvalues are stacked with Q, so matrix 1
        # reports its own largest eigenvalue, 1, not matrix 0's 5e300
        lam = np.array([[5e300, 1.0], [1.0, 1e-320]])
        with np.errstate(all="ignore"):  # 1 / 1e-320 overflows, 0 * inf is nan
            with pytest.raises(NumericalFailureError) as got:
                matrix_power(lam, np.stack([_I] * 2), -1.0)
            with pytest.raises(NumericalFailureError) as alone:
                matrix_power(lam[1], _I, -1.0)
        assert str(got.value) == str(alone.value)
        assert got.value.details == alone.value.details
        assert got.value.details["max_entry"] == 1.0


class TestConditionNumber:
    def test_identity(self):
        cn = condition_number(eigh(np.eye(4))[0])
        assert cn == 1.0 and not cn > ILL_CONDITIONED_THRESHOLD

    def test_threshold_is_strict(self):
        # the CLI flags a condition number strictly above the threshold
        cn = condition_number(np.array([1e14, 1.0]))
        assert cn == 1e14 and not cn > ILL_CONDITIONED_THRESHOLD
        assert condition_number(np.array([1.0000001e14, 1.0])) > ILL_CONDITIONED_THRESHOLD

    def test_zero_eigenvalue_sentinel(self):
        cn = condition_number(np.array([1.0, 0.0]))
        assert math.isinf(cn) and cn > ILL_CONDITIONED_THRESHOLD

    def test_matches_reference_solver(self, rng):
        for _ in range(5):
            p = random_spd(6, rng)
            cn = condition_number(eigh(p)[0])
            ref = np.linalg.eigvalsh(p)
            expected = ref[-1] / ref[0]
            assert abs(cn - expected) <= 1e-8 * expected



_TOY = ToyModelSpec(d=2, raw_dim=2, n_cols=4)

#: every public entry point that takes a count, called with the count ``v``
COUNT_SITES = {
    "BackwardScheme": lambda v: BackwardScheme.pade(v),
    # the Newton-Schulz forward's iteration count, checked where the layer is configured
    "ns_forward": lambda v: GcpLayerConfig.newton_schulz(v),
    "diagonal_degrees": diagonal_degrees,
    "reciprocal_gap_pade": lambda v: reciprocal_gap_pade("pade", v),
    "reciprocal_gap_pade.taylor": lambda v: reciprocal_gap_pade("taylor", v),
    "approximation_error_table": lambda v: approximation_error_table("taylor", (v,), (0.5,)),
    "make_toy_task": lambda v: make_toy_task(_TOY, v),
    # refused by the call itself, not on the first batch drawn
    "batch_stream": lambda v: batch_stream(make_toy_task(_TOY, 6), v, 3),
    # a stream of zero steps would train nothing and report "completed"
    "batch_stream.steps": lambda v: batch_stream(make_toy_task(_TOY, 6), 2, v),
    "ToyModelSpec.d": lambda v: ToyModelSpec(d=v, raw_dim=3),
    "ToyModelSpec.raw_dim": lambda v: ToyModelSpec(d=2, raw_dim=v),
    "ToyModelSpec.n_cols": lambda v: ToyModelSpec(d=2, raw_dim=2, n_cols=v),
    "ToyModelSpec.forward_iterations": lambda v: ToyModelSpec(forward_iterations=v),
    "spectrum_for_condition": lambda v: spectrum_for_condition(v, 10.0),
    "gaussian_features.d": lambda v: gaussian_features(v, 4, np.random.default_rng(0)),
    "gaussian_features.n_cols": lambda v: gaussian_features(2, v, np.random.default_rng(0)),
}


class TestCountRule:
    """A count is a positive int; an integral float passes as one."""

    @pytest.mark.parametrize("value", [2.5, True, 0], ids=["fraction", "bool", "zero"])
    @pytest.mark.parametrize("site", COUNT_SITES)
    def test_refused(self, site, value):
        # a cached degree 1 must not admit True
        reciprocal_gap_pade("pade", 1)
        reciprocal_gap_pade("taylor", 1)
        with pytest.raises(InvalidInputError, match=f"must be a positive int, got {value}$"):
            COUNT_SITES[site](value)

    @pytest.mark.parametrize("site", COUNT_SITES)
    def test_integral_float_passes(self, site):
        out = COUNT_SITES[site](2.0)
        if site == "batch_stream":
            assert [yb.size for _, yb in out] == [2, 2, 2]
        if site == "batch_stream.steps":
            assert len(list(out)) == 2
        if isinstance(out, ToyModelSpec):  # stored as the int the model is built from
            assert type(getattr(out, site.split(".")[1])) is int


#: every public entry point that takes a count that may be zero, or a seed, called with ``v``
ZERO_COUNT_SITES = {
    "pade_from_series.m": lambda v: pade_from_series(geometric_series(8), v, 1),
    "pade_from_series.n": lambda v: pade_from_series(geometric_series(8), 1, v),
    "warmup_steps": lambda v: HybridSchedule(BackwardScheme.pade(), None, warmup_steps=v),
    "switch_step": lambda v: HybridSchedule(BackwardScheme.pade(), v),
    "ToyModelSpec.init_seed": lambda v: ToyModelSpec(init_seed=v),
    "make_toy_task.seed": lambda v: make_toy_task(ToyModelSpec(), 2, seed=v),
    "batch_stream.seed": lambda v: batch_stream(make_toy_task(ToyModelSpec(), 2), 2, 1, seed=v),
    "grad_check.seed": lambda v: grad_check(
        GcpLayerConfig.eig(BackwardScheme.ordinary()),
        FeatureMatrix(np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])),
        seed=v,
    ),
}


class TestZeroCountRule:
    """A count that may be zero, and a seed, is a non-negative int; an integral
    float passes as one."""

    @pytest.mark.parametrize("value", [2.5, True, -1], ids=["fraction", "bool", "negative"])
    @pytest.mark.parametrize("site", ZERO_COUNT_SITES)
    def test_refused(self, site, value):
        with pytest.raises(InvalidInputError, match=f"must be a non-negative int, got {value}$"):
            ZERO_COUNT_SITES[site](value)

    @pytest.mark.parametrize("site", ZERO_COUNT_SITES)
    def test_zero_and_integral_float_pass(self, site):
        for value in (0, 2.0):
            out = ZERO_COUNT_SITES[site](value)
            if isinstance(out, HybridSchedule):
                assert type(getattr(out, site)) is int
            if isinstance(out, ToyModelSpec):  # stored as the int the model is seeded with
                assert type(out.init_seed) is int


class TestGradientRule:
    """``gcp_backward`` holds ``grad_q`` to Q's shape and finite entries; one message each.

    A site is the backward kernel that reads the gradient once it passes:
    ``grad_covariance`` under the exact forward, ``ns_backward`` under NS.
    """

    SITES = {"grad_covariance": _EIG, "ns_backward": _NS}

    @staticmethod
    def _refused(cfg, shape, bad):
        x = np.random.default_rng(0).normal(size=shape)
        cache = gcp_forward(_trusted(FeatureMatrix, data=x), cfg)[1]
        q_shape = cache.p.data.shape
        if bad == "shape":
            grad, message = np.ones(2), f"gradient shape (2,) does not match {q_shape}"
        else:
            # one entry of the last matrix: a stack fails as a whole
            grad, message = np.ones(q_shape), "non-finite gradient input"
            grad.flat[-1] = np.nan
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            gcp_backward(cache, grad)

    @pytest.mark.parametrize("bad", ["shape", "nan"])
    @pytest.mark.parametrize("site", SITES)
    def test_refused(self, site, bad):
        self._refused(self.SITES[site], (3, 8), bad)

    @pytest.mark.parametrize("bad", ["shape", "nan"])
    @pytest.mark.parametrize("site", SITES)
    def test_refused_for_a_stack(self, site, bad):
        self._refused(self.SITES[site], (2, 3, 8), bad)

    @pytest.mark.parametrize("site", SITES)
    def test_refused_before_the_backward_can_fail(self, site):
        # tied eigenvalues make ``ordinary``'s K non-finite, and a nan
        # gradient makes the NS backward's product nan; either would be a
        # NumericalFailureError if the gradient reached the kernel
        cfg = GcpLayerConfig.eig(BackwardScheme.ordinary()) if site == "grad_covariance" else _NS
        x = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]])
        cache = gcp_forward(FeatureMatrix(x), cfg)[1]
        grad = np.ones((2, 2))
        grad[0, 1] = np.nan
        with pytest.raises(InvalidInputError, match="^non-finite gradient input$"):
            gcp_backward(cache, grad)
