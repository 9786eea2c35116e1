"""The layer's trusted edge objects hold the invariants the public checks enforce.

Between its stages the layer passes plain arrays; it builds value objects
without re-running their public constructors' checks (``layer._trusted``) in
four places only: Q and the cached covariance in ``gcp_forward``, the bumped
features of ``grad_check`` and the pooled features of the training loop.
These tests re-run the public checks on each of them, over full-rank and
rank-deficient (clamped-tail) inputs, alone and in a stack; check that the
cache's eigenpairs and NS traces are read-only, and that the eigenpairs
and K matrices the kernels hand each other hold what the next kernel
trusts; and pin that a product of valid input that overflows in a stage
kernel raises ``NumericalFailureError`` rather than passing on inf or nan.
"""

import numpy as np
import pytest

from specgrad.core import (
    FeatureMatrix,
    SymPsdMatrix,
    clamp_eigenvalues,
    count_clamped,
    covariance,
    eigh,
    matrix_power,
)
from specgrad.errors import NumericalFailureError
from specgrad.layer import GcpLayerConfig, _bumped, _trusted, gcp_forward
from specgrad.newton_schulz import ns_forward
from specgrad.schemes import BackwardScheme, k_matrix
from specgrad.training import ToyModel, ToyModelSpec, _pool

K_SCHEMES = (
    BackwardScheme.ordinary(),
    BackwardScheme.topn(),
    BackwardScheme.trunc(),
    BackwardScheme.taylor(100),
    BackwardScheme.pade(100),
)

#: the seven legal pairings: five K schemes and the NS backward after the
#: exact forward, and the NS forward
PAIRINGS = (
    *(
        GcpLayerConfig.eig(scheme)
        for scheme in (
            BackwardScheme.ordinary(),
            BackwardScheme.topn(),
            BackwardScheme.trunc(),
            BackwardScheme.taylor(100),
            BackwardScheme.pade(100),
            BackwardScheme.newton_schulz(10),
        )
    ),
    GcpLayerConfig.newton_schulz(5),
)


def _cases():
    for d in (2, 8, 32):
        # N <= d leaves a centered covariance of rank N - 1 < d: a clamped tail
        for n in (max(2, d // 4), 4 * d):
            for seed in range(10):
                yield pytest.param(d, n, seed, id=f"d{d}-n{n}-seed{seed}")


def _assert_rebuilds(obj, cls):
    """``obj``'s read-only data, or each matrix of its stack, passes ``cls`` bit for bit."""
    data = obj.data
    assert not data.flags.writeable
    for matrix in data if data.ndim == 3 else (data,):
        np.testing.assert_array_equal(cls(matrix).data, matrix)


@pytest.mark.parametrize("d,n,seed", list(_cases()))
def test_producer_results_pass_public_constructors(d, n, seed):
    # Q and the cached covariance of one matrix, and of each matrix of a stack
    rng = np.random.default_rng(seed)
    x = FeatureMatrix(rng.normal(size=(d, n)))
    stack = _trusted(FeatureMatrix, data=rng.normal(size=(3, d, n)))
    for cfg in PAIRINGS:
        for features in (x, stack):
            q, cache = gcp_forward(features, cfg)
            _assert_rebuilds(q, SymPsdMatrix)
            _assert_rebuilds(cache.p, SymPsdMatrix)
            for a in (cache.eigenvalues, cache.eigenvectors):
                assert a is None or not a.flags.writeable
            if cache.ns_trace is not None:
                assert not cache.ns_trace.trace_p.flags.writeable


@pytest.mark.parametrize("d,n,seed", list(_cases()))
def test_stage_kernel_results_hold_what_the_kernels_trust(d, n, seed):
    # eigenpairs non-increasing and orthonormal, raw and clamped; K
    # read-only, with a zero diagonal and a negated mirror, under each scheme
    p = covariance(np.random.default_rng(seed).normal(size=(d, n)))
    lam_raw, u = eigh(p)
    assert u.dtype == np.float64 and u.shape == (d, d) and np.all(np.isfinite(u))
    assert np.abs(u.T @ u - np.eye(d)).max() <= 1e-10
    lam = clamp_eigenvalues(lam_raw)
    for values in (lam_raw, lam):
        assert values.dtype == np.float64 and values.shape == (d,)
        assert np.all(np.isfinite(values)) and np.all(np.diff(values) <= 0)
    if n <= d:
        assert count_clamped(lam_raw) > 0
    for scheme in K_SCHEMES:
        k = k_matrix(lam, scheme)
        assert not k.flags.writeable and k.dtype == np.float64 and k.shape == (d, d)
        assert np.all(np.diag(k) == 0.0)
        np.testing.assert_array_equal(k, -k.T)


@pytest.mark.parametrize("d", [2, 8, 32])
def test_pooled_features_pass_the_public_constructor(d):
    spec = ToyModelSpec(d=d, raw_dim=d + 2, n_cols=3 * d)
    model = ToyModel.initialize(spec)
    rb = np.random.default_rng(d).normal(size=(4, spec.raw_dim, spec.n_cols))
    _, cache = _pool(model, PAIRINGS[-1], rb)
    assert cache.x.data.shape == (4, d, spec.n_cols)
    _assert_rebuilds(cache.x, FeatureMatrix)
    _, cache = _pool(model, PAIRINGS[-1], rb[0])
    _assert_rebuilds(cache.x, FeatureMatrix)


@pytest.mark.parametrize("d,n", [(2, 3), (8, 32)])
def test_bumped_features_pass_the_public_constructor(d, n):
    # grad_check moves one entry of checked features by its step each way
    data = FeatureMatrix(np.random.default_rng(d).normal(size=(d, n))).data
    for i, j in ((0, 0), (d - 1, n - 1)):
        h = 1e-6 * (1.0 + abs(data[i, j]))
        for value in (data[i, j] + h, data[i, j] - h):
            bumped = _bumped(data, i, j, value)
            _assert_rebuilds(bumped, FeatureMatrix)
            assert bumped.data[i, j] == value
            assert np.count_nonzero(bumped.data != data) == 1


def test_matrix_power_near_the_float_maximum_stays_finite():
    # no overflow filter here: halving before adding keeps the symmetrised
    # power finite, so the result passes the public constructor
    q = matrix_power(np.array([1e308, 1.0]), np.eye(2), 1.0)
    np.testing.assert_array_equal(SymPsdMatrix(q).data, q)
    np.testing.assert_array_equal(q, np.diag([1e308, 1.0]))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestOverflowIsNumericalFailure:
    """A non-finite product of finite input is a numerical failure, not bad input.

    numpy's own overflow or invalid-value warning still fires first; the
    typed error is what callers catch.
    """

    def test_covariance(self):
        x = np.array([[1e200, -1e200, 0.0], [1.0, 2.0, 3.0]])
        with pytest.raises(NumericalFailureError) as err:
            covariance(x)
        assert err.value.details == {"where": "covariance", "max_entry": 1e200}

    def test_matrix_power(self):
        with pytest.raises(NumericalFailureError) as err:
            matrix_power(np.array([1e200, 1.0]), np.eye(2), 2.0)
        assert err.value.details == {"where": "matrix power 2.0", "max_entry": 1e200}

    def test_newton_schulz_trace(self):
        # every entry finite, the diagonal sum is not: the root would be nan
        with pytest.raises(NumericalFailureError) as err:
            ns_forward(np.diag([6e307] * 4), 5)
        assert err.value.details == {"where": "trace", "max_entry": 6e307}
