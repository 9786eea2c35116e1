"""The trusted construction path keeps the invariants the public checks enforce.

The package's producers build their value objects without re-running the
public constructors' checks. These tests re-run those checks on every
producer's result, over full-rank and rank-deficient (clamped-tail) inputs,
and pin that a product of valid input that overflows raises
``NumericalFailureError`` rather than passing on inf or nan.
"""

import numpy as np
import pytest

from specgrad.core import (
    EigenDecomposition,
    FeatureMatrix,
    SymPsdMatrix,
    clamp_eigenvalues,
    count_clamped,
    covariance,
    eigh,
    matrix_power,
)
from specgrad.errors import NumericalFailureError
from specgrad.newton_schulz import NewtonSchulzTrace, ns_forward
from specgrad.schemes import BackwardScheme, k_matrix

K_SCHEMES = (
    BackwardScheme.ordinary(),
    BackwardScheme.topn(),
    BackwardScheme.trunc(),
    BackwardScheme.taylor(100),
    BackwardScheme.pade(100),
)


def _cases():
    for d in (2, 8, 32):
        # N <= d leaves a centered covariance of rank N - 1 < d: a clamped tail
        for n in (max(2, d // 4), 4 * d):
            for seed in range(10):
                yield pytest.param(d, n, seed, id=f"d{d}-n{n}-seed{seed}")


def _assert_frozen_and_rebuilds(obj, rebuilt):
    for name, value in vars(obj).items():
        if isinstance(value, np.ndarray):
            assert not value.flags.writeable, name
            np.testing.assert_array_equal(getattr(rebuilt, name), value, err_msg=name)
        else:
            assert getattr(rebuilt, name) == value, name


@pytest.mark.parametrize("d,n,seed", list(_cases()))
def test_producer_results_pass_public_constructors(d, n, seed):
    x = FeatureMatrix(np.random.default_rng(seed).normal(size=(d, n)))

    p = covariance(x)
    _assert_frozen_and_rebuilds(p, SymPsdMatrix(p.data))

    e_raw = eigh(p)
    _assert_frozen_and_rebuilds(e_raw, EigenDecomposition(e_raw.eigenvalues, e_raw.eigenvectors))
    e = clamp_eigenvalues(e_raw)
    _assert_frozen_and_rebuilds(e, EigenDecomposition(e.eigenvalues, e.eigenvectors))
    if n <= d:
        assert count_clamped(e_raw) > 0

    q = matrix_power(e, 0.5)
    _assert_frozen_and_rebuilds(q, SymPsdMatrix(q.data))

    q_ns, trace = ns_forward(p, 5)
    _assert_frozen_and_rebuilds(q_ns, SymPsdMatrix(q_ns.data))
    _assert_frozen_and_rebuilds(
        trace, NewtonSchulzTrace(trace.y_seq, trace.z_seq, trace.t_seq, trace.trace_p)
    )

    # K is a plain array: read-only, zero diagonal, a negated mirror
    for scheme in K_SCHEMES:
        k = k_matrix(e, scheme)
        assert not k.flags.writeable and k.dtype == np.float64 and k.shape == (d, d)
        assert np.all(np.diag(k) == 0.0)
        np.testing.assert_array_equal(k, -k.T)


def test_matrix_power_near_the_float_maximum_stays_finite():
    # no overflow filter here: halving before adding keeps the symmetrised
    # power finite, so the result passes the public constructor
    e = EigenDecomposition(np.array([1e308, 1.0]), np.eye(2))
    q = matrix_power(e, 1.0)
    _assert_frozen_and_rebuilds(q, SymPsdMatrix(q.data))
    np.testing.assert_array_equal(q.data, np.diag([1e308, 1.0]))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestOverflowIsNumericalFailure:
    """A non-finite product of finite input is a numerical failure, not bad input.

    numpy's own overflow or invalid-value warning still fires first; the
    typed error is what callers catch.
    """

    def test_covariance(self):
        x = FeatureMatrix(np.array([[1e200, -1e200, 0.0], [1.0, 2.0, 3.0]]))
        with pytest.raises(NumericalFailureError) as err:
            covariance(x)
        assert err.value.details == {"where": "covariance", "max_entry": 1e200}

    def test_matrix_power(self):
        e = EigenDecomposition(np.array([1e200, 1.0]), np.eye(2))
        with pytest.raises(NumericalFailureError) as err:
            matrix_power(e, 2.0)
        assert err.value.details == {"where": "matrix power 2.0", "max_entry": 1e200}

    def test_newton_schulz_trace(self):
        # every entry finite, the diagonal sum is not: the root would be nan
        p = SymPsdMatrix(np.diag([6e307] * 4))
        with pytest.raises(NumericalFailureError) as err:
            ns_forward(p, 5)
        assert err.value.details == {"where": "trace", "max_entry": 6e307}
