"""Coupled Newton-Schulz square-root iteration and its reverse-mode gradient.

Forward: pre-normalize P by its trace so the iteration converges, run the
coupled updates

    T_k = 1.5 I - 0.5 Z_{k-1} Y_{k-1}
    Y_k = Y_{k-1} T_k
    Z_k = T_k Z_{k-1}

from Y_0 = A = P / tr(P), Z_0 = I, and post-compensate Q = sqrt(tr(P)) Y_N.
Two steps need fewer products:

- the first has Z_0 = I: T_1 = 1.5 I - 0.5 A and Z_1 = T_1, so it costs
  the one matmul of Y_1;
- the last skips Z_N, which neither Q nor the backward reads, so it costs 2.

A forward of N >= 2 iterations costs 3N - 3 d-by-d matmuls (12 at N = 5);
at N = 1 it costs 1. The trace (``NewtonSchulzTrace``) keeps Y_0..Y_N,
Z_1..Z_{N-1}, the factors T_1..T_N and tr(P).

Backward: reverse-mode product rule through every iteration, then compose
the trace pre-normalization and post-compensation terms. Each step goes
through the shared factor T = T_k, read from the trace, with Y = Y_{k-1},
Z = Z_{k-1} and the adjoint dT:

    dT       = Y^T dY_k + dZ_k Z^T
    dY_{k-1} = dY_k T^T - 0.5 Z^T dT
    dZ_{k-1} = T^T dZ_k - 0.5 dT Y^T

This is the exact chain rule, only regrouped: it assumes neither symmetry
of Y and Z nor that they commute. A general step costs 6 matmuls; two steps
cost less:

- the first reverse step (k = N) has dZ_N = 0, so its terms drop: 4 matmuls;
- the last (k = 1) has Z_0 = I and Y_0 = A, so dT = A^T dY_1 + dZ_1, and
  dZ_0 is not formed since Z_0 is constant: 2 matmuls.

A backward of N >= 2 iterations costs 6N - 6 matmuls (24 at N = 5); at
N = 1 the single step is both special steps and costs 2. Validated against
central finite differences and, in the tests, against the per-step
recursion expanded into triple products (12 matmuls a step).

Arrays: ``ns_forward`` takes the covariance as a plain (d, d) float64 array
from ``core.covariance`` and returns Q as one, with the trace as a plain
record that only it builds; ``ns_gradient_of_x`` takes the (d, N)
features as an array. The kernels trust these arrays, the gradients they
are given (``layer.gcp_backward`` checks them) and the iteration count
(``BackwardScheme`` checks it). They raise only the tr(P) <= 0 refusal,
which constant features reach, and the numerical failures: tr(P) overflow
and divergence.

Stacks: ``ns_forward``, ``ns_backward`` and ``ns_gradient_of_x`` also take
a leading batch axis, a (B, d, d) covariance stack from ``core.covariance``
of (B, d, N) features. Every product is then one stacked matmul, so a
mini-batch costs the matmul counts above once instead of B times, and each
matrix's result is bit-identical to its own single-matrix call. A check
(tr(P) > 0, the divergence guard) fails the whole stack if any matrix
fails it; the tr(P)-overflow and divergence errors carry the ``max_entry``
of the first matrix that fails them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _eye
from .errors import InvalidInputError, NumericalFailureError

DEFAULT_ITERATIONS = 5

_DIVERGENCE_LIMIT = 1e6


@dataclass(frozen=True)
class NewtonSchulzTrace:
    """Everything the backward pass needs from an N-step forward; ``ns_forward`` builds it.

    ``y_seq`` holds Y_0 = A, ..., Y_N; ``z_seq`` holds Z_1, ..., Z_{N-1}
    (Z_0 = I is implied); ``t_seq`` holds the factors T_1, ..., T_N;
    ``trace_p`` holds tr(P), one per matrix of a stack.
    """

    y_seq: tuple
    z_seq: tuple
    t_seq: tuple
    trace_p: np.ndarray

    @property
    def iterations(self) -> int:
        return len(self.y_seq) - 1

    @property
    def d(self) -> int:
        return self.y_seq[0].shape[-1]


def ns_forward(p: np.ndarray, iterations: int) -> tuple[np.ndarray, NewtonSchulzTrace]:
    """Approximate principal square root of ``p``, or of each matrix of a stack, with its trace.

    Raises:
        InvalidInputError: tr(P) <= 0, so the pre-normalization is undefined.
        NumericalFailureError: tr(P) overflowed, or an iterate exceeded the
            divergence guard.
    """
    trace_p = p.trace(axis1=-2, axis2=-1)
    # min and max over ``.flat`` read a single trace or a stack's alike, and
    # cost a fraction of a numpy reduction at d = 8
    lowest = min(trace_p.flat)
    if lowest <= 0.0:
        raise InvalidInputError(f"trace pre-normalization needs tr(P) > 0, got {lowest:.3e}")
    d = p.shape[-1]
    if max(trace_p.flat) == np.inf:
        # a finite P whose diagonal sums past the float range; the root would be nan
        first = np.flatnonzero(np.ravel(trace_p) == np.inf)[0]
        largest = float(np.abs(p.reshape(-1, d, d)[first]).max())
        raise NumericalFailureError("tr(P) overflowed", where="trace", max_entry=largest)
    tr = trace_p[..., None, None]  # one per matrix, broadcast over its d x d entries
    a = p / tr
    eye15 = _eye(d, 1.5)

    y = a
    y_seq = [y]
    z_seq = []
    t_seq = []
    for k in range(iterations):
        # T = 1.5 I - 0.5 ZY, in place on the fresh product ZY. Halving is
        # exact, so this has the bits of 0.5 (3 I - ZY). Z_0 = I: the
        # products I @ Y_0 and T_1 @ I are exact, so skip them
        if k:
            t = z_seq[-1] @ y
            t *= -0.5
        else:
            t = -0.5 * y
        t += eye15
        y = y @ t
        # NaN fails every comparison, so one reduction also catches it
        if not np.maximum.reduce(np.abs(y), axis=None) <= _DIVERGENCE_LIMIT:
            largest = np.ravel(np.abs(y).max(axis=(-2, -1)))  # one per matrix
            raise NumericalFailureError(
                f"Newton-Schulz iterate diverged at step {k + 1}",
                step=k + 1,
                max_entry=float(largest[~(largest <= _DIVERGENCE_LIMIT)][0]),
            )
        y_seq.append(y)
        t_seq.append(t)
        if k + 1 < iterations:  # nothing reads Z_N
            z_seq.append(t @ z_seq[-1] if k else t)

    trace_p.setflags(write=False)  # a stack's traces; one matrix's is a numpy scalar
    q = np.sqrt(tr) * y_seq[-1]
    q *= 0.5  # in place, so that q + q.mT = 0.5 Q + 0.5 Q^T needs one temporary fewer
    return q + q.mT, NewtonSchulzTrace(tuple(y_seq), tuple(z_seq), tuple(t_seq), trace_p)


def _minus_half(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a - 0.5 b, in place on the fresh products ``a`` and ``b``: halving is exact, same bits."""
    b *= 0.5
    a -= b
    return a


def ns_backward(trace: NewtonSchulzTrace, grad_q: np.ndarray) -> np.ndarray:
    """Gradient of a scalar loss with respect to P, given its gradient at Q.

    Reverse-propagates through every iteration of the trace, then adds the
    trace-normalization term -(1/tr(P)^2) tr(dA^T P) I + (1/tr(P)) dA and the
    post-compensation term (1/(2 sqrt(tr(P)))) tr(dQ^T Y_N) I. A stacked
    trace takes a stack of gradients of its shape.
    """
    tr_p = trace.trace_p[..., None, None]
    sqrt_tr = np.sqrt(tr_p)

    dy = sqrt_tr * grad_q
    dz = None  # dZ_N = 0: the loss reads only Y_N
    for k in range(trace.iterations, 1, -1):
        y = trace.y_seq[k - 1]
        z = trace.z_seq[k - 2]
        t = trace.t_seq[k - 1]
        dt = y.mT @ dy
        if dz is None:
            dz = dt @ y.mT
            dz *= -0.5
        else:
            dt += dz @ z.mT
            dz = _minus_half(t.mT @ dz, dt @ y.mT)
        dy = _minus_half(dy @ t.mT, z.mT @ dt)
    # k = 1: Z_0 = I and Y_0 = A; Z_0 is constant, so dZ_0 is not formed
    a = trace.y_seq[0]
    dt = a.mT @ dy
    if dz is not None:
        dt += dz
    da = _minus_half(dy @ trace.t_seq[0].mT, dt)

    # d tr(P) contributions from A = P / tr(P) and Q = sqrt(tr(P)) Y_N; each
    # sum runs over one matrix's d x d entries (P *= dA has the bits of dA * P)
    da_p = a * tr_p
    da_p *= da
    da_dot_p = np.add.reduce(da_p, axis=(-2, -1), keepdims=True)
    dq_dot_y = np.add.reduce(grad_q * trace.y_seq[-1], axis=(-2, -1), keepdims=True)
    trace_term = -da_dot_p / (tr_p * tr_p) + dq_dot_y / (2.0 * sqrt_tr)
    da /= tr_p
    da += trace_term * _eye(trace.d)
    return da


def ns_gradient_of_x(grad_p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """dL/dX = (G + G^T) X (I - 11^T / N) / N, each matrix's fresh product centred in place."""
    n = x.shape[-1]
    m = (grad_p + grad_p.mT) @ x
    m -= np.add.reduce(m, axis=-1, keepdims=True) / n
    m /= n
    return m
