"""Coupled Newton-Schulz square-root iteration and its reverse-mode gradient.

Forward: pre-normalize P by its trace so the iteration converges, run the
coupled updates

    T_k = 1.5 I - 0.5 Z_{k-1} Y_{k-1}
    Y_k = Y_{k-1} T_k
    Z_k = T_k Z_{k-1}

from Y_0 = A = P / tr(P), Z_0 = I, and post-compensate Q = sqrt(tr(P)) Y_N.
The first step needs no product with Z_0 = I: T_1 = 1.5 I - 0.5 A and
Z_1 = T_1. A forward of N iterations costs 3N - 2 d-by-d matmuls.

Backward: reverse-mode product rule through every iteration, then compose
the trace pre-normalization and post-compensation terms. Each step goes
through the shared factor T = 1.5 I - 0.5 Z Y, recomputed with one matmul
from Y = Y_{k-1}, Z = Z_{k-1}, and its adjoint dT:

    dT       = Y^T dY_k + dZ_k Z^T
    dY_{k-1} = dY_k T^T - 0.5 Z^T dT
    dZ_{k-1} = T^T dZ_k - 0.5 dT Y^T

This is the exact chain rule, only regrouped: it assumes neither symmetry
of Y and Z nor that they commute. A general step costs 7 matmuls; two steps
cost less:

- the first reverse step (k = N) has dZ_N = 0, so its terms drop: 5 matmuls;
- the last (k = 1) has Z_0 = I and Y_0 = A, so T = 1.5 I - 0.5 A and
  dT = A^T dY_1 + dZ_1, and dZ_0 is not formed since Z_0 is constant:
  2 matmuls.

A backward of N >= 2 iterations costs 7N - 7 matmuls (28 at N = 5); at
N = 1 the single step is both special steps and costs 2. Validated against
central finite differences and, in the tests, against the per-step
recursion expanded into triple products (12 matmuls a step).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import FeatureMatrix, SymPsdMatrix, _trusted, apply_centering
from .errors import DomainError, InvalidInputError, NumericalFailureError

DEFAULT_ITERATIONS = 5

_DIVERGENCE_LIMIT = 1e6


@dataclass(frozen=True)
class NewtonSchulzTrace:
    """Everything the backward pass needs: both iterate sequences and tr(P)."""

    y_seq: tuple = field()
    z_seq: tuple = field()
    trace_p: float = 0.0

    @property
    def iterations(self) -> int:
        return len(self.y_seq) - 1

    @property
    def d(self) -> int:
        return self.y_seq[0].shape[0]

    @property
    def normalized_input(self) -> np.ndarray:
        return self.y_seq[0]

    @property
    def final_y(self) -> np.ndarray:
        return self.y_seq[-1]


def ns_forward(p: SymPsdMatrix, iterations: int) -> tuple[SymPsdMatrix, NewtonSchulzTrace]:
    """Approximate principal square root of ``p`` with the full iterate trace.

    Raises:
        DomainError: tr(P) <= 0, so the pre-normalization is undefined.
        NumericalFailureError: tr(P) overflowed, or an iterate exceeded the
            divergence guard.
    """
    if iterations < 1:
        raise InvalidInputError(f"need at least one iteration, got {iterations}")
    trace_p = p.trace()
    if trace_p <= 0.0:
        raise DomainError(f"trace pre-normalization needs tr(P) > 0, got {trace_p:.3e}")
    if trace_p == np.inf:
        # a finite P whose diagonal sums past the float range; the root would be nan
        raise NumericalFailureError(
            "tr(P) overflowed", where="trace", max_entry=float(np.abs(p.data).max())
        )
    d = p.d
    a = p.data / trace_p
    # any PSD input with unit trace satisfies ||A - I||_F <= sqrt(d); a
    # violation means an indefinite matrix slipped past construction
    if np.linalg.norm(a - np.eye(d)) >= np.sqrt(d) + 1.0:
        raise DomainError("trace-normalized input is too far from identity to be PSD")
    eye3 = 3.0 * np.eye(d, dtype=a.dtype)

    y = a.copy()
    z = np.eye(d, dtype=a.dtype)
    y_seq = [y]
    z_seq = [z]
    for k in range(iterations):
        # Z_0 = I: the products I @ Y_0 and T_1 @ I are exact, so skip them
        t = 0.5 * (eye3 - (z @ y if k else y))
        y = y @ t
        z = t @ z if k else t
        if np.abs(y).max() > _DIVERGENCE_LIMIT or not np.all(np.isfinite(y)):
            raise NumericalFailureError(
                f"Newton-Schulz iterate diverged at step {k + 1}",
                step=k + 1,
                max_entry=float(np.abs(y).max()),
            )
        y_seq.append(y)
        z_seq.append(z)

    q = np.sqrt(trace_p) * y_seq[-1]
    trace = NewtonSchulzTrace(tuple(y_seq), tuple(z_seq), trace_p)
    return _trusted(SymPsdMatrix, data=0.5 * q + 0.5 * q.T), trace


def ns_backward(trace: NewtonSchulzTrace, grad_q: np.ndarray) -> np.ndarray:
    """Gradient of a scalar loss with respect to P, given its gradient at Q.

    Reverse-propagates through every iteration of the trace, then adds the
    trace-normalization term -(1/tr(P)^2) tr(dA^T P) I + (1/tr(P)) dA and the
    post-compensation term (1/(2 sqrt(tr(P)))) tr(dQ^T Y_N) I.
    """
    grad_q = np.asarray(grad_q, dtype=np.float64)
    d = trace.d
    if grad_q.shape != (d, d):
        raise InvalidInputError(
            f"gradient shape {grad_q.shape} does not match trace dimension {d}"
        )
    tr_p = trace.trace_p
    sqrt_tr = np.sqrt(tr_p)
    eye3 = 3.0 * np.eye(d)

    dy = sqrt_tr * grad_q
    dz = None  # dZ_N = 0: the loss reads only Y_N
    for k in range(trace.iterations, 1, -1):
        y = trace.y_seq[k - 1]
        z = trace.z_seq[k - 1]
        t = 0.5 * (eye3 - z @ y)
        dt = y.T @ dy
        if dz is None:
            dz = -0.5 * (dt @ y.T)
        else:
            dt += dz @ z.T
            dz = t.T @ dz - 0.5 * (dt @ y.T)
        dy = dy @ t.T - 0.5 * (z.T @ dt)
    # k = 1: Z_0 = I and Y_0 = A; Z_0 is constant, so dZ_0 is not formed
    a = trace.normalized_input
    t = 0.5 * (eye3 - a)
    dt = a.T @ dy
    if dz is not None:
        dt += dz
    da = dy @ t.T - 0.5 * dt

    # d tr(P) contributions from A = P / tr(P) and Q = sqrt(tr(P)) Y_N
    p = a * tr_p
    trace_term = -np.sum(da * p) / (tr_p * tr_p) + np.sum(grad_q * trace.final_y) / (
        2.0 * sqrt_tr
    )
    return da / tr_p + trace_term * np.eye(d)


def ns_gradient_of_x(grad_p: np.ndarray, x: FeatureMatrix) -> np.ndarray:
    """Chain the covariance gradient back to the features: (G + G^T) X Ibar."""
    grad_p = np.asarray(grad_p, dtype=np.float64)
    d = x.d
    if grad_p.shape != (d, d):
        raise InvalidInputError(
            f"covariance gradient shape {grad_p.shape} does not match d={d}"
        )
    return apply_centering((grad_p + grad_p.T) @ x.data)
