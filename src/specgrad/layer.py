"""Composable covariance-pooling layer: forward method x backward scheme.

A configuration pairs one forward square-root method (exact eigendecomposition
or Newton-Schulz iteration) with one backward gradient rule. The forward pass
caches whatever its backward needs; the backward pass chains the covariance
gradient to the input features. A finite-difference checker arbitrates every
pairing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    EigenDecomposition,
    FeatureMatrix,
    Precision,
    SymPsdMatrix,
    _trusted,
    clamp_eigenvalues,
    count_clamped,
    covariance,
    eigh,
    matrix_power,
)
from .errors import InvalidInputError, NumericalFailureError
from .newton_schulz import (
    DEFAULT_ITERATIONS,
    NewtonSchulzTrace,
    ns_backward,
    ns_forward,
    ns_gradient_of_x,
)
from .schemes import BackwardScheme, grad_covariance, k_matrix

EIG_SQRT = "eig_sqrt"
NEWTON_SCHULZ = "newton_schulz"


#: the layer computes in float64 and clamps eigenvalues at its epsilon
DOUBLE = Precision.double()


@dataclass(frozen=True)
class GcpLayerConfig:
    """Forward square-root method and backward scheme of the layer.

    The Newton-Schulz forward runs ``backward.param`` steps, so its
    backward always reverses the trace the forward built.
    """

    backward: BackwardScheme
    forward: str = EIG_SQRT

    def __post_init__(self):
        if self.forward not in (EIG_SQRT, NEWTON_SCHULZ):
            raise InvalidInputError(f"unknown forward method {self.forward!r}")
        if self.forward == NEWTON_SCHULZ and self.backward.kind != "newton_schulz":
            raise InvalidInputError(
                "a Newton-Schulz forward pairs only with the Newton-Schulz backward"
            )

    @classmethod
    def eig(cls, backward: BackwardScheme) -> "GcpLayerConfig":
        return cls(backward=backward, forward=EIG_SQRT)

    @classmethod
    def newton_schulz(cls, iterations: int = DEFAULT_ITERATIONS) -> "GcpLayerConfig":
        return cls(backward=BackwardScheme.newton_schulz(iterations), forward=NEWTON_SCHULZ)

    @property
    def label(self) -> str:
        if self.forward == NEWTON_SCHULZ:
            return f"newton_schulz({self.backward.param})"
        return f"eig_sqrt+{self.backward.label}"


@dataclass(frozen=True)
class GcpCache:
    """State saved by the forward pass for the configured backward."""

    x: FeatureMatrix
    p: SymPsdMatrix
    config: GcpLayerConfig
    eig: EigenDecomposition | None = None
    ns_trace: NewtonSchulzTrace | None = None
    clamped_count: int = 0


def gcp_forward(x: FeatureMatrix, cfg: GcpLayerConfig) -> tuple[SymPsdMatrix, GcpCache]:
    """Covariance, then the configured square root; returns Q and the cache."""
    p = covariance(x)
    if cfg.forward == NEWTON_SCHULZ:
        q, trace = ns_forward(p, cfg.backward.param)
        return q, GcpCache(x=x, p=p, config=cfg, ns_trace=trace)

    e_raw = eigh(p)
    e = clamp_eigenvalues(e_raw, DOUBLE)
    clamped = count_clamped(e_raw, DOUBLE)
    q = matrix_power(e, 0.5)
    trace = None
    if cfg.backward.kind == "newton_schulz":
        # exact forward, iterative backward: the gradient replays a fresh trace
        _, trace = ns_forward(p, cfg.backward.param)
    return q, GcpCache(
        x=x, p=p, config=cfg, eig=e, ns_trace=trace, clamped_count=clamped
    )


def upper_triangle_vector(q) -> np.ndarray:
    """Flatten the upper triangle (diagonal included) into the classifier input."""
    data = q.data if isinstance(q, SymPsdMatrix) else np.asarray(q)
    iu = np.triu_indices(data.shape[0])
    return data[iu].copy()


def grad_from_upper_triangle(grad_vec: np.ndarray, d: int) -> np.ndarray:
    """Place upper-triangle gradient entries back into a d x d matrix."""
    grad_vec = np.asarray(grad_vec, dtype=np.float64)
    if grad_vec.size != d * (d + 1) // 2:
        raise InvalidInputError(
            f"gradient vector of size {grad_vec.size} does not fit d={d}"
        )
    out = np.zeros((d, d))
    out[np.triu_indices(d)] = grad_vec
    return out


def _backward_raw(cache: GcpCache, grad_q: np.ndarray) -> tuple[np.ndarray, list]:
    """Gradient w.r.t. the features, letting non-finite values flow through.

    Returns the d x N gradient and the list of non-finite K-matrix entries
    (empty for the Newton-Schulz backward, which has no K matrix).
    """
    bad_entries: list = []
    if cache.ns_trace is not None:
        grad_p = ns_backward(cache.ns_trace, grad_q)
    else:
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            k = k_matrix(cache.eig, cache.config.backward)
            grad_p = grad_covariance(grad_q, cache.eig, k)
        bad_entries = k.nonfinite_entries()
    with np.errstate(invalid="ignore", over="ignore"):
        grad_x = ns_gradient_of_x(grad_p, cache.x)
    return grad_x, bad_entries


def gcp_backward(cache: GcpCache, grad_q: np.ndarray) -> np.ndarray:
    """Gradient of the loss w.r.t. the input features.

    Raises:
        NumericalFailureError: the gradient contains non-finite values; the
            error names the scheme and the offending K-matrix entries.
    """
    grad_q = np.asarray(grad_q, dtype=np.float64)
    d = cache.p.d
    if grad_q.shape != (d, d):
        raise InvalidInputError(f"grad shape {grad_q.shape} does not match d={d}")
    grad_x, bad_entries = _backward_raw(cache, grad_q)
    if not np.all(np.isfinite(grad_x)):
        raise NumericalFailureError(
            f"non-finite gradient under scheme {cache.config.backward.label}",
            scheme=cache.config.backward.label,
            k_entries=bad_entries,
        )
    return grad_x


_LOSS_KINDS = ("sum", "trace", "random-linear")


def _loss_weight(kind: str, d: int, seed: int) -> np.ndarray:
    if kind == "sum":
        return np.ones((d, d))
    if kind == "trace":
        return np.eye(d)
    if kind == "random-linear":
        return np.random.default_rng(seed).normal(size=(d, d))
    raise InvalidInputError(f"loss kind must be one of {_LOSS_KINDS}, got {kind!r}")


@dataclass(frozen=True)
class GradCheckReport:
    """Outcome of comparing a backward scheme against central differences.

    Relative errors are normalized by the largest finite-difference entry so
    near-zero gradient components do not manufacture spurious failures.
    """

    scheme: str
    loss_kind: str
    d: int
    n_samples: int
    max_rel_error: float
    mean_rel_error: float
    n_nonfinite: int
    worst_entry: tuple = (0, 0)

    def passes(self, tol: float) -> bool:
        return self.n_nonfinite == 0 and self.max_rel_error <= tol

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "loss_kind": self.loss_kind,
            "d": self.d,
            "n_samples": self.n_samples,
            "max_rel_error": self.max_rel_error,
            "mean_rel_error": self.mean_rel_error,
            "n_nonfinite": self.n_nonfinite,
            "worst_entry": list(self.worst_entry),
        }


def _bumped(data: np.ndarray, i: int, j: int, h: float) -> FeatureMatrix:
    """Checked features with entry (i, j) moved by h.

    Finite: an entry large enough for the 1e-6 relative step to overflow
    already overflows the covariance of the unbumped input, which
    ``grad_check`` computes first.
    """
    out = np.array(data)
    out[i, j] = data[i, j] + h
    return _trusted(FeatureMatrix, data=out)


def grad_check(
    cfg: GcpLayerConfig,
    x: FeatureMatrix,
    loss_kind: str = "sum",
    seed: int = 0,
) -> GradCheckReport:
    """Central-difference audit of the configured backward pass.

    Never raises on numerical trouble: non-finite analytic entries are counted
    in the report instead, so degenerate spectra produce data, not crashes.
    """
    d, n = x.d, x.n_samples
    if d * n > 10_000:
        raise InvalidInputError(
            f"central differences over {d * n} entries is too large (cap 10000)"
        )
    w = _loss_weight(loss_kind, d, seed)

    q, cache = gcp_forward(x, cfg)
    analytic, _ = _backward_raw(cache, w)

    data = x.data
    fd = np.zeros_like(data)
    for i in range(d):
        for j in range(n):
            h = 1e-6 * (1.0 + abs(data[i, j]))
            q_plus, _ = gcp_forward(_bumped(data, i, j, h), cfg)
            q_minus, _ = gcp_forward(_bumped(data, i, j, -h), cfg)
            fd[i, j] = float(np.sum(w * (q_plus.data - q_minus.data))) / (2.0 * h)

    finite = np.isfinite(analytic)
    n_nonfinite = int(analytic.size - finite.sum())
    scale = max(float(np.abs(fd).max()), 1e-30)
    rel = np.abs(analytic - fd) / scale
    rel[~finite] = np.nan
    if finite.any():
        max_rel = float(np.nanmax(rel))
        mean_rel = float(np.nanmean(rel))
        worst = np.unravel_index(int(np.nanargmax(rel)), rel.shape)
    else:
        max_rel = float("nan")
        mean_rel = float("nan")
        worst = (0, 0)
    return GradCheckReport(
        scheme=cfg.label,
        loss_kind=loss_kind,
        d=d,
        n_samples=n,
        max_rel_error=max_rel,
        mean_rel_error=mean_rel,
        n_nonfinite=n_nonfinite,
        worst_entry=(int(worst[0]), int(worst[1])),
    )
