"""Composable covariance-pooling layer: forward method x backward scheme.

A configuration pairs one forward square-root method (exact eigendecomposition
or Newton-Schulz iteration) with one backward gradient rule. The forward pass
caches whatever its backward needs; the backward pass chains the covariance
gradient to the input features. A finite-difference checker arbitrates every
pairing. The classifier head that reads Q, and packs it into a vector, is
the toy model's own, in ``training``.

Between its stages the layer passes plain float64 arrays: the features'
data, the covariance, the clamped eigenvalues and eigenvectors (which the
cache holds as two read-only arrays) or the NS trace. Only its edge checks
its arguments: ``gcp_forward`` the types of ``x`` and ``cfg``,
``gcp_backward`` that of ``cache`` and ``grad_q`` under ``core._gradient``;
the kernels raise only numerical failures and the NS forward's tr(P) <= 0.
Only its edge objects are value types. It takes a ``FeatureMatrix`` and
wraps Q and the cached covariance as ``SymPsdMatrix`` through ``_trusted``,
which skips the public constructor's checks: both are symmetric by
construction, and the two checks would add about two thirds to a d = 8
exact forward. ``grad_check`` and the training loop build their features
through ``_trusted`` too, from input already checked.

Stacks: ``gcp_forward`` also takes a (B, d, N) ``FeatureMatrix`` built
inside the package, under either forward. Q, the covariance, the NS trace
and the clamped eigenpairs are then stacks, and ``gcp_backward`` takes a
(B, d, d) stack of gradients. The exact forward calls ``eigh`` once per
matrix and stacks the results, since the benchmark's pins count one call
per matrix; everything after it runs once per batch.
Each matrix gets the bits of its own single-matrix call, and a failed check
fails the whole stack with the error of the first matrix that fails it (for
a non-finite gradient, ``k_entries`` and ``clamped`` read that matrix only).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    FeatureMatrix,
    SymPsdMatrix,
    _finite,
    _gradient,
    _non_negative,
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


def _trusted(cls, **fields):
    """Build a value object from fields that hold its invariants by construction.

    Skips ``__post_init__``: every field is set as given and every array is
    marked read-only in place, without a copy. Callers pass all of the
    class's fields, as arrays that nothing else holds a writeable reference to.
    """
    obj = object.__new__(cls)
    for value in fields.values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    obj.__dict__.update(fields)  # the frozen __setattr__ refuses; the instance dict does not
    return obj


@dataclass(frozen=True)
class GcpLayerConfig:
    """Forward square-root method and backward scheme of the layer.

    The Newton-Schulz forward runs ``backward.param`` steps, so its
    backward always reverses the trace the forward built; ``newton_schulz()``
    and ``BackwardScheme.newton_schulz()`` both default to ``DEFAULT_ITERATIONS``.
    """

    backward: BackwardScheme
    forward: str = EIG_SQRT

    def __post_init__(self):
        if not isinstance(self.backward, BackwardScheme):
            raise InvalidInputError(f"backward must be a BackwardScheme, got {self.backward!r}")
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
    """State saved by the forward pass for the configured backward.

    The exact forward keeps the clamped ``eigenvalues`` (non-increasing) and
    their ``eigenvectors``, both read-only; the Newton-Schulz backward reads
    ``ns_trace``.
    """

    x: FeatureMatrix
    p: SymPsdMatrix
    config: GcpLayerConfig
    eigenvalues: np.ndarray | None = None
    eigenvectors: np.ndarray | None = None
    ns_trace: NewtonSchulzTrace | None = None


def _require_type(value, cls, name: str) -> None:
    """Refuse an argument that is not a ``cls``, naming it and the type it has."""
    if not isinstance(value, cls):
        raise InvalidInputError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")


def _eigh_each(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``eigh`` of ``p``, or of each matrix of a stack, written into the stacked result."""
    if p.ndim == 2:
        return eigh(p)
    lam = np.empty(p.shape[:-1])
    u = np.empty(p.shape)
    for b, p_b in enumerate(p):
        lam[b], u[b] = eigh(p_b)
    return lam, u


def gcp_forward(x: FeatureMatrix, cfg: GcpLayerConfig) -> tuple[SymPsdMatrix, GcpCache]:
    """Covariance, then the configured square root; returns Q and the cache.

    ``x`` may also be a (B, d, N) stack built inside the package; Q and
    every array of the cache are then stacks, and ``gcp_backward`` takes a
    (B, d, d) stack of gradients. Any other ``x`` or ``cfg`` is invalid input.
    """
    _require_type(x, FeatureMatrix, "x")
    _require_type(cfg, GcpLayerConfig, "cfg")
    p = covariance(x.data)
    lam = u = trace = None
    if cfg.backward.kind == "newton_schulz":
        q, trace = ns_forward(p, cfg.backward.param)
    if cfg.forward == EIG_SQRT:
        # an exact root replaces the NS one; an NS backward still reverses the trace
        lam, u = _eigh_each(p)
        lam = clamp_eigenvalues(lam)
        q = matrix_power(lam, u, 0.5)
        # the cache's own fresh arrays: read-only in place, without a copy
        lam.setflags(write=False)
        u.setflags(write=False)
    cache = GcpCache(
        x=x,
        p=_trusted(SymPsdMatrix, data=p),
        config=cfg,
        eigenvalues=lam,
        eigenvectors=u,
        ns_trace=trace,
    )
    return _trusted(SymPsdMatrix, data=q), cache


def _backward_raw(cache: GcpCache, grad_q: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Gradient w.r.t. the features, letting non-finite values flow through.

    Returns the d x N gradient and the K matrix it was built with (None for
    the Newton-Schulz backward, which has no K matrix).
    """
    k = None
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        if cache.ns_trace is not None:
            grad_p = ns_backward(cache.ns_trace, grad_q)
        else:
            lam = cache.eigenvalues
            k = k_matrix(lam, cache.config.backward)
            grad_p = grad_covariance(grad_q, lam, cache.eigenvectors, k)
        grad_x = ns_gradient_of_x(grad_p, cache.x.data)
    return grad_x, k


def gcp_backward(cache: GcpCache, grad_q: np.ndarray) -> np.ndarray:
    """Gradient of the loss w.r.t. the input features.

    Raises:
        InvalidInputError: ``cache`` is not a ``GcpCache``, or ``grad_q`` does
            not have the shape of Q or holds a non-finite entry.
        NumericalFailureError: the gradient contains non-finite values; the
            error names the scheme and, in ``k_entries``, the indices of the
            non-finite K entries: (i, j) rows for one matrix; for a stack,
            (b, i, j) rows of the first matrix b whose gradient is non-finite.
            A cache that holds eigenpairs adds ``clamped``, that matrix's
            count of eigenvalues clamped to eps (``core.count_clamped``).
    """
    _require_type(cache, GcpCache, "cache")
    grad_x, k = _backward_raw(cache, _gradient(grad_q, cache.p.data.shape))
    if not _finite(grad_x):
        # the leading indices of the first non-finite entry pick its matrix:
        # none for one matrix, (b,) for a stack
        first = np.argwhere(~np.isfinite(grad_x))[0, :-2]
        details = {"k_entries": []}
        if k is not None:
            entries = np.argwhere(~np.isfinite(k))
            details["k_entries"] = entries[np.all(entries[:, :-2] == first, axis=1)]
        if cache.eigenvalues is not None:
            details["clamped"] = count_clamped(cache.eigenvalues)[tuple(first)]
        raise NumericalFailureError(
            f"non-finite gradient under scheme {cache.config.backward.label}",
            scheme=cache.config.backward.label,
            **details,
        )
    return grad_x


LOSS_KINDS = ("sum", "trace", "random-linear")


def _loss_weight(kind: str, d: int, seed: int) -> np.ndarray:
    if kind == "sum":
        return np.ones((d, d))
    if kind == "trace":
        return np.eye(d)
    if kind == "random-linear":
        return np.random.default_rng(seed).normal(size=(d, d))
    raise InvalidInputError(f"loss kind must be one of {LOSS_KINDS}, got {kind!r}")


@dataclass(frozen=True)
class GradCheckReport:
    """What ``grad_check`` computes: the analytic gradient's distance from central differences.

    Relative errors are normalized by the largest finite-difference entry so
    near-zero gradient components do not manufacture spurious failures.
    The configuration, loss and shape it was run on are the caller's own
    arguments, so the report does not repeat them.
    """

    max_rel_error: float
    mean_rel_error: float
    n_nonfinite: int
    worst_entry: tuple

    def passes(self, tol: float) -> bool:
        return self.n_nonfinite == 0 and self.max_rel_error <= tol


def _bumped(data: np.ndarray, i: int, j: int, value: float) -> FeatureMatrix:
    """Checked features with entry (i, j) set to ``value``, the entry moved by a step.

    Finite: an entry large enough for the 1e-6 relative step to overflow
    already overflows the covariance of the unbumped input, which
    ``grad_check`` computes first.
    """
    out = data.copy(order="K")  # keeps the input's memory layout, as the matmuls see it
    out[i, j] = value
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
    A ``seed`` that is not a non-negative int is refused under every loss,
    not only the one that reads it.
    """
    seed = _non_negative(seed, "seed")
    _require_type(x, FeatureMatrix, "x")
    if x.data.size > 10_000:
        raise InvalidInputError(
            f"central differences over {x.data.size} entries is too large (cap 10000)"
        )
    w = _loss_weight(loss_kind, x.d, seed)

    q, cache = gcp_forward(x, cfg)
    analytic, _ = _backward_raw(cache, w)

    data = x.data
    fd = np.zeros_like(data)
    # Python floats carry the bits of the float64 entries, with less
    # per-operation overhead than numpy scalars
    for i, row in enumerate(data.tolist()):
        for j, entry in enumerate(row):
            h = 1e-6 * (1.0 + abs(entry))
            q_plus, _ = gcp_forward(_bumped(data, i, j, entry + h), cfg)
            q_minus, _ = gcp_forward(_bumped(data, i, j, entry - h), cfg)
            diff = np.add.reduce(w * (q_plus.data - q_minus.data), axis=None)
            fd[i, j] = float(diff) / (2.0 * h)

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
        max_rel_error=max_rel,
        mean_rel_error=mean_rel,
        n_nonfinite=n_nonfinite,
        worst_entry=(int(worst[0]), int(worst[1])),
    )
