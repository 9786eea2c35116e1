"""Dense symmetric-matrix foundations.

Covariance construction, the symmetric eigendecomposition (LAPACK, through
the gufunc behind ``np.linalg.eigh``), eigenvalue clamping, fractional matrix
powers, and condition numbers. Two immutable value types hold checked input;
the stage kernels are pure functions over plain arrays, and all heavier
schemes build on them. A float width argument is a numpy dtype, float32 or
float64; ``float_info`` reads its epsilon.

Validation contract: input is checked once, at the layer's edge, where it
enters the program. The public constructors of the value types
(``FeatureMatrix``, ``SymPsdMatrix``) check every invariant and copy their
arrays, and the CLI checks its input the same way. The stage kernels below
(``covariance``, ``eigh``, ``clamp_eigenvalues``, ``count_clamped``,
``matrix_power``, ``condition_number``) take and return plain float64 arrays
and trust them: a covariance from ``covariance`` is exactly symmetric and
PSD by construction, eigenvalues from ``eigh`` come non-increasing with
orthonormal eigenvectors and are clamped before any other kernel reads them,
so the kernels refuse nothing. Where arithmetic on finite input can overflow
(the covariance, a matrix power, and in training the features, the loss
gradient at Q and the batch gradients), a non-finite product raises
``NumericalFailureError``, not ``InvalidInputError``, since the input was
valid; so does an eigensolver that does not converge. ``layer`` says where
value objects are built from kernel results.

Every array argument of the public API goes through ``_float_array``, which
does not copy an array of its width: float64, but float32 stays float32 in
the Pade types. ``_triu``'s indices and ``_eye``'s scaled identities are
cached read-only.

Stacks: ``covariance`` takes (B, d, N) features and gives (B, d, d)
covariances, and ``clamp_eigenvalues``, ``count_clamped``,
``matrix_power`` and ``condition_number`` take (B, d) eigenvalues and
(B, d, d) eigenvectors, so both layer paths and the training step's logged
condition numbers run a whole mini-batch in one call. ``eigh`` takes a
stack too, though the layer still calls it once per matrix. Each matrix of
a stack gets the same bits as it would alone, and a non-finite product of a
stack raises what its first failing matrix raises alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg._umath_linalg import eigh_lo as _eigh_lo

from .errors import InvalidInputError, NumericalFailureError

#: machine epsilon of float64 (2**-52) and of float32 (2**-23)
EPS_DOUBLE, EPS_SINGLE = (float(np.finfo(t).eps) for t in (np.float64, np.float32))

#: covariance matrices with condition number strictly above this are treated
#: as unstable in double precision
ILL_CONDITIONED_THRESHOLD = 1e14

_FLOAT_INFO = {np.dtype(t): np.finfo(t) for t in (np.float32, np.float64)}


def float_info(dtype) -> np.finfo:
    """``np.finfo`` of ``dtype``; any width but float32 and float64 is an ``InvalidInputError``."""
    try:
        return _FLOAT_INFO[np.dtype(dtype)]
    except (TypeError, KeyError):
        raise InvalidInputError(f"float width must be float32 or float64, got {dtype!r}") from None


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, copy=True)
    out.flags.writeable = False
    return out


@functools.cache
def _triu(d: int, k: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``np.triu_indices(d, k)``, built once per ``(d, k)``."""
    rows, cols = np.triu_indices(d, k)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


@functools.cache
def _eye(d: int, scale: float = 1.0) -> np.ndarray:
    """Read-only ``scale * np.eye(d)``, built once per ``(d, scale)``."""
    out = scale * np.eye(d)
    out.flags.writeable = False
    return out


def _positive(value, name: str, kind=int, floor_zero: bool = False):
    """``value`` as a positive ``kind``; a bool, a fraction or a non-number is invalid input."""
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    holds = out is not None and out == value and (out >= 0 if floor_zero else out > 0)
    if isinstance(value, (bool, np.bool_)) or not holds:
        sign = "non-negative" if floor_zero else "positive"
        raise InvalidInputError(f"{name} must be a {sign} {kind.__name__}, got {value!r}")
    return out


def _non_negative(value, name: str) -> int:
    """``value`` as an int >= 0, under the count rule of ``_positive``."""
    return _positive(value, name, floor_zero=True)


def _float_array(value, name: str, single: bool = False) -> np.ndarray:
    """``value`` as float64, float32 kept where ``single``; complex or non-numeric is invalid."""
    try:
        a = np.asarray(value)
        if a.dtype.kind != "c":
            width = np.float32 if single and a.dtype == np.float32 else np.float64
            return a.astype(width, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"{name} must be numeric: {exc}") from None
    raise InvalidInputError(f"{name} must be real, got {a.dtype}")


def _gradient(grad, shape: tuple, name: str = "gradient") -> np.ndarray:
    """``grad`` as float64; a shape other than ``shape`` or a non-finite entry is invalid input."""
    grad = _float_array(grad, name)
    if grad.shape != shape:
        raise InvalidInputError(f"{name} shape {grad.shape} does not match {shape}")
    if not _finite(grad):
        raise InvalidInputError(f"non-finite {name} input")
    return grad


def _finite(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` is finite, without ``ndarray.all``'s Python wrapper."""
    return bool(np.logical_and.reduce(np.isfinite(a), axis=None))


def _require_finite(product: np.ndarray, where: str, operand: np.ndarray) -> None:
    """Raise ``NumericalFailureError`` if an internal product went non-finite.

    For products of checked, finite input, where only overflow can produce
    inf or nan. The error names the product and carries the largest |entry|
    of the ``operand`` it was computed from, which shows how far the values
    had grown. A stack of products reports its first non-finite matrix, with
    that matrix's own count and size; an operand with the product's ``ndim``
    is stacked with it and gives that matrix's slice, and any other operand
    is shared by the stack and read whole. So a stack raises what its first
    failing matrix raises alone.
    """
    if not _finite(product):
        finite = np.isfinite(product)
        # the leading indices of the first non-finite entry pick its matrix
        first = tuple(np.argwhere(~finite)[0][:-2])
        finite = finite[first]
        largest = float(np.abs(operand[first] if operand.ndim == product.ndim else operand).max())
        raise NumericalFailureError(
            f"{where} is non-finite in {finite.size - int(finite.sum())} of "
            f"{finite.size} entries (largest |operand entry| {largest:.3e})",
            where=where,
            max_entry=largest,
        )


@dataclass(frozen=True)
class FeatureMatrix:
    """A d x N block of features: d channels observed at N spatial samples."""

    data: np.ndarray = field()

    def __post_init__(self):
        data = _float_array(self.data, "feature matrix")
        if data.ndim != 2:
            raise InvalidInputError(f"feature matrix must be 2-d, got shape {data.shape}")
        d, n = data.shape
        if d < 1 or n < 2:
            raise InvalidInputError(
                f"need d >= 1 and N >= 2 for centering, got d={d}, N={n}"
            )
        if not np.all(np.isfinite(data)):
            raise InvalidInputError("feature matrix contains non-finite entries")
        object.__setattr__(self, "data", _as_readonly(data))

    @property
    def d(self) -> int:
        return self.data.shape[-2]

    @property
    def n_samples(self) -> int:
        return self.data.shape[-1]


@dataclass(frozen=True)
class SymPsdMatrix:
    """Symmetric PSD matrix. Symmetrized on construction to kill roundoff skew."""

    data: np.ndarray = field()

    def __post_init__(self):
        data = _float_array(self.data, "matrix")
        if data.ndim != 2 or data.shape[0] != data.shape[1]:
            raise InvalidInputError(f"expected a square matrix, got shape {data.shape}")
        if not data.size:
            raise InvalidInputError(f"need d >= 1, got shape {data.shape}")
        if not np.all(np.isfinite(data)):
            raise InvalidInputError("matrix contains non-finite entries")
        scale = np.abs(data).max()
        if scale > 0 and np.abs(data - data.T).max() > 1e-12 * scale:
            raise InvalidInputError("matrix is not symmetric to 1e-12 relative tolerance")
        sym = 0.5 * data + 0.5 * data.T  # halving first cannot overflow
        object.__setattr__(self, "data", _as_readonly(sym))

    @property
    def d(self) -> int:
        return self.data.shape[-1]


def covariance(x: np.ndarray) -> np.ndarray:
    """Sample covariance of the columns of ``x`` (d, N), or of each block of a stack.

    Computed as X_c X_c^T / N, X_c the column-centered features. numpy forms
    (i, j) and (j, i) of that product alike (BLAS syrk mirrors one triangle),
    so P is exactly symmetric as it stands.
    """
    n = x.shape[-1]
    # sum, then divide: the two steps of ``mean`` without its Python wrappers
    xc = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    p = xc @ xc.mT
    p /= n
    _require_finite(p, "covariance", x)
    return p


def eigh(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors ``(lam, u)`` of a symmetric matrix, or of each matrix of a stack.

    LAPACK through ``numpy.linalg._umath_linalg.eigh_lo``, the private gufunc
    behind ``np.linalg.eigh`` (numpy>=2.0 is pinned), whose wrapper costs about
    5 of 19 us at d = 8. The ascending eigenpairs land in reversed views of
    fresh arrays: non-increasing and C-contiguous with no copy. Each column's
    sign is LAPACK's; Q = U f(Lambda) U^T and its gradient do not read it.

    Raises:
        NumericalFailureError: LAPACK did not converge; ``details`` carry
            ``where="eigh"`` and ``max_entry``, the largest |entry| of ``p``.
    """
    lam, u = np.empty(p.shape[:-1]), np.empty(p.shape)
    try:  # numpy's own failure condition: the invalid flag
        with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
            _eigh_lo(p, out=(lam[..., ::-1], u[..., ::-1]))
    except FloatingPointError as exc:
        msg = "eigensolver did not converge: Eigenvalues did not converge"
        raise NumericalFailureError(msg, where="eigh", max_entry=float(np.abs(p).max())) from exc
    return lam, u


def clamp_eigenvalues(lam: np.ndarray, dtype=np.float64) -> np.ndarray:
    """``lam`` with every eigenvalue below the epsilon of ``dtype`` raised to that epsilon.

    Idempotent, and the order is kept; the eigenvectors do not change.
    """
    return np.maximum(lam, float_info(dtype).eps)


def count_clamped(lam: np.ndarray):
    """Eigenvalues at or below float64's epsilon: one count, or one per matrix of a stack.

    Raw and clamped eigenvalues give the same count, since clamping lifts
    exactly these to the epsilon.
    """
    return np.add.reduce(lam <= EPS_DOUBLE, axis=-1)


def matrix_power(lam: np.ndarray, u: np.ndarray, alpha: float) -> np.ndarray:
    """U diag(lam^alpha) U^T, of one matrix or of each matrix of a stack.

    alpha = 0.5 gives the principal square root, real since ``lam`` is clamped.
    """
    powered = np.power(lam, alpha)
    q = (u * powered[..., None, :]) @ u.mT
    if not _finite(q):  # the label and the operand are built only on failure
        # each matrix's eigenvalues as one row, so that a stack's are stacked with q
        _require_finite(q, f"matrix power {alpha}", lam[..., None, :])
    q *= 0.5
    return q + q.mT


def condition_number(lam: np.ndarray):
    """Ratio of the extreme eigenvalues of non-increasing ``lam``: one, or one per row of a stack.

    ``lam`` is clamped first, as every caller does, so the smallest is positive.
    """
    return lam[..., 0] / lam[..., -1]
