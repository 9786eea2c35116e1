"""Dense symmetric-matrix foundations.

Covariance construction, the symmetric eigendecomposition (LAPACK through
numpy), eigenvalue clamping, fractional matrix powers, and condition numbers.
Everything here is a pure function over small immutable value types; all
heavier schemes build on these primitives. A float width argument is a
numpy dtype, float32 or float64; ``float_info`` reads its epsilon.

Validation contract: input is checked once, where it enters the program.
The public constructors of the value types (``FeatureMatrix``,
``SymPsdMatrix``, ``EigenDecomposition``) check every invariant and copy
their arrays, and so do the CLI and ``grad_check`` on their input. The
package's own producers (``covariance``, ``eigh``, ``clamp_eigenvalues``,
``matrix_power``, ``newton_schulz.ns_forward``) and the features that
``grad_check`` and the training loop derive from checked input build their
results through ``_trusted``, which skips those checks: the results hold the
invariants by construction, and ``tests/test_trusted.py`` pins that each one
passes its public constructor. ``schemes.k_matrix`` returns K as a plain
read-only array, antisymmetric by construction, with no constructor to pass.
Where arithmetic on finite input can overflow (the covariance, a matrix
power, and in training the features, the loss gradient at Q and the batch
gradients), a non-finite product raises ``NumericalFailureError``, not
``InvalidInputError``, since the input was valid.

Every array argument goes through ``_float_array``, which does not copy an
array of its width: float64, but float32 stays float32 in the Pade types.
``_triu``'s indices and ``_eye``'s scaled identities are cached read-only.

Stacks: ``covariance`` takes a leading batch axis (``FeatureMatrix`` data
of shape (B, d, N) gives a (B, d, d) ``SymPsdMatrix``), and so do
``clamp_eigenvalues``, ``count_clamped`` and ``matrix_power``
(an ``EigenDecomposition`` of (B, d) eigenvalues and (B, d, d)
eigenvectors). ``d`` and ``n_samples`` read the trailing axes, so both
layer paths run a whole mini-batch in one call. ``eigh`` stays one matrix
per call; the layer stacks its results. Each matrix of a stack gets the
same bits as it would alone, and a non-finite product of a stack raises
what its first failing matrix raises alone. The public constructors stay
single-matrix; stacks are built only inside the package, through ``_trusted``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

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


def _trusted(cls, **fields):
    """Build a value object from fields that hold its invariants by construction.

    The one path by which the package's producers skip ``__post_init__``:
    every field is set as given and every array is marked read-only in place,
    without a copy. Callers pass all of the class's fields, as arrays that
    nothing else holds a writeable reference to.
    """
    obj = object.__new__(cls)
    for value in fields.values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    obj.__dict__.update(fields)  # the frozen __setattr__ refuses; the instance dict does not
    return obj


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


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenpairs (U, lambda): lambda non-increasing, U orthogonal, each column's sign free."""

    eigenvalues: np.ndarray = field()
    eigenvectors: np.ndarray = field()

    def __post_init__(self):
        lam = _float_array(self.eigenvalues, "eigenvalues")
        u = _float_array(self.eigenvectors, "eigenvectors")
        if lam.ndim != 1 or u.ndim != 2 or u.shape != (lam.size, lam.size):
            raise InvalidInputError(
                f"inconsistent shapes: eigenvalues {lam.shape}, eigenvectors {u.shape}"
            )
        if not lam.size:
            raise InvalidInputError(f"need d >= 1, got eigenvectors of shape {u.shape}")
        if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(u))):
            raise InvalidInputError("non-finite eigendecomposition")
        if np.any(np.diff(lam) > 0):
            raise InvalidInputError("eigenvalues must be sorted in non-increasing order")
        gram = u.T @ u
        ortho = np.abs(gram - np.eye(lam.size)).max()
        if ortho > 1e-10:
            raise InvalidInputError(f"eigenvector matrix not orthogonal: residual {ortho:.3e}")
        object.__setattr__(self, "eigenvalues", _as_readonly(lam))
        object.__setattr__(self, "eigenvectors", _as_readonly(u))

    @property
    def d(self) -> int:
        return self.eigenvalues.shape[-1]


def covariance(x: FeatureMatrix) -> SymPsdMatrix:
    """Sample covariance of the columns of ``x``, or of each block of a stack.

    Computed as X_c X_c^T / N with X_c the column-centered features, which is
    algebraically identical to sandwiching the centering matrix.
    """
    data = x.data
    n = data.shape[-1]
    # sum, then divide: the two steps of ``mean`` without its Python wrappers
    xc = data - np.add.reduce(data, axis=-1, keepdims=True) / n
    p = xc @ xc.mT
    p /= n
    _require_finite(p, "covariance", data)
    p *= 0.5  # halved once: P/2 + (P/2)^T has the bits of 0.5 P + 0.5 P^T
    return _trusted(SymPsdMatrix, data=p + p.mT)


def eigh(p: SymPsdMatrix) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix (LAPACK, via numpy).

    Eigenvalues come back sorted non-increasing. The sign of each eigenvector
    column is LAPACK's: Q = U f(Lambda) U^T and its gradient are the same
    for either sign, so no result reads it.

    Raises:
        NumericalFailureError: LAPACK did not converge.
    """
    try:
        lam, u = np.linalg.eigh(p.data)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigensolver did not converge: {exc}") from exc
    # LAPACK returns ascending eigenvalues with orthonormal columns, so the
    # reversed copies are in non-increasing order and owned by the result;
    # ``astype`` copies each reversed view into a C-contiguous float64 array
    lam = lam[::-1].astype(np.float64)
    u = u[:, ::-1].astype(np.float64)
    return _trusted(EigenDecomposition, eigenvalues=lam, eigenvectors=u)


def clamp_eigenvalues(e: EigenDecomposition, dtype=np.float64) -> EigenDecomposition:
    """Replace every eigenvalue below the epsilon of ``dtype`` with that epsilon.

    Idempotent; the eigenvalues stay in order, the eigenvectors untouched.
    """
    lam = np.maximum(e.eigenvalues, float_info(dtype).eps)
    return _trusted(EigenDecomposition, eigenvalues=lam, eigenvectors=e.eigenvectors)


def count_clamped(e: EigenDecomposition):
    """Eigenvalues at or below float64's epsilon: one count, or one per matrix of a stack.

    Raw and clamped eigenvalues give the same count, since clamping lifts
    exactly these to the epsilon.
    """
    return np.add.reduce(e.eigenvalues <= EPS_DOUBLE, axis=-1)


def matrix_power(e: EigenDecomposition, alpha: float) -> SymPsdMatrix:
    """U diag(lambda^alpha) U^T, of one matrix or of each matrix of a stack.

    alpha = 0.5 gives the principal square root.
    """
    try:
        finite = math.isfinite(alpha)
    except TypeError:  # None, a string, a complex
        raise InvalidInputError(f"exponent must be a real number, got {alpha!r}") from None
    if not finite:
        raise InvalidInputError(f"exponent must be finite, got {alpha!r}")
    lam = e.eigenvalues
    if alpha != int(alpha):
        if np.minimum.reduce(lam, axis=None) < 0:
            raise InvalidInputError(
                f"fractional power {alpha} of a matrix with negative eigenvalues "
                f"(min {lam.min():.3e})"
            )
    elif isinstance(alpha, (bool, np.bool_)):  # bools are integral: a fractional alpha skips this
        raise InvalidInputError(f"exponent must be a real number, got {alpha!r}")
    powered = np.power(lam, alpha)
    u = e.eigenvectors
    q = (u * powered[..., None, :]) @ u.mT
    if not _finite(q):  # the label and the operand are built only on failure
        # each matrix's eigenvalues as one row, so that a stack's are stacked with q
        _require_finite(q, f"matrix power {alpha}", lam[..., None, :])
    q *= 0.5
    return _trusted(SymPsdMatrix, data=q + q.mT)


def condition_number(e: EigenDecomposition) -> float:
    """Ratio of extreme eigenvalues; ``inf`` when the smallest is zero.

    Negative eigenvalues are invalid input (clamp first).
    """
    lam_max = float(e.eigenvalues[0])
    lam_min = float(e.eigenvalues[-1])
    if lam_min < 0:
        raise InvalidInputError(f"negative smallest eigenvalue {lam_min:.3e}; clamp first")
    return math.inf if lam_min == 0.0 else lam_max / lam_min
