"""Dense symmetric-matrix foundations.

Covariance construction, the symmetric eigendecomposition (LAPACK through
numpy), eigenvalue clamping, fractional matrix powers, and condition numbers.
Everything here is a pure function over small immutable value types; all
heavier schemes build on these primitives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DomainError, InvalidInputError, NumericalFailureError

EPS_DOUBLE = 2.220446049250313e-16
EPS_SINGLE = 1.1920929e-07

#: covariance matrices with condition number strictly above this are treated
#: as unstable in double precision
ILL_CONDITIONED_THRESHOLD = 1e14

@dataclass(frozen=True)
class Precision:
    """Working float width: ``double`` (default) or ``single``."""

    mode: str = "double"

    def __post_init__(self):
        if self.mode not in ("double", "single"):
            raise InvalidInputError(f"unknown precision mode {self.mode!r}")

    @property
    def eps(self) -> float:
        return EPS_DOUBLE if self.mode == "double" else EPS_SINGLE

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.float64 if self.mode == "double" else np.float32)

    @classmethod
    def double(cls) -> "Precision":
        return cls("double")

    @classmethod
    def single(cls) -> "Precision":
        return cls("single")


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class FeatureMatrix:
    """A d x N block of features: d channels observed at N spatial samples."""

    data: np.ndarray = field()

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
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
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class SymPsdMatrix:
    """Symmetric PSD matrix. Symmetrized on construction to kill roundoff skew."""

    data: np.ndarray = field()

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.ndim != 2 or data.shape[0] != data.shape[1]:
            raise InvalidInputError(f"expected a square matrix, got shape {data.shape}")
        if not np.all(np.isfinite(data)):
            raise InvalidInputError("matrix contains non-finite entries")
        scale = np.abs(data).max() if data.size else 0.0
        if scale > 0 and np.abs(data - data.T).max() > 1e-12 * scale:
            raise InvalidInputError("matrix is not symmetric to 1e-12 relative tolerance")
        sym = 0.5 * (data + data.T)
        object.__setattr__(self, "data", _as_readonly(sym))

    @property
    def d(self) -> int:
        return self.data.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.data))


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenpairs (U, lambda) with lambda non-increasing and U orthogonal."""

    eigenvalues: np.ndarray = field()
    eigenvectors: np.ndarray = field()

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=np.float64)
        u = np.asarray(self.eigenvectors, dtype=np.float64)
        if lam.ndim != 1 or u.ndim != 2 or u.shape != (lam.size, lam.size):
            raise InvalidInputError(
                f"inconsistent shapes: eigenvalues {lam.shape}, eigenvectors {u.shape}"
            )
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
        return self.eigenvalues.size

    def reconstruct(self) -> np.ndarray:
        u = self.eigenvectors
        return (u * self.eigenvalues) @ u.T


class ConditionNumber(NamedTuple):
    value: float
    ill_conditioned: bool


def centering_matrix(n: int, dtype=np.float64) -> np.ndarray:
    """The n x n matrix (1/n)(I - (1/n) 11^T) that centers and averages columns."""
    eye = np.eye(n, dtype=dtype)
    return (eye - np.full((n, n), 1.0 / n, dtype=dtype)) / n


def apply_centering(m: np.ndarray) -> np.ndarray:
    """Right-multiply ``m`` by the centering matrix without forming it."""
    m = np.asarray(m)
    n = m.shape[1]
    return (m - m.mean(axis=1, keepdims=True)) / n


def covariance(x: FeatureMatrix) -> SymPsdMatrix:
    """Sample covariance of the columns of ``x``.

    Computed as X_c X_c^T / N with X_c the column-centered features, which is
    algebraically identical to sandwiching the centering matrix.
    """
    xc = x.data - x.data.mean(axis=1, keepdims=True)
    p = (xc @ xc.T) / x.n_samples
    return SymPsdMatrix(0.5 * (p + p.T))


def eigh(p: SymPsdMatrix) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix (LAPACK, via numpy).

    Eigenvalues come back sorted non-increasing; each eigenvector column has
    its largest-magnitude component made positive so the +/-U ambiguity
    never leaks into results.

    Raises:
        NumericalFailureError: LAPACK did not converge.
    """
    try:
        lam, u = np.linalg.eigh(p.data)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigensolver did not converge: {exc}") from exc
    lam = lam[::-1]
    u = u[:, ::-1]
    # sign convention: largest-magnitude component of each column positive
    anchor = np.argmax(np.abs(u), axis=0)
    u[:, u[anchor, np.arange(u.shape[1])] < 0] *= -1.0
    return EigenDecomposition(lam, u)


def clamp_eigenvalues(e: EigenDecomposition, prec: Precision) -> EigenDecomposition:
    """Replace every eigenvalue below machine epsilon with epsilon.

    Idempotent, preserves ordering, and leaves the eigenvectors untouched.
    """
    lam = np.maximum(e.eigenvalues, prec.eps)
    return EigenDecomposition(lam, e.eigenvectors)


def count_clamped(e: EigenDecomposition, prec: Precision) -> int:
    return int(np.sum(e.eigenvalues < prec.eps))


def matrix_power(e: EigenDecomposition, alpha: float) -> SymPsdMatrix:
    """U diag(lambda^alpha) U^T; alpha = 0.5 gives the principal square root."""
    lam = e.eigenvalues
    if alpha != int(alpha) and np.any(lam < 0):
        raise DomainError(
            f"fractional power {alpha} of a matrix with negative eigenvalues "
            f"(min {lam.min():.3e})"
        )
    powered = np.power(lam, alpha)
    u = e.eigenvectors
    q = (u * powered) @ u.T
    return SymPsdMatrix(0.5 * (q + q.T))


def condition_number(e: EigenDecomposition) -> ConditionNumber:
    """Ratio of extreme eigenvalues, flagged when strictly above 1e14.

    A zero smallest eigenvalue yields an infinite sentinel with the flag set;
    negative eigenvalues are a domain error (clamp first).
    """
    lam_max = float(e.eigenvalues[0])
    lam_min = float(e.eigenvalues[-1])
    if lam_min < 0:
        raise DomainError(f"negative smallest eigenvalue {lam_min:.3e}; clamp first")
    if lam_min == 0.0:
        return ConditionNumber(math.inf, True)
    value = lam_max / lam_min
    return ConditionNumber(value, value > ILL_CONDITIONED_THRESHOLD)
