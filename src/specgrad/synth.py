"""Seeded synthetic inputs with controlled spectra for checks and experiments."""

from __future__ import annotations

import numbers

import numpy as np

from .core import EPS_DOUBLE, FeatureMatrix, _float_array, _positive
from .errors import InvalidInputError


def spectrum_for_condition(d: int, cond: float) -> np.ndarray:
    """Geometric eigenvalue ladder from 1 down to 1/cond.

    Condition targets beyond 1/eps cannot keep neighbouring eigenvalues
    separated at working precision, so the bottom pair is collapsed to the
    floor; after clamping, such a spectrum contains an exact tie, which is the
    degeneracy a beyond-precision target is asking for.
    """
    d = _positive(d, "d")
    if d < 2:
        raise InvalidInputError("need d >= 2 for a spectrum")
    if isinstance(cond, (bool, np.bool_)) or not isinstance(cond, numbers.Real):
        raise InvalidInputError(f"condition target must be a real number, got {cond!r}")
    if not 1.0 <= cond < np.inf:
        raise InvalidInputError(f"condition target must be finite and >= 1, got {cond}")
    lam = cond ** (-np.arange(d) / (d - 1))
    if 1.0 / cond < EPS_DOUBLE:
        lam[-2:] = 1.0 / cond
    return lam


def feature_matrix_with_spectrum(
    eigenvalues: np.ndarray, n_cols: int, rng: np.random.Generator
) -> FeatureMatrix:
    """Features whose sample covariance has exactly the requested spectrum.

    A Gaussian block is centered and whitened against its own sample
    covariance, then recolored through a random orthogonal basis carrying the
    target eigenvalues. Exact up to roundoff, so spectrum-sensitive checks
    see the spectrum they asked for. The eigenvalues must form one non-empty
    1-d vector of positive, finite real numbers, and ``n_cols`` must be a real
    number before it is compared with d.
    """
    lam = _float_array(eigenvalues, "target eigenvalues")
    if lam.ndim != 1 or not lam.size:
        raise InvalidInputError(
            f"target eigenvalues must be one non-empty 1-d vector, got shape {lam.shape}"
        )
    if not isinstance(n_cols, numbers.Real):
        raise InvalidInputError(f"n_cols must be a positive int, got {n_cols!r}")
    d = lam.size
    if n_cols <= d:
        raise InvalidInputError(f"need n_cols > d for a full-rank whitening, got {n_cols}")
    n_cols = _positive(n_cols, "n_cols")
    if not np.all((lam > 0) & (lam < np.inf)):  # nan fails both comparisons
        raise InvalidInputError("target eigenvalues must be positive and finite")
    g = rng.normal(size=(d, n_cols))
    gc = g - g.mean(axis=1, keepdims=True)
    mu, v = np.linalg.eigh((gc @ gc.T) / n_cols)
    white = (v / np.sqrt(mu)) @ v.T @ gc
    basis, _ = np.linalg.qr(rng.normal(size=(d, d)))
    colored = (basis * np.sqrt(lam)) @ white
    return FeatureMatrix(colored)


def gaussian_features(d: int, n_cols: int, rng: np.random.Generator) -> FeatureMatrix:
    size = (_positive(d, "d"), _positive(n_cols, "n_cols"))
    return FeatureMatrix(rng.normal(size=size))
