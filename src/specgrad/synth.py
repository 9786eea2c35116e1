"""Seeded synthetic inputs with controlled spectra for checks and experiments."""

from __future__ import annotations

import numpy as np

from .core import EPS_DOUBLE, FeatureMatrix
from .errors import InvalidInputError


def spectrum_for_condition(d: int, cond: float) -> np.ndarray:
    """Geometric eigenvalue ladder from 1 down to 1/cond.

    Condition targets beyond 1/eps cannot keep neighbouring eigenvalues
    separated at working precision, so the bottom pair is collapsed to the
    floor; after clamping, such a spectrum contains an exact tie, which is the
    degeneracy a beyond-precision target is asking for.
    """
    if d < 2:
        raise InvalidInputError("need d >= 2 for a spectrum")
    if not 1.0 <= cond < np.inf:
        raise InvalidInputError(f"condition target must be finite and >= 1, got {cond}")
    lam = cond ** (-np.arange(d) / (d - 1))
    if 1.0 / cond < EPS_DOUBLE:
        lam[-2:] = 1.0 / cond
    return lam


def spectrum_with_min_gap(d: int, rng: np.random.Generator, gap_frac: float = 0.1) -> np.ndarray:
    """Spectrum whose consecutive eigenvalue gaps all exceed gap_frac * lambda_1.

    Near-equal jittered gaps spanning [0.2, 1] times a random overall scale.
    d - 1 positive gaps of at least gap_frac * lambda_1 must fit under
    lambda_1, so the requirement is only satisfiable for small d.
    """
    if d < 1:
        raise InvalidInputError("need d >= 1")
    scale = rng.uniform(0.5, 2.0)
    if d == 1:
        return np.array([scale])
    gaps = rng.uniform(0.95, 1.05, size=d - 1)
    gaps *= 0.8 / gaps.sum()
    if gaps.min() < gap_frac:
        raise InvalidInputError(
            f"cannot fit {d - 1} gaps of at least {gap_frac} * lambda_1 "
            "into the available spread"
        )
    lam = np.concatenate([[1.0], 1.0 - np.cumsum(gaps)])
    return scale * lam


def feature_matrix_with_spectrum(
    eigenvalues: np.ndarray, n_cols: int, rng: np.random.Generator
) -> FeatureMatrix:
    """Features whose sample covariance has exactly the requested spectrum.

    A Gaussian block is centered and whitened against its own sample
    covariance, then recolored through a random orthogonal basis carrying the
    target eigenvalues. Exact up to roundoff, so spectrum-sensitive checks
    see the spectrum they asked for.
    """
    lam = np.asarray(eigenvalues, dtype=np.float64)
    d = lam.size
    if n_cols <= d:
        raise InvalidInputError(f"need n_cols > d for a full-rank whitening, got {n_cols}")
    if np.any(lam <= 0):
        raise InvalidInputError("target eigenvalues must be positive")
    g = rng.normal(size=(d, n_cols))
    gc = g - g.mean(axis=1, keepdims=True)
    mu, v = np.linalg.eigh((gc @ gc.T) / n_cols)
    white = (v / np.sqrt(mu)) @ v.T @ gc
    basis, _ = np.linalg.qr(rng.normal(size=(d, d)))
    colored = (basis * np.sqrt(lam)) @ white
    return FeatureMatrix(colored)


def gaussian_features(d: int, n_cols: int, rng: np.random.Generator) -> FeatureMatrix:
    return FeatureMatrix(rng.normal(size=(d, n_cols)))
