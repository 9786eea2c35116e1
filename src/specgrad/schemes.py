"""Backward gradient schemes for the eigendecomposition square root.

The analytic backward pass of Q = U diag(sqrt(lambda)) U^T routes every
off-diagonal sensitivity through the antisymmetric matrix K with entries
1/(lambda_i - lambda_j), which explodes when eigenvalues collide. This module
implements the ordinary rule plus the remedies that tame it: dropping small
eigenvalues (top-n), clipping (truncation), truncated geometric series
(taylor), and a rational surrogate (pade), along with each scheme's upper
bound on |K|. ``k_matrix`` returns K as a plain read-only float64 array, and
``grad_covariance`` reads it only through Phi = K o (lambda_i - lambda_j),
the scheme's damping of the exact Daleckii-Krein adjoint. A bound takes the
width of its clamp epsilon as a numpy dtype, read through ``np.finfo``.

Both take the eigenpairs as plain float64 arrays, the non-increasing
eigenvalues (d,) and the eigenvectors (d, d) that ``core.eigh`` returns,
clamped by ``core.clamp_eigenvalues``, and trust them; ``grad_covariance``
checks only the gradient it is given. Stacks: both also take the layer's
stacked eigenpairs, (B, d) and (B, d, d), so one pass covers a batch; each
matrix gets the bits of its own call.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .core import _gradient, _positive, _triu, float_info
from .errors import InvalidInputError, PoleError
from .pade import eval_rational, reciprocal_gap_pade

#: kept-eigenvalue fraction used when a top-n scheme does not pin n explicitly
DEFAULT_TOPN_RATIO = 200.0 / 256.0

#: A backward kind's one parameter: its name in the label, default and type.
#: A ``None`` default lets it be left out (top-n: keep ``DEFAULT_TOPN_RATIO``).
SchemeParam = namedtuple("SchemeParam", "name default type")

#: every backward kind with its parameter, or ``None`` for a kind that takes none
SCHEME_PARAMS = {
    "ordinary": None,
    "topn": SchemeParam("n", None, int),
    "trunc": SchemeParam("t", 1e10, float),
    "taylor": SchemeParam("degree", 100, int),
    "pade": SchemeParam("degree", 100, int),
    "newton_schulz": SchemeParam("iterations", 10, int),
}


@dataclass(frozen=True)
class BackwardScheme:
    """Tagged selection of one backward gradient rule and its one parameter.

    The classmethods fill in the kind's default; only ``ordinary`` and
    ``topn`` accept ``BackwardScheme(kind)`` without a parameter.
    """

    kind: str
    param: int | float | None = None

    def __post_init__(self):
        if self.kind not in SCHEME_PARAMS:
            raise InvalidInputError(f"unknown scheme kind {self.kind!r}")
        spec = SCHEME_PARAMS[self.kind]
        if self.param is None:
            if spec is not None and spec.default is not None:
                raise InvalidInputError(f"{self.kind} needs its parameter {spec.name}")
            return
        if spec is None:
            raise InvalidInputError(f"{self.kind} takes no parameter, got {self.param!r}")
        value = _positive(self.param, f"{self.kind} {spec.name}", spec.type)
        object.__setattr__(self, "param", value)

    @classmethod
    def ordinary(cls) -> "BackwardScheme":
        return cls("ordinary")

    @classmethod
    def topn(cls, n: int | None = SCHEME_PARAMS["topn"].default) -> "BackwardScheme":
        return cls("topn", n)

    @classmethod
    def trunc(cls, threshold: float = SCHEME_PARAMS["trunc"].default) -> "BackwardScheme":
        return cls("trunc", threshold)

    @classmethod
    def taylor(cls, degree: int = SCHEME_PARAMS["taylor"].default) -> "BackwardScheme":
        return cls("taylor", degree)

    @classmethod
    def pade(cls, degree: int = SCHEME_PARAMS["pade"].default) -> "BackwardScheme":
        return cls("pade", degree)

    @classmethod
    def newton_schulz(
        cls, iterations: int = SCHEME_PARAMS["newton_schulz"].default
    ) -> "BackwardScheme":
        return cls("newton_schulz", iterations)

    def resolve_top_n(self, d: int) -> int:
        if self.param is not None:
            return min(self.param, d)
        return max(1, round(DEFAULT_TOPN_RATIO * d))

    @property
    def label(self) -> str:
        spec = SCHEME_PARAMS[self.kind]
        if spec is None:
            return self.kind
        fmt = "g" if spec.type is float else ""
        value = "auto" if self.param is None else format(self.param, fmt)
        return f"{self.kind}({spec.name}={value})"


def k_matrix(lam: np.ndarray, scheme: BackwardScheme) -> np.ndarray:
    """The scheme-specific replacement for the 1/(lambda_i - lambda_j) matrix.

    K is a read-only float64 array of shape (d, d), or (B, d, d) for stacked
    eigenvalues, and this is the one place that dispatches on the scheme kind.
    Every scheme computes the upper triangle only, where the eigenvalue
    ordering keeps lambda_i >= lambda_j (so the ratio lambda_j / lambda_i is at
    or below one), and the lower triangle is its negation; an exact tie under
    ``ordinary`` gives +inf above and -inf below. The series schemes evaluate
    their surrogate of 1/(1-x), ``pade.reciprocal_gap_pade(kind, K)``, at the
    ratios with ``pade.eval_rational``: Taylor's is the [K/0] approximant, with
    denominator 1. At a tie Taylor gives (K+1)/lambda_i. Pade sits on
    the pole of 1/(1-x) there: its denominator is roundoff, so the entry's
    size and sign are those of the roundoff (``pade(100)`` gives a negative
    upper-triangle entry), and a vanishing denominator raises ``PoleError``.
    ``gradient_upper_bound`` is the |K_01| this function emits at a tie at
    ``eps``, the largest entry for eigenvalues clamped to at least ``eps``.
    """
    d = lam.shape[-1]
    kind = scheme.kind
    if kind == "newton_schulz":
        raise InvalidInputError(f"scheme {scheme.label} does not define a K matrix")

    rows, cols = _triu(d, 1)
    if kind in ("ordinary", "trunc", "topn"):
        lam_eff = lam
        if kind == "topn":
            lam_eff = lam.copy()
            lam_eff[..., scheme.resolve_top_n(d) :] = 0.0
        gaps = lam_eff[..., rows] - lam_eff[..., cols]  # >= 0 by the ordering
        with np.errstate(divide="ignore"):
            vals = 1.0 / gaps
        if kind == "topn":
            dropped = (lam_eff[..., rows] == 0.0) & (lam_eff[..., cols] == 0.0)
            vals = np.where(dropped, 0.0, vals)
        elif kind == "trunc":
            vals = np.minimum(vals, scheme.param)
    else:
        # series surrogates: ratios lambda_j / lambda_i <= 1
        if np.any(lam <= 0):
            raise InvalidInputError("series schemes need strictly positive (clamped) eigenvalues")
        lam_i = lam[..., rows]
        ratios = lam[..., cols] / lam_i
        vals = eval_rational(reciprocal_gap_pade(kind, scheme.param), ratios) / lam_i
    # zero diagonal and negated mirror: antisymmetric by construction
    k = np.zeros(lam.shape + (d,))
    k[..., rows, cols] = vals
    k[..., cols, rows] = -vals
    k.flags.writeable = False
    return k


def grad_covariance(
    grad_q: np.ndarray, lam: np.ndarray, u: np.ndarray, k: np.ndarray
) -> np.ndarray:
    """Full backward chain dl/dQ -> dl/dP through the scheme that built ``k``.

    The Daleckii-Krein form of the square root's adjoint (Higham, *Functions
    of Matrices*, ch. 3 and 6) is dl/dP = U ((Phi o L) o S) U^T with
    S = U^T (G + G^T) U for G = dl/dQ and the Loewner matrix
    L_ij = 1/(2 (sqrt(lambda_i) + sqrt(lambda_j))). A scheme enters only
    through Phi = K o (lambda_i - lambda_j), with Phi_ii = 1: the exact K
    gives Phi = 1, a remedy its damping. No square roots are subtracted, so
    a near tie loses no accuracy; at an exact tie ``ordinary``'s inf * 0 is
    nan, and a finite K gives Phi = 0.
    """
    grad_q = _gradient(grad_q, u.shape)
    d = lam.shape[-1]
    if k.shape != u.shape:
        raise InvalidInputError(f"K matrix shape {k.shape} does not match d={d}")
    if np.any(lam <= 0):
        raise InvalidInputError("non-positive eigenvalue; clamp before the backward pass")
    sqrt_lam = np.sqrt(lam)
    s = u.mT @ (grad_q + grad_q.mT) @ u
    phi = k * (lam[..., :, None] - lam[..., None, :])
    diag = np.arange(d)
    phi[..., diag, diag] = 1.0
    phi /= 2.0 * (sqrt_lam[..., :, None] + sqrt_lam[..., None, :])  # now Phi o L
    return u @ (phi * s) @ u.mT


def gradient_upper_bound(scheme: BackwardScheme, dtype=np.float64) -> float | None:
    """Largest |K_ij| the scheme can emit, or ``None`` for the Newton-Schulz backward.

    For eigenvalues clamped to at least ``eps = np.finfo(dtype).eps`` the
    largest entry sits at a tie at ``eps``, so the bound is the |K_01| that
    ``k_matrix`` emits for the spectrum (eps, eps): the same arithmetic, so it
    is attained. Top-n keeps one eigenvalue there and drops its partner. A
    Pade denominator that vanishes at the tie gives ``inf``. ``k_matrix``
    works in float64, so ``dtype`` (float32 or float64) sets only ``eps``.
    The Newton-Schulz backward admits no closed-form bound on its product chain.
    """
    eps = float_info(dtype).eps
    if scheme.kind == "newton_schulz":
        return None
    try:
        k = k_matrix(np.full(2, eps), BackwardScheme.topn(1) if scheme.kind == "topn" else scheme)
    except PoleError:
        return math.inf
    return float(abs(k[0, 1]))

