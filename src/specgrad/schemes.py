"""Backward gradient schemes for the eigendecomposition square root.

The analytic backward pass of Q = U diag(sqrt(lambda)) U^T routes every
off-diagonal sensitivity through the antisymmetric matrix K with entries
1/(lambda_i - lambda_j), which explodes when eigenvalues collide. This module
implements the ordinary rule plus the remedies that tame it: dropping small
eigenvalues (top-n), clipping (truncation), truncated geometric series
(taylor), and a rational surrogate (pade), along with the power-iteration
gradient, per-scheme analytic upper bounds, and an empirical gradient
smoothness estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import EigenDecomposition, Precision, SymPsdMatrix
from .errors import (
    DegenerateInputError,
    DomainError,
    InvalidInputError,
    NumericalFailureError,
    PoleError,
)
from .pade import eval_rational, horner, reciprocal_gap_pade

FLOAT32_MAX = 3.4028235e38

#: kept-eigenvalue fraction used when a top-n scheme does not pin n explicitly
DEFAULT_TOPN_RATIO = 200.0 / 256.0
DEFAULT_TRUNCATION = 1e10
DEFAULT_DEGREE = 100
DEFAULT_NS_BACKWARD_ITERATIONS = 10
DEFAULT_PI_ITERATIONS = 100

_K_SCHEMES = ("ordinary", "topn", "trunc", "taylor", "pade")


@dataclass(frozen=True)
class BackwardScheme:
    """Tagged selection of one backward gradient rule plus its parameters."""

    kind: str
    top_n: int | None = None
    threshold: float | None = None
    degree: int | None = None
    iterations: int | None = None

    def __post_init__(self):
        known = _K_SCHEMES + ("power_iteration", "newton_schulz")
        if self.kind not in known:
            raise InvalidInputError(f"unknown scheme kind {self.kind!r}")
        if self.kind == "topn" and self.top_n is not None and self.top_n < 1:
            raise InvalidInputError("top-n needs n >= 1")
        if self.kind == "trunc" and not (self.threshold and self.threshold > 0):
            raise InvalidInputError("truncation needs a positive threshold")
        if self.kind in ("taylor", "pade") and (self.degree is None or self.degree < 1):
            raise InvalidInputError("series schemes need degree >= 1")
        if self.kind in ("power_iteration", "newton_schulz") and (
            self.iterations is None or self.iterations < 1
        ):
            raise InvalidInputError("iterative schemes need iterations >= 1")

    @classmethod
    def ordinary(cls) -> "BackwardScheme":
        return cls("ordinary")

    @classmethod
    def topn(cls, n: int | None = None) -> "BackwardScheme":
        return cls("topn", top_n=n)

    @classmethod
    def trunc(cls, threshold: float = DEFAULT_TRUNCATION) -> "BackwardScheme":
        return cls("trunc", threshold=threshold)

    @classmethod
    def taylor(cls, degree: int = DEFAULT_DEGREE) -> "BackwardScheme":
        return cls("taylor", degree=degree)

    @classmethod
    def pade(cls, degree: int = DEFAULT_DEGREE) -> "BackwardScheme":
        return cls("pade", degree=degree)

    @classmethod
    def power_iteration(cls, iterations: int = DEFAULT_PI_ITERATIONS) -> "BackwardScheme":
        return cls("power_iteration", iterations=iterations)

    @classmethod
    def newton_schulz(
        cls, iterations: int = DEFAULT_NS_BACKWARD_ITERATIONS
    ) -> "BackwardScheme":
        return cls("newton_schulz", iterations=iterations)

    def resolve_top_n(self, d: int) -> int:
        if self.top_n is not None:
            return min(self.top_n, d)
        return max(1, round(DEFAULT_TOPN_RATIO * d))

    @property
    def label(self) -> str:
        if self.kind == "topn":
            return f"topn(n={self.top_n if self.top_n is not None else 'auto'})"
        if self.kind == "trunc":
            return f"trunc(t={self.threshold:g})"
        if self.kind in ("taylor", "pade"):
            return f"{self.kind}(degree={self.degree})"
        if self.kind in ("power_iteration", "newton_schulz"):
            return f"{self.kind}(iterations={self.iterations})"
        return self.kind


@dataclass(frozen=True)
class KMatrix:
    """Antisymmetric eigenvalue-gap matrix produced by one of the schemes."""

    data: np.ndarray = field()
    scheme: str = "ordinary"

    def __post_init__(self):
        k = np.asarray(self.data, dtype=np.float64)
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise InvalidInputError(f"K matrix must be square, got {k.shape}")
        if np.any(np.diag(k) != 0.0):
            raise InvalidInputError("K matrix diagonal must be exactly zero")
        finite = np.isfinite(k) & np.isfinite(k.T)
        skew = np.abs(k[finite] + k.T[finite])
        scale = max(np.abs(k[np.isfinite(k)]).max(initial=0.0), 1.0)
        if skew.size and skew.max() > 1e-12 * scale:
            raise InvalidInputError("K matrix is not antisymmetric")
        k = np.array(k, copy=True)
        k.flags.writeable = False
        object.__setattr__(self, "data", k)

    def nonfinite_entries(self) -> list[tuple[int, int]]:
        bad = np.argwhere(~np.isfinite(self.data))
        return [tuple(map(int, ij)) for ij in bad]


def grad_eigvec_eigval(
    grad_q: np.ndarray, e: EigenDecomposition
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients w.r.t. the eigenvectors and eigenvalues of the square root.

    dl/dU = (dl/dQ + dl/dQ^T) U F with F = diag(sqrt(lambda)), and
    dl/dlambda_i = (1/2) lambda_i^(-1/2) (U^T dl/dQ U)_ii.
    """
    grad_q = np.asarray(grad_q, dtype=np.float64)
    d = e.d
    if grad_q.shape != (d, d):
        raise InvalidInputError(f"grad shape {grad_q.shape} does not match d={d}")
    if not np.all(np.isfinite(grad_q)):
        raise InvalidInputError("non-finite gradient input")
    lam = e.eigenvalues
    if np.any(lam <= 0):
        raise DomainError("non-positive eigenvalue; clamp before the backward pass")
    u = e.eigenvectors
    sqrt_lam = np.sqrt(lam)
    grad_u = (grad_q + grad_q.T) @ (u * sqrt_lam)
    grad_lam = 0.5 / sqrt_lam * np.einsum("ki,kl,li->i", u, grad_q, u)
    return grad_u, grad_lam


def k_matrix(e: EigenDecomposition, scheme: BackwardScheme) -> KMatrix:
    """The scheme-specific replacement for the 1/(lambda_i - lambda_j) matrix.

    Every scheme computes the upper triangle only, where the eigenvalue
    ordering keeps lambda_i >= lambda_j (so the ratio lambda_j / lambda_i is at
    or below one), and the lower triangle is its negation; an exact tie under
    ``ordinary`` gives +inf above and -inf below. At a tie Taylor gives
    (K+1)/lambda_i. Pade sits on the pole of 1/(1-x) there: its denominator is
    roundoff, so the entry's size and sign are those of the roundoff
    (``pade(100)`` gives a negative upper-triangle entry), and a denominator
    of exactly zero raises. For eigenvalues clamped to at least ``eps``,
    ``gradient_upper_bound`` bounds |K_ij| and is attained at a tie at ``eps``.
    """
    lam = e.eigenvalues
    d = e.d
    kind = scheme.kind
    if kind not in _K_SCHEMES:
        raise InvalidInputError(f"scheme {scheme.label} does not define a K matrix")

    rows, cols = np.triu_indices(d, k=1)
    if kind in ("ordinary", "trunc", "topn"):
        lam_eff = lam
        if kind == "topn":
            lam_eff = lam.copy()
            lam_eff[scheme.resolve_top_n(d) :] = 0.0
        gaps = lam_eff[rows] - lam_eff[cols]  # >= 0 by the ordering
        with np.errstate(divide="ignore"):
            vals = 1.0 / gaps
        if kind == "topn":
            vals = np.where((lam_eff[rows] == 0.0) & (lam_eff[cols] == 0.0), 0.0, vals)
        elif kind == "trunc":
            vals = np.minimum(vals, scheme.threshold)
    else:
        # series surrogates: ratios lambda_j / lambda_i <= 1
        if np.any(lam <= 0):
            raise DomainError("series schemes need strictly positive (clamped) eigenvalues")
        ratios = lam[cols] / lam[rows]
        if kind == "taylor":
            vals = horner(np.ones(scheme.degree + 1), ratios) / lam[rows]
        else:
            pa = reciprocal_gap_pade(scheme.degree)
            num = horner(pa.p, ratios)
            den = horner(pa.q_full, ratios)
            if np.any(den == 0.0):
                bad = ratios[den == 0.0][0]
                raise NumericalFailureError(
                    f"Pade denominator vanishes at eigenvalue ratio {bad!r}",
                    ratio=float(bad),
                )
            vals = num / den / lam[rows]
    k = np.zeros((d, d))
    k[rows, cols] = vals
    k[cols, rows] = -vals
    return KMatrix(k, scheme.label)


def grad_covariance(
    grad_q: np.ndarray,
    e: EigenDecomposition,
    scheme: BackwardScheme,
    k: KMatrix | None = None,
) -> np.ndarray:
    """Full backward chain dl/dQ -> dl/dP through the selected scheme:

    dl/dP = U ((K^T o (U^T dl/dU)) + diag(dl/dlambda)) U^T.

    ``k`` may pass in a matrix already built for this decomposition and
    scheme to avoid recomputing it.
    """
    grad_u, grad_lam = grad_eigvec_eigval(grad_q, e)
    if k is None:
        k = k_matrix(e, scheme)
    u = e.eigenvectors
    inner = k.data.T * (u.T @ grad_u)
    inner = inner + np.diag(grad_lam)
    return u @ inner @ u.T


@dataclass(frozen=True)
class PowerIterationTrace:
    """Iterate sequence of u <- P u / ||P u||, with the norms the gradient needs."""

    us: np.ndarray = field()  # (k_iters + 1, d)
    norms: np.ndarray = field()  # (k_iters,)
    p: SymPsdMatrix = field()

    @property
    def k_iters(self) -> int:
        return self.norms.size

    @property
    def estimate(self) -> np.ndarray:
        return self.us[-1]


def power_iteration(p: SymPsdMatrix, k_iters: int, v0: np.ndarray) -> PowerIterationTrace:
    """Run k_iters normalized power steps from v0, keeping the whole sequence."""
    if k_iters < 1:
        raise InvalidInputError(f"need k_iters >= 1, got {k_iters}")
    v0 = np.asarray(v0, dtype=np.float64)
    if v0.shape != (p.d,):
        raise InvalidInputError(f"v0 shape {v0.shape} does not match d={p.d}")
    norm0 = np.linalg.norm(v0)
    if norm0 == 0.0:
        raise DegenerateInputError("power iteration needs a nonzero start vector")
    us = np.empty((k_iters + 1, p.d))
    norms = np.empty(k_iters)
    us[0] = v0 / norm0
    for k in range(k_iters):
        w = p.data @ us[k]
        nw = np.linalg.norm(w)
        if nw == 0.0:
            raise DegenerateInputError(f"power iterate annihilated at step {k + 1}")
        norms[k] = nw
        us[k + 1] = w / nw
    return PowerIterationTrace(us, norms, p)


def pi_gradient(trace: PowerIterationTrace, grad_u: np.ndarray) -> np.ndarray:
    """Reverse-mode gradient of the power-iteration output w.r.t. the matrix.

    dl/dP = sum_k [(I - u^(k+1) u^(k+1)T) / ||P u^(k)||] dl/du^(k+1) u^(k)T
    with dl/du^(k) back-propagated through the same projector.
    """
    grad_u = np.asarray(grad_u, dtype=np.float64)
    d = trace.us.shape[1]
    if grad_u.shape != (d,):
        raise InvalidInputError(f"grad shape {grad_u.shape} does not match d={d}")
    total = np.zeros((d, d))
    g = grad_u
    for k in range(trace.k_iters - 1, -1, -1):
        u_next = trace.us[k + 1]
        projected = (g - u_next * np.dot(u_next, g)) / trace.norms[k]
        total += np.outer(projected, trace.us[k])
        g = trace.p.data @ projected
    return total


@dataclass(frozen=True)
class GradBound:
    """Analytic upper bound of |K_ij| for a scheme, or a no-bound marker."""

    scheme: str
    analytic_form: str
    max_value: float | None
    trigger: str

    @property
    def single_safe(self) -> bool | None:
        if self.max_value is None:
            return None
        return bool(np.isfinite(self.max_value) and self.max_value < FLOAT32_MAX)


def pade_bound_ratio(degree: int) -> float:
    """|P(1) / Q(1)| for the Pade coefficients ``k_matrix`` uses.

    This is the surrogate's value at ratio 1 (an exact eigenvalue tie), built
    from the same double-precision coefficients and evaluated by the same
    Horner recurrence ``k_matrix`` applies, so it is the magnitude a tie
    actually produces. The true [M/N] approximant of 1/(1-x) has a
    denominator root at x = 1 (1 + sum(q) = 0 in exact arithmetic), so the
    magnitude is set entirely by roundoff: it depends on the solver and on
    the evaluation order, and is not a portable constant. A denominator that
    rounds to exactly zero gives ``inf``.
    """
    try:
        return abs(eval_rational(reciprocal_gap_pade(degree), 1.0))
    except PoleError:
        return math.inf


def gradient_upper_bound(scheme: BackwardScheme, prec: Precision) -> GradBound:
    """Largest |K_ij| the scheme can emit, with its trigger condition.

    The bounds assume eigenvalues clamped to at least ``prec.eps``. The Pade
    value is ``pade_bound_ratio / eps``: ``k_matrix`` always builds and
    evaluates its Pade coefficients in double precision, so in either
    precision this is exactly the |K_ij| that ``k_matrix`` emits at a tie at
    ``eps``, and it is attained.
    """
    eps = prec.eps
    kind = scheme.kind
    if kind == "taylor":
        return GradBound(
            scheme.label,
            "(K+1)/lambda_i",
            (scheme.degree + 1) / eps,
            "lambda_i = lambda_j <= eps",
        )
    if kind == "topn":
        return GradBound(scheme.label, "1/lambda_N", 1.0 / eps, "lambda_N <= eps")
    if kind == "trunc":
        return GradBound(
            scheme.label, "T", scheme.threshold, "|1/(lambda_i - lambda_j)| >= T"
        )
    if kind == "pade":
        ratio = pade_bound_ratio(scheme.degree)
        return GradBound(
            scheme.label,
            "(1/lambda_i) * sum(p_m) / (1 + sum(q_n))",
            ratio / eps,
            "lambda_i = lambda_j <= eps",
        )
    if kind == "ordinary":
        return GradBound(
            scheme.label, "1/(lambda_i - lambda_j)", math.inf, "lambda_i = lambda_j"
        )
    # iterative schemes admit no closed-form bound on the matrix-product chain
    return GradBound(scheme.label, "no analytic form", None, "n/a")


def beta_smoothness(
    grad_fn,
    x0: np.ndarray,
    samples: int = 64,
    perturb_scale: float = 1e-3,
    rng: np.random.Generator | int | None = 0,
    scheme_label: str = "unknown",
) -> float:
    """Empirical gradient-Lipschitz estimate around x0.

    Samples Gaussian perturbation directions scaled to perturb_scale times
    ||x0||_F and reports max ||g(x0) - g(x0 + delta)||_F / ||delta||_F over
    the samples. Larger means a less smooth gradient field.
    """
    if samples < 2:
        raise InvalidInputError(f"need at least 2 samples, got {samples}")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    x0 = np.asarray(x0, dtype=np.float64)
    base = np.asarray(grad_fn(x0))
    if not np.all(np.isfinite(base)):
        raise NumericalFailureError(
            f"non-finite gradient at the base point under scheme {scheme_label}",
            scheme=scheme_label,
        )
    scale = perturb_scale * np.linalg.norm(x0)
    worst = 0.0
    for _ in range(samples):
        delta = rng.normal(size=x0.shape)
        delta *= scale / np.linalg.norm(delta)
        other = np.asarray(grad_fn(x0 + delta))
        if not np.all(np.isfinite(other)):
            raise NumericalFailureError(
                f"non-finite gradient at a perturbed point under scheme {scheme_label}",
                scheme=scheme_label,
            )
        worst = max(worst, float(np.linalg.norm(other - base) / np.linalg.norm(delta)))
    return worst
