"""Reference implementations and readers that only the tests call.

Each reference checks a part of the package from a second direction: the
power-iteration gradient reproduces the leading block of the ``taylor``
scheme, the continued fraction builds the diagonal Pade approximants that
``pade_from_series`` solves for, the series-match residual certifies an
approximant against its series, the literal centering matrix is what
``core.covariance`` centres by without forming it, the two bare-numpy forwards
pin the bits of ``gcp_forward``'s Q under each forward and the bare-numpy chain
to X those of ``ns_gradient_of_x``, the spectral form of Newton-Schulz
checks ``ns_forward`` and ``ns_backward`` from the eigenpairs and a scalar
recurrence, at every width, the min-gap spectrum gives
the finite-difference suite well-separated eigenvalues, the Loewner-form
gradient shows which pairs of dL/dP reach dL/dX, and the beta-smoothness
estimate compares the gradient fields of two schemes. The readers parse what
the package writes or holds: ``read_csv`` a harness table, ``reconstruct`` a
matrix from its eigenpairs, ``table_cell`` one entry of an approximation-error
grid, and ``mean_condition`` and ``error_rate`` a training log. The per-sample
evaluation and batch pass are ``training.evaluate_model`` and the training
step's ``_batch_pass`` written as loops over samples, with the classifier
head and the finiteness checks spelled out for one pooled matrix. Tests import this
module the way they import ``conftest``. ``tests/test_oracles.py`` checks that
every public name here has a test that imports it, and that none is also a
name in ``specgrad``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from specgrad.core import FeatureMatrix, clamp_eigenvalues, eigh
from specgrad.errors import InvalidInputError, NumericalFailureError
from specgrad.pade import PadeApproximant, PowerSeries
from specgrad.layer import (
    GcpLayerConfig,
    gcp_backward,
    gcp_forward,
    grad_from_upper_triangle,
    upper_triangle_vector,
)
from specgrad.training import ToyModel, ToyTask, TrainingLog


@dataclass(frozen=True)
class PowerIterationTrace:
    """Iterate sequence of u <- P u / ||P u||, with the norms the gradient needs."""

    us: np.ndarray = field()  # (k_iters + 1, d)
    norms: np.ndarray = field()  # (k_iters,)
    p: np.ndarray = field()

    @property
    def k_iters(self) -> int:
        return self.norms.size

    @property
    def estimate(self) -> np.ndarray:
        return self.us[-1]


def power_iteration(p: np.ndarray, k_iters: int, v0: np.ndarray) -> PowerIterationTrace:
    """Run k_iters normalized power steps from a nonzero v0, keeping the whole sequence."""
    us = np.empty((k_iters + 1, p.shape[-1]))
    norms = np.empty(k_iters)
    us[0] = v0 / np.linalg.norm(v0)
    for k in range(k_iters):
        w = p @ us[k]
        norms[k] = np.linalg.norm(w)
        us[k + 1] = w / norms[k]
    return PowerIterationTrace(us, norms, p)


def pi_gradient(trace: PowerIterationTrace, grad_u: np.ndarray) -> np.ndarray:
    """Reverse-mode gradient of the power-iteration output w.r.t. the matrix.

    dl/dP = sum_k [(I - u^(k+1) u^(k+1)T) / ||P u^(k)||] dl/du^(k+1) u^(k)T
    with dl/du^(k) back-propagated through the same projector.
    """
    d = trace.us.shape[1]
    total = np.zeros((d, d))
    g = grad_u
    for k in range(trace.k_iters - 1, -1, -1):
        u_next = trace.us[k + 1]
        projected = (g - u_next * np.dot(u_next, g)) / trace.norms[k]
        total += np.outer(projected, trace.us[k])
        g = trace.p @ projected
    return total


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


def _qd_cf_coefficients(s: PowerSeries, n: int) -> list:
    """Partial numerator factors c_2 ... c_{2n+1} of the regular C-fraction.

    The expansion a_0 + a_1 x / (1 - c_2 x / (1 - c_3 x / ...)) has odd
    convergents equal to the diagonal sequence [1/0], [2/1], ... The factors
    come from the quotient-difference scheme of the shifted series, run one
    column at a time: only the current q column and the previous e column are
    kept, and c_{2j}, c_{2j+1} are their leading entries. A zero at the
    surface of the table means the fraction terminates (the series is
    rational and already matched exactly); a zero inside the table is a
    genuine breakdown.
    """
    a = s.coeffs.astype(np.float64)
    if a.size < 2 * n + 2:
        raise InvalidInputError(
            f"series has {a.size} coefficients, diagonal [{n + 1}/{n}] needs {2 * n + 2}"
        )
    if n == 0:
        return []
    if a[1] == 0.0:
        raise NumericalFailureError(
            "continued-fraction expansion breaks down: a_1 = 0", step="q_1"
        )
    g = a[1 : 2 * n + 2] / a[1]  # g_0 ... g_2n

    # q holds the current column q_j^(k), e the previous one e_{j-1}^(k);
    # the first column stops at the first zero g_k
    zero = np.flatnonzero(g[:-1] == 0.0)
    stop = zero[0] if zero.size else 2 * n
    q = g[1 : stop + 1] / g[:stop]
    e = np.zeros(2 * n + 1)
    coeffs: list = []
    for j in range(1, n + 1):
        if not q.size or q[0] == 0.0:
            return coeffs  # terminated before c_{2j}
        coeffs.append(q[0])
        e = q[1:] - q[:-1] + e[1 : q.size]
        if not e.size or e[0] == 0.0:
            return coeffs  # fraction terminates: series is rational of lower degree
        coeffs.append(e[0])
        if j < n:
            zero = np.flatnonzero(e[:-1] == 0.0)
            if zero.size:
                raise NumericalFailureError(
                    "quotient-difference breakdown: zero partial denominator",
                    step=f"e_{j}^({zero[0]})",
                )
            q = q[1 : e.size] * e[1:] / e[:-1]
    return coeffs


def pade_from_continued_fraction(s: PowerSeries, n: int) -> PadeApproximant:
    """Diagonal [n+1/n] approximant via successive continued-fraction convergents.

    Runs the recurrence A_{k+1} = A_k - c_{k+1} x A_{k-1} once, on a 2-row
    array holding numerator A_k and denominator B_k. If the underlying fraction
    terminates early the result keeps the lower exact degree.
    """
    if n < 0:
        raise InvalidInputError(f"n must be non-negative, got {n}")
    a = s.coeffs.astype(np.float64)
    cfs = _qd_cf_coefficients(s, n)

    # rows A_k, B_k of the convergent A_k / B_k, lowest coefficient first;
    # A_{-1} = 1, B_{-1} = 0, A_0 = a_0, B_0 = 1, and c_1 = -a_1
    prev = np.zeros((2, n + 2))
    prev[0, 0] = 1.0
    cur = np.zeros((2, n + 2))
    cur[:, 0] = a[0], 1.0
    for c in [-a[1], *cfs]:
        shifted = np.zeros_like(prev)
        shifted[:, 1:] = prev[:, :-1]
        cur, prev = cur - c * shifted, cur
    # B_k(0) = 1 at every step, so the convergent is already normalized
    return PadeApproximant(_poly_trim(cur[0]), _poly_trim(cur[1])[1:])


def _poly_trim(coeffs: np.ndarray) -> np.ndarray:
    nz = np.nonzero(coeffs)[0]
    return coeffs[: nz[-1] + 1] if nz.size else coeffs[:1]


def series_match_residual(pa: PadeApproximant, s: PowerSeries) -> float:
    """Largest mismatch between the Maclaurin expansion of P/Q and the series.

    Equivalent to checking Q * A = P modulo x^(M+N+1) by convolution, scaled
    by the largest source coefficient so the result reads as a relative error.
    """
    m, n = pa.degrees
    a = s.coeffs.astype(np.float64)[: m + n + 1]
    prod = np.convolve(pa.q_full.astype(np.float64), a)[: m + n + 1]
    p_pad = np.zeros(m + n + 1)
    p_pad[: m + 1] = pa.p
    scale = max(np.abs(a).max(), 1.0)
    return float(np.abs(prod - p_pad).max() / scale)


def _bare_covariance(x: np.ndarray) -> np.ndarray:
    """X_c X_c^T / N with X_c the column-centered features, symmetrized as 0.5 P + 0.5 P^T."""
    n = x.shape[-1]
    xc = x - x.sum(axis=-1, keepdims=True) / n
    p = (xc @ xc.mT) / n
    return 0.5 * p + 0.5 * p.mT


def eig_sqrt_forward(x: np.ndarray) -> np.ndarray:
    """Q of the exact forward, written as bare numpy, for a (d, N) block or a (B, d, N) stack.

    Centre, X_c X_c^T / N, symmetrize, LAPACK ``eigh`` with its eigenpairs
    reversed into non-increasing order, clamp at float64's epsilon,
    U diag(lambda^(1/2)) U^T, symmetrize: the operations of ``gcp_forward``
    in the order it runs them, so its Q must match this bit for bit. U is
    copied C-contiguous, as ``core.eigh`` owns it, because a reversed view
    is a different memory layout for matmul.
    """
    lam, u = np.linalg.eigh(_bare_covariance(x))
    lam = np.maximum(lam[..., ::-1], np.finfo(np.float64).eps)
    u = np.ascontiguousarray(u[..., ::-1])
    q = (u * np.power(lam, 0.5)[..., None, :]) @ u.mT
    return 0.5 * q + 0.5 * q.mT


def newton_schulz_forward(x: np.ndarray, iterations: int) -> np.ndarray:
    """Q of the NS(N) forward, written as bare numpy, for a (d, N) block or a (B, d, N) stack.

    The covariance as in ``eig_sqrt_forward``, then A = P / tr(P), the
    coupled loop T = 0.5 (3 I - Z Y), Y <- Y T, Z <- T Z from Y = A, Z = I
    with every product formed, Q = sqrt(tr(P)) Y_N, symmetrized.
    """
    p = _bare_covariance(x)
    tr = np.trace(p, axis1=-2, axis2=-1)[..., None, None]
    eye = np.eye(p.shape[-1])
    y, z = p / tr, eye
    for _ in range(iterations):
        t = 0.5 * (3.0 * eye - z @ y)
        y, z = y @ t, t @ z
    q = np.sqrt(tr) * y
    return 0.5 * q + 0.5 * q.mT


def _newton_schulz_scalar(a: np.ndarray, iterations: int) -> tuple[np.ndarray, np.ndarray]:
    """g_N at each a_i and its divided differences [g_N](a_i, a_j), as bare numpy.

    g_N is the coupled iteration y <- y t, z <- t z, t = 1.5 - 0.5 z y run on
    scalars from y = a, z = 1, so g_N(a) is the final y. Each divided
    difference of a product follows the product rule
    [fg](a, b) = f(a) [g](a, b) + [f](a, b) g(b), from [y](a, b) = 1 and
    [z](a, b) = 0. Nothing is subtracted from a near equal, so a tie a_i = a_j
    gets the derivative g_N'(a_i), with no cancellation near one.
    """
    y, z = a, np.ones_like(a)
    dy, dz = np.ones((a.size, a.size)), np.zeros((a.size, a.size))
    for _ in range(iterations):
        t = 1.5 - 0.5 * z * y
        dt = -0.5 * (z[:, None] * dy + dz * y[None, :])
        dy = y[:, None] * dt + dy * t[None, :]
        dz = t[:, None] * dz + dt * z[None, :]
        y, z = y * t, t * z
    return y, dy


def newton_schulz_spectral(
    p: np.ndarray, iterations: int, grad_q: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(Q, dL/dP) of trace-scaled NS(N) at ``p`` and dL/dQ = ``grad_q``, from its spectral form.

    Every NS iterate is a polynomial in A = P / tr(P), so
    Q = sqrt(tr(P)) U g_N(Lambda / tr(P)) U^T with the eigenpairs of P and
    g_N from ``_newton_schulz_scalar``. The gradient is the Daleckii-Krein
    adjoint H = U (Gamma o (U^T G U)) U^T with Gamma_ij = [g_N](a_i, a_j),
    taken through A to P, plus the two terms of tr(P): the pre-normalization's
    -<H, P> / tr(P)^(3/2) I and the post-compensation's
    <G, Y_N> / (2 sqrt(tr(P))) I.
    """
    tau = np.trace(p)
    lam, u = np.linalg.eigh(p)
    g, gamma = _newton_schulz_scalar(lam / tau, iterations)
    y = (u * g) @ u.T
    h = u @ (gamma * (u.T @ grad_q @ u)) @ u.T
    trace_term = np.sum(grad_q * y) / (2.0 * np.sqrt(tau)) - np.sum(h * p) / tau**1.5
    return np.sqrt(tau) * y, h / np.sqrt(tau) + trace_term * np.eye(p.shape[-1])


def chain_to_x(grad_p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """dL/dX = (G + G^T) X (I - 11^T / N) / N as bare numpy, for a (d, N) block or a (B, d, N) stack.

    The product (G + G^T) X, less its row sums over N, then over N: the
    operations of ``ns_gradient_of_x`` in its order, so its result must match
    this bit for bit.
    """
    m = (grad_p + grad_p.mT) @ x
    n = x.shape[-1]
    return (m - m.sum(axis=-1, keepdims=True) / n) / n


def loewner_gradient_of_x(x: np.ndarray, g: np.ndarray, phi_tied: float) -> np.ndarray:
    """dL/dX of the exact forward at dL/dQ = ``g`` through the Loewner form, as bare numpy.

    The covariance as in ``eig_sqrt_forward``, its eigenvalues clamped at
    float64's epsilon, L_ij = 1/(2(sqrt(lambda_i) + sqrt(lambda_j))) and
    dL/dP = U ((Phi o L) o S) U^T with S = U^T (G + G^T) U, chained to X by
    ``chain_to_x``. Phi is 1 on every pair except the tied clamped ones, the
    off-diagonal pairs of two eigenvalues clamped to eps, where it is
    ``phi_tied``: 1 is the exact adjoint, 0 is what a finite K gives at a tie.
    """
    eps = np.finfo(np.float64).eps
    lam, u = np.linalg.eigh(_bare_covariance(x))
    lam, u = lam[::-1], u[:, ::-1]
    clamped = lam <= eps
    root = np.sqrt(np.maximum(lam, eps))
    phi = np.where(np.outer(clamped, clamped), phi_tied, 1.0)
    np.fill_diagonal(phi, 1.0)
    loewner = phi / (2.0 * (root[:, None] + root[None, :]))
    return chain_to_x(u @ (loewner * (u.T @ (g + g.T) @ u)) @ u.T, x)


def centering_matrix(n: int, dtype=np.float64) -> np.ndarray:
    """The n x n matrix (1/n)(I - (1/n) 11^T) that centers and averages columns."""
    eye = np.eye(n, dtype=dtype)
    return (eye - np.full((n, n), 1.0 / n, dtype=dtype)) / n


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


def read_csv(path) -> tuple[dict, list, list]:
    """Parse a harness CSV back into (preamble, header, rows of strings)."""
    preamble: dict = {}
    header: list = []
    rows: list = []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            preamble[key.strip()] = value
            continue
        cells = line.split(",")
        if not header:
            header = cells
        else:
            rows.append(cells)
    return preamble, header, rows


def reconstruct(lam: np.ndarray, u: np.ndarray) -> np.ndarray:
    """U diag(lambda) U^T."""
    return (u * lam) @ u.T


def table_cell(errors: np.ndarray, ratios, degrees, ratio: float, degree: int) -> float:
    """The entry at one ratio and degree of an error grid over ``ratios`` x ``degrees``."""
    return float(errors[list(ratios).index(ratio), list(degrees).index(degree)])


def mean_condition(log: TrainingLog, lo: int, hi: int) -> float:
    """Mean of the per-step mean condition numbers of steps lo..hi-1; nan if none."""
    chunk = [r.mean_condition_number for r in log.records[lo:hi]]
    return float(np.mean(chunk)) if chunk else float("nan")


def error_rate(log: TrainingLog, tail: int) -> float:
    """One minus the mean accuracy of the last ``tail`` steps; nan if none."""
    chunk = [r.accuracy for r in log.records[-tail:]]
    return 1.0 - float(np.mean(chunk)) if chunk else float("nan")


def per_sample_evaluation(model: ToyModel, cfg: GcpLayerConfig, task: ToyTask) -> tuple[float, float]:
    """``evaluate_model``'s (mean cross-entropy, error rate), one sample at a time.

    Each sample is pooled alone, and its softmax, loss and prediction are
    computed from its own logits; the losses add up in sample order.
    """
    loss, hits = 0.0, 0
    for r, y in zip(task.inputs, task.labels):
        q, _ = gcp_forward(FeatureMatrix(model.w1 @ r), cfg)
        logits = model.w2 @ upper_triangle_vector(q.data) + model.b2
        e = np.exp(logits - logits.max())
        loss += -float(np.log(max(e[y] / e.sum(), 1e-300)))
        hits += int(np.argmax(logits) == y)
    return loss / task.n_samples, 1.0 - hits / task.n_samples


def _require_finite(product: np.ndarray, where: str, operand: np.ndarray) -> None:
    """The training step's check of one sample's product, with its message."""
    bad = product.size - int(np.isfinite(product).sum())
    if bad:
        largest = float(np.abs(operand).max())
        raise NumericalFailureError(
            f"{where} is non-finite in {bad} of {product.size} entries "
            f"(largest |operand entry| {largest:.3e})",
            where=where,
            max_entry=largest,
        )


def per_sample_batch_pass(model: ToyModel, cfg: GcpLayerConfig, rb: np.ndarray, yb: np.ndarray):
    """The training step's (loss, accuracy, mean condition, gradients), one sample at a time.

    Each sample runs the whole pass alone, features to ``w1`` gradient, and
    its terms add up in sample order; the first failing check of the first
    failing sample raises. The batch gradients are checked once, after the sum.
    """
    scale = 1.0 / yb.size
    loss, hits, conds = 0.0, 0, []
    grads = [np.zeros_like(model.w1), np.zeros_like(model.w2), np.zeros_like(model.b2)]
    for r, y in zip(rb, yb):
        features = model.w1 @ r
        _require_finite(features, "features w1 @ r", model.w1)
        q, cache = gcp_forward(FeatureMatrix(features), cfg)
        lam = clamp_eigenvalues(eigh(cache.p.data)[0])
        conds.append(lam[0] / lam[-1])
        v = upper_triangle_vector(q.data)
        logits = model.w2 @ v + model.b2
        e = np.exp(logits - logits.max())
        prob = e / e.sum()
        loss += -float(np.log(max(prob[y], 1e-300)))
        hits += int(np.argmax(logits) == y)
        prob[y] -= 1.0  # now the loss gradient at the logits
        gq = grad_from_upper_triangle(model.w2.T @ prob, q.d)
        _require_finite(gq, "loss gradient at Q", model.w2)
        grads[0] += gcp_backward(cache, gq) @ r.T
        grads[1] += np.outer(prob, v)
        grads[2] += prob
    grads = tuple(g * scale for g in grads)
    for name, grad, param in zip(("w1", "w2", "b2"), grads, (model.w1, model.w2, model.b2)):
        _require_finite(grad, f"batch gradient at {name}", param)
    return loss * scale, hits * scale, float(np.mean(conds)), grads
