"""Pade approximant construction, evaluation, and error tables.

Two independent construction routes are provided: solving the linearized
coefficient equations (one minimum-norm least-squares solve of a Toeplitz
system for the denominator, then a convolution for the numerator), and the
continued-fraction route that builds the diagonal convergents through the
quotient-difference scheme and the three-term recurrence of successive
convergents. For series whose Toeplitz block is nonsingular the two agree,
which the tests exploit.

The singular case matters here: the geometric series 1, 1, 1, ... produces an
all-ones Toeplitz block, and the minimum-norm solution keeps high-degree
diagonal approximants constructible and numerically exact.
Both routes and the evaluation run in the coefficients' dtype; the surrogate
and the error tables take theirs as a numpy dtype, float32 or float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import _as_readonly, _positive, float_info
from .errors import InvalidInputError, NumericalFailureError, PoleError

_POLE_FLOOR = 1e-300


@dataclass(frozen=True)
class PowerSeries:
    """Maclaurin coefficients a_0 ... a_L of a formal power series."""

    coeffs: np.ndarray = field()

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs))
        if c.ndim != 1 or c.size < 1:
            raise InvalidInputError("a power series needs at least one coefficient")
        if not np.all(np.isfinite(c)):
            raise InvalidInputError("power series coefficients must be finite")
        object.__setattr__(self, "coeffs", _as_readonly(c))


@dataclass(frozen=True)
class PadeApproximant:
    """Rational approximant P_M(x) / Q_N(x) with Q normalized so q_0 = 1.

    ``p`` holds p_0 ... p_M; ``q`` holds q_1 ... q_N (the implicit q_0 = 1 is
    not stored).
    """

    p: np.ndarray = field()
    q: np.ndarray = field()

    def __post_init__(self):
        p = np.atleast_1d(np.asarray(self.p))
        q = np.atleast_1d(np.asarray(self.q)) if np.asarray(self.q).size else np.zeros(0)
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
            raise InvalidInputError("non-finite approximant coefficients")
        object.__setattr__(self, "p", _as_readonly(p))
        object.__setattr__(self, "q", _as_readonly(q))

    @property
    def degrees(self) -> tuple[int, int]:
        return self.p.size - 1, self.q.size

    @property
    def q_full(self) -> np.ndarray:
        one = np.ones(1, dtype=self.q.dtype if self.q.size else self.p.dtype)
        return np.concatenate([one, self.q])


def horner(coeffs: np.ndarray, x):
    """Polynomial with coefficients c_0 ... c_n (lowest first) at scalar or array x.

    The one polynomial evaluation of the package, behind ``taylor_eval`` and
    ``eval_rational``.
    """
    acc = coeffs.dtype.type(0.0)
    for c in coeffs[::-1]:
        acc = acc * x + c
    return acc


def pade_from_series(s: PowerSeries, m: int, n: int) -> PadeApproximant:
    """[m/n] approximant by the linearized coefficient equations.

    The lower block (a Toeplitz system in a_{m-n+1} ... a_{m+n}) is solved for
    the denominator; the upper block then gives the numerator by convolution.
    The solve takes the minimum-norm least-squares solution: the unique one
    when the block is nonsingular, and a deterministic approximant when it is
    singular or rank-deficient (the series-match residual certifies it).
    """
    if m < 0 or n < 0:
        raise InvalidInputError(f"degrees must be non-negative, got M={m}, N={n}")
    a = s.coeffs
    if a.size < m + n + 1:
        raise InvalidInputError(
            f"series has {a.size} coefficients, [{m}/{n}] needs {m + n + 1}"
        )
    dtype = a.dtype if a.dtype in (np.float32, np.float64) else np.float64
    a = a.astype(dtype, copy=False)

    if n == 0:
        return PadeApproximant(a[: m + 1], np.zeros(0, dtype=dtype))

    # toeplitz[r, j] = a_{m+r-j}, zero where m + r - j < 0
    padded = np.concatenate([np.zeros(n, dtype=dtype), a])
    r = np.arange(n)
    toeplitz = padded[n + m + r[:, None] - r[None, :]]
    q = np.linalg.lstsq(toeplitz, -a[m + 1 : m + n + 1], rcond=None)[0]

    q_full = np.concatenate([np.ones(1, dtype=dtype), q])
    p = np.empty(m + 1, dtype=dtype)
    for i in range(m + 1):
        j_hi = min(i, n)
        p[i] = np.dot(q_full[: j_hi + 1], a[i - j_hi : i + 1][::-1])
    return PadeApproximant(p, q_full[1:])


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


def eval_rational(pa: PadeApproximant, x):
    """P(x) / Q(x) at scalar or array x, in the coefficients' precision.

    Horner evaluation of numerator and denominator, then one division. A
    denominator below ``_POLE_FLOOR`` in magnitude raises ``PoleError`` naming
    the first such x.
    """
    x = np.asarray(x, dtype=pa.p.dtype)
    num = horner(pa.p, x)
    den = horner(pa.q_full, x)
    pole = np.abs(den) < _POLE_FLOOR
    if pole.any():
        bad = float(x[pole][0] if x.ndim else x)
        raise PoleError(f"denominator vanishes at x = {bad!r}", x=bad)
    return num / den


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


def diagonal_degrees(k: int) -> tuple[int, int]:
    """Degrees (M, N) of the diagonal approximant matched to K coefficients.

    M + N + 1 = K with M = N + 1 when K is even (M = N for odd K), so the
    approximant consumes exactly the information of the degree-(K-1) Taylor
    polynomial; K = 100 gives [50/49].
    """
    k = _positive(k, "degree")
    n = (k - 1) // 2
    return k - 1 - n, n


def geometric_series(length: int, dtype=np.float64) -> PowerSeries:
    """Coefficients of 1/(1-x): all ones."""
    return PowerSeries(np.ones(length, dtype=dtype))


_PADE_CACHE: dict = {}


def reciprocal_gap_pade(k: int, dtype=np.float64) -> PadeApproximant:
    """Diagonal Pade approximant of 1/(1-x) matched to degree ``k``.

    This is the rational surrogate the gradient schemes evaluate at eigenvalue
    ratios, with coefficients of ``dtype``; cached per (degree, dtype) since
    construction involves a least-squares solve.
    """
    dtype = float_info(dtype).dtype
    m, n = diagonal_degrees(k)
    key = (m, n, dtype)
    if key not in _PADE_CACHE:
        _PADE_CACHE[key] = pade_from_series(geometric_series(m + n + 1, dtype), m, n)
    return _PADE_CACHE[key]


def taylor_eval(k: int, x, dtype=np.float64):
    """Degree-k truncation of the geometric series at scalar or array x."""
    return horner(np.ones(k + 1, dtype=dtype), np.asarray(x, dtype=dtype))


@dataclass(frozen=True)
class ApproximationErrorTable:
    kind: str
    degrees: tuple
    ratios: tuple
    errors: np.ndarray  # shape (len(ratios), len(degrees))

    def cell(self, ratio: float, degree: int) -> float:
        return float(self.errors[self.ratios.index(ratio), self.degrees.index(degree)])


def approximation_error_table(
    kind: str, degrees, ratios, dtype=np.float64
) -> ApproximationErrorTable:
    """Grid of absolute errors |1/(1-x) - approx(x)| computed in ``dtype``.

    ``kind`` selects the degree-K Taylor truncation or the degree-K-matched
    diagonal Pade approximant. Both grids need at least one entry.
    """
    if kind not in ("taylor", "pade"):
        raise InvalidInputError(f"kind must be 'taylor' or 'pade', got {kind!r}")
    dtype = float_info(dtype).dtype
    degrees = tuple(_positive(k, "degree") for k in degrees)
    ratios = tuple(float(r) for r in ratios)
    if not degrees or not ratios:
        raise InvalidInputError("the degree and ratio grids each need at least one entry")
    if any(not (0.0 <= r < 1.0) for r in ratios):
        raise InvalidInputError("ratios must lie in [0, 1)")
    x = np.array(ratios, dtype=dtype)
    exact = 1 / (1 - x)

    errors = np.zeros((len(ratios), len(degrees)))
    for j, k in enumerate(degrees):
        if kind == "taylor":
            approx = taylor_eval(k, x, dtype=dtype)
        else:
            approx = eval_rational(reciprocal_gap_pade(k, dtype), x)
        errors[:, j] = np.abs(exact - approx)
    return ApproximationErrorTable(kind, degrees, ratios, errors)
