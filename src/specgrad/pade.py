"""Pade approximant construction, evaluation, and error tables.

Two independent construction routes are provided: solving the linearized
coefficient equations (a Toeplitz system for the denominator, then a
convolution for the numerator), and the continued-fraction route that builds
the diagonal convergents through the quotient-difference scheme and the
three-term recurrence of successive convergents. For series whose Toeplitz
block is nonsingular the two agree, which the tests exploit.

The singular case matters here: the geometric series 1, 1, 1, ... produces an
all-ones Toeplitz block, and the minimum-norm least-squares solution keeps
high-degree diagonal approximants constructible and numerically exact.
Both routes and the evaluation run in the coefficients' dtype; the surrogate
and the error tables take theirs as a numpy dtype, float32 or float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import float_info
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
        c = np.array(c, copy=True)
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    def __len__(self) -> int:
        return self.coeffs.size


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
        p = np.array(p, copy=True)
        q = np.array(q, copy=True)
        p.flags.writeable = False
        q.flags.writeable = False
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

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
    A singular or rank-deficient Toeplitz block falls back to the minimum-norm
    least-squares solution, so degenerate series still yield a deterministic
    approximant (the series-match residual certifies it).
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

    toeplitz = np.zeros((n, n), dtype=dtype)
    for r in range(1, n + 1):
        for j in range(1, n + 1):
            idx = m + r - j
            if idx >= 0:
                toeplitz[r - 1, j - 1] = a[idx]
    rhs = -a[m + 1 : m + n + 1]

    if np.linalg.matrix_rank(toeplitz) < n:
        q, *_ = np.linalg.lstsq(toeplitz, rhs, rcond=None)
    else:
        q = np.linalg.solve(toeplitz, rhs)

    q_full = np.concatenate([np.ones(1, dtype=dtype), q.astype(dtype, copy=False)])
    p = np.empty(m + 1, dtype=dtype)
    for i in range(m + 1):
        j_hi = min(i, n)
        p[i] = np.dot(q_full[: j_hi + 1], a[i - j_hi : i + 1][::-1])
    return PadeApproximant(p, q_full[1:])


def _qd_cf_coefficients(s: PowerSeries, n: int) -> list:
    """Partial numerator factors c_2 ... c_{2n+1} of the regular C-fraction.

    The expansion a_0 + a_1 x / (1 - c_2 x / (1 - c_3 x / ...)) has odd
    convergents equal to the diagonal sequence [1/0], [2/1], ... The factors
    come from the quotient-difference scheme of the shifted series. A zero at
    the surface of the table means the fraction terminates (the series is
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

    # q_col[j][k] = q_j^(k), e_col[j][k] = e_j^(k); columns shrink with j
    q_col: dict[int, list] = {}
    e_col: dict[int, list] = {0: [0.0] * (2 * n + 1)}
    q1 = []
    for k in range(2 * n):
        if g[k] == 0.0:
            break
        q1.append(g[k + 1] / g[k])
    q_col[1] = q1

    coeffs: list = []
    for j in range(1, n + 1):
        qj = q_col[j]
        if not qj:
            return coeffs  # terminated before c_{2j}
        c_even = qj[0]
        if c_even == 0.0:
            return coeffs
        coeffs.append(c_even)

        ej = []
        for k in range(len(qj) - 1):
            ej.append(qj[k + 1] - qj[k] + e_col[j - 1][k + 1])
        e_col[j] = ej
        if not ej:
            return coeffs
        c_odd = ej[0]
        if c_odd == 0.0:
            return coeffs  # fraction terminates: series is rational of lower degree
        coeffs.append(c_odd)

        if j < n:
            q_next = []
            for k in range(len(ej) - 1):
                if ej[k] == 0.0:
                    raise NumericalFailureError(
                        "quotient-difference breakdown: zero partial denominator",
                        step=f"e_{j}^({k})",
                    )
                q_next.append(qj[k + 1] * ej[k + 1] / ej[k])
            q_col[j + 1] = q_next
    return coeffs


def pade_from_continued_fraction(s: PowerSeries, n: int) -> PadeApproximant:
    """Diagonal [n+1/n] approximant via successive continued-fraction convergents.

    Uses the recursion A_{k+1} = b_{k+1} A_k + a_{k+1} A_{k-1} (and the same
    for B) over polynomial coefficient vectors. If the underlying fraction
    terminates early the result keeps the lower exact degree.
    """
    if n < 0:
        raise InvalidInputError(f"n must be non-negative, got {n}")
    a = s.coeffs.astype(np.float64)
    cfs = _qd_cf_coefficients(s, n)

    # convergent 1: A = a_0 + a_1 x, B = 1
    a_prev = np.array([1.0])  # A_0 = a_0 as polynomial; A_{-1} = 1
    b_prev = np.array([0.0])
    a_cur = np.array([a[0]])
    b_cur = np.array([1.0])
    a_cur, a_prev = _poly_add(a_cur, _poly_shift_scale(a_prev, a[1])), a_cur
    b_cur, b_prev = _poly_add(b_cur, _poly_shift_scale(b_prev, a[1])), b_cur

    for c in cfs:
        a_cur, a_prev = _poly_add(a_cur, _poly_shift_scale(a_prev, -c)), a_cur
        b_cur, b_prev = _poly_add(b_cur, _poly_shift_scale(b_prev, -c)), b_cur

    b0 = b_cur[0]
    if b0 == 0.0:
        raise NumericalFailureError(
            "continued-fraction convergent has zero constant denominator", step="normalize"
        )
    return PadeApproximant(_poly_trim(a_cur / b0), _poly_trim(b_cur / b0)[1:])


def _poly_trim(coeffs: np.ndarray) -> np.ndarray:
    nz = np.nonzero(coeffs)[0]
    return coeffs[: nz[-1] + 1] if nz.size else coeffs[:1]


def _poly_shift_scale(coeffs: np.ndarray, scale: float) -> np.ndarray:
    """scale * x * poly(coeffs)."""
    return np.concatenate([[0.0], scale * coeffs])


def _poly_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.size < b.size:
        a, b = b, a
    out = a.copy()
    out[: b.size] += b
    return out


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
    if k < 1:
        raise InvalidInputError(f"degree must be at least 1, got {k}")
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
    key = (k, dtype)
    if key not in _PADE_CACHE:
        m, n = diagonal_degrees(k)
        series = geometric_series(k, dtype=dtype)
        _PADE_CACHE[key] = pade_from_series(series, m, n)
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
    degrees = tuple(int(d) for d in degrees)
    ratios = tuple(float(r) for r in ratios)
    if not degrees or not ratios:
        raise InvalidInputError("the degree and ratio grids each need at least one entry")
    if any(k < 1 for k in degrees):
        raise InvalidInputError(f"degree must be at least 1, got {min(degrees)}")
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
