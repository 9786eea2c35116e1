"""Pade approximant construction, evaluation, and error tables.

An approximant is built by solving the linearized coefficient equations: one
minimum-norm least-squares solve of a Toeplitz system for the denominator,
then a convolution for the numerator. The tests check it against a second
construction, the continued fraction of ``tests/oracles.py``, which agrees
wherever the Toeplitz block is nonsingular.

The singular case matters here: the geometric series 1, 1, 1, ... produces an
all-ones Toeplitz block, and the minimum-norm solution keeps high-degree
diagonal approximants constructible and numerically exact.
Float32 coefficients stay float32 and any other real ones become float64;
the construction runs in that width and the evaluation in its complex type.
The surrogate and the error grid take theirs as a numpy dtype. The grid is a
plain array whose axes are the caller's own ratios and degrees.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .core import _as_readonly, _finite, _float_array, _non_negative, _positive, float_info
from .errors import InvalidInputError, PoleError

#: |Q(x)| below this is a pole. float32 cannot hold 1e-300 (it rounds to 0),
#: so there the floor is float32's smallest normal
_POLE_FLOOR = 1e-300
_POLE_FLOOR_FLOAT32 = float(np.finfo(np.float32).tiny)


@dataclass(frozen=True)
class PowerSeries:
    """Maclaurin coefficients a_0 ... a_L of a formal power series."""

    coeffs: np.ndarray = field()

    def __post_init__(self):
        c = np.atleast_1d(_float_array(self.coeffs, "power series coefficients", single=True))
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
        p = np.atleast_1d(_float_array(self.p, "approximant p", single=True))
        q = np.atleast_1d(_float_array(self.q, "approximant q", single=True))
        width = np.result_type(p, q)  # one width for both: float32 only if both are
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
            raise InvalidInputError("non-finite approximant coefficients")
        object.__setattr__(self, "p", _as_readonly(p.astype(width, copy=False)))
        object.__setattr__(self, "q", _as_readonly(q.astype(width, copy=False)))

    @property
    def degrees(self) -> tuple[int, int]:
        return self.p.size - 1, self.q.size

    @property
    def q_full(self) -> np.ndarray:
        return np.concatenate([np.ones(1, dtype=self.q.dtype), self.q])

    @functools.cached_property
    def packed(self) -> np.ndarray:
        """Read-only p_m + i q_m (q_0 = 1), zero-padded to the longer of the two.

        The coefficients ``eval_rational`` runs its one Horner pass over, in the
        complex type of p's width; packed on first use and kept, as the
        approximant is immutable.
        """
        out = np.zeros(max(self.p.size, self.q.size + 1), dtype=np.result_type(self.p.dtype, 0j))
        out.real[: self.p.size] = self.p
        out.imag[: self.q.size + 1] = self.q_full
        out.flags.writeable = False
        return out


def horner(coeffs: np.ndarray, x):
    """Polynomial with coefficients c_0 ... c_n (lowest first) at scalar or array x.

    The one polynomial evaluation of the package, behind ``eval_rational``;
    it updates one array of x's shape in place (a 0-d array for scalar x).
    """
    acc = np.zeros_like(x, dtype=np.result_type(coeffs, x))
    for c in coeffs[::-1]:
        acc *= x
        acc += c
    return acc


def pade_from_series(s: PowerSeries, m: int, n: int) -> PadeApproximant:
    """[m/n] approximant by the linearized coefficient equations.

    The lower block (a Toeplitz system in a_{m-n+1} ... a_{m+n}) is solved for
    the denominator; the upper block then gives the numerator by convolution.
    The solve takes the minimum-norm least-squares solution: the unique one
    when the block is nonsingular, and a deterministic approximant when it is
    singular or rank-deficient. Both degrees are counts that may be zero.
    """
    m, n = _non_negative(m, "degree M"), _non_negative(n, "degree N")
    a = s.coeffs
    if a.size < m + n + 1:
        raise InvalidInputError(f"series has {a.size} coefficients, [{m}/{n}] needs {m + n + 1}")

    # toeplitz[r, j] = a_{m+r-j}, zero where m + r - j < 0
    padded = np.concatenate([np.zeros(n, dtype=a.dtype), a])
    r = np.arange(n)
    toeplitz = padded[n + m + r[:, None] - r[None, :]]
    q = np.linalg.lstsq(toeplitz, -a[m + 1 : m + n + 1], rcond=None)[0]

    q_full = np.concatenate([np.ones(1, dtype=a.dtype), q])
    p = np.empty(m + 1, dtype=a.dtype)
    for i in range(m + 1):
        j_hi = min(i, n)
        p[i] = np.dot(q_full[: j_hi + 1], a[i - j_hi : i + 1][::-1])
    return PadeApproximant(p, q_full[1:])


def eval_rational(pa: PadeApproximant, x):
    """P(x) / Q(x) at scalar or array x, in the coefficients' precision.

    A [K/0] approximant (the Taylor polynomial) has Q = 1 and no pole, so one
    real Horner pass gives its value. Otherwise one Horner pass on x + 0j
    over the packed coefficients p_m + i q_m (``PadeApproximant.packed``,
    built once per approximant) gives P(x) as its real part and Q(x) as its
    imaginary part. The cross terms of each product are exact zeros, so
    finite halves are bit-identical to two real passes; a half
    that overflows before the last step makes the other nan (inf * 0), far
    outside the ratios in [0, 1] the package evaluates. A denominator below
    ``_POLE_FLOOR`` in magnitude (float32: its smallest normal) raises
    ``PoleError`` naming the first such x. A non-finite x is invalid input.
    """
    x = _float_array(x, "x", single=True).astype(pa.p.dtype, copy=False)
    if not _finite(x):
        raise InvalidInputError(f"x must be finite, got {float(x[~np.isfinite(x)][0])!r}")
    if not pa.q.size:
        return horner(pa.p, x)[()]  # a scalar for scalar x, like the quotient below
    pq = horner(pa.packed, x + 0j)
    floor = _POLE_FLOOR_FLOAT32 if pq.real.dtype == np.float32 else _POLE_FLOOR
    pole = np.abs(pq.imag) < floor
    if pole.any():
        bad = float(x[pole][0])
        raise PoleError(f"denominator vanishes at x = {bad!r}", x=bad)
    return pq.real / pq.imag


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


def reciprocal_gap_pade(kind: str, k: int, dtype=np.float64) -> PadeApproximant:
    """Series surrogate of 1/(1-x) of ``kind`` matched to degree ``k``.

    ``taylor`` is the degree-k Taylor polynomial, the [k/0] approximant;
    ``pade`` is the diagonal approximant of ``diagonal_degrees(k)``. This is
    the surrogate the series schemes evaluate at eigenvalue ratios and the
    error tables measure, with coefficients of ``dtype``; cached per (M, N,
    dtype) since construction involves a least-squares solve.
    """
    if kind not in ("taylor", "pade"):
        raise InvalidInputError(f"kind must be 'taylor' or 'pade', got {kind!r}")
    dtype = float_info(dtype).dtype
    m, n = (_positive(k, "degree"), 0) if kind == "taylor" else diagonal_degrees(k)
    key = (m, n, dtype)
    if key not in _PADE_CACHE:
        _PADE_CACHE[key] = pade_from_series(geometric_series(m + n + 1, dtype), m, n)
    return _PADE_CACHE[key]


def approximation_error_table(kind: str, degrees, ratios, dtype=np.float64) -> np.ndarray:
    """Absolute errors |1/(1-x) - approx(x)| computed in ``dtype``, one row per ratio.

    Returns a float64 array of shape (len(ratios), len(degrees)), in the
    order given: entry (i, j) is the error at ``ratios[i]`` of the
    ``reciprocal_gap_pade(kind, degrees[j], dtype)`` surrogate, the [K/0]
    Taylor polynomial or the degree-K-matched diagonal Pade approximant.
    Both grids need at least one entry, and every ratio must lie in [0, 1),
    both as given and as cast to ``dtype``: float32 rounds 0.99999999 to 1.0,
    the pole of 1/(1-x), which is refused naming the ratio and the width.
    """
    dtype = float_info(dtype).dtype
    degrees = [_positive(k, "degree") for k in degrees]
    r = np.ravel(_float_array(ratios, "ratios"))
    if not degrees or not r.size:
        raise InvalidInputError("the degree and ratio grids each need at least one entry")
    if not np.all((0.0 <= r) & (r < 1.0)):
        raise InvalidInputError("ratios must lie in [0, 1)")
    x = r.astype(dtype)
    for given, cast in zip(r.tolist(), x.tolist()):
        if not 0.0 <= cast < 1.0:
            raise InvalidInputError(
                f"ratio {given!r} rounds to {cast!r} in {dtype.name}, outside [0, 1)"
            )
    exact = 1 / (1 - x)

    errors = np.zeros((x.size, len(degrees)))
    for j, k in enumerate(degrees):
        errors[:, j] = np.abs(exact - eval_rational(reciprocal_gap_pade(kind, k, dtype), x))
    return errors
