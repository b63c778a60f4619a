"""Student-t and standard-normal distribution functions, on numpy and math alone.

Everything downstream needs exactly four probability objects: the two-sided
tail of a t variable, t quantiles, and the normal CDF/quantile pair.

The two-sided tail is computed directly as the regularized incomplete beta
``I_x(v/2, 1/2)`` with ``x = v/(v+c^2)``, rather than as ``2*(1 - cdf(c))``,
so that far-tail values keep full relative accuracy: the even contraction of
its continued fraction (in the symmetric form ``1 - I_{1-x}(1/2, v/2)``
above ``x = (a+1)/(a+2.5)``, a = v/2), times ``x^a (1-x)^(1/2) / B(a, 1/2)``,
whose logarithms are ``log1p`` of ``c^2/v`` and ``v/c^2`` (pow takes it in
the far tail).  Against a 40-digit oracle it is within 1e-13 (relative) for
dof up to 1e6 and tails down to 1e-300 (tests/test_distributions.py).  The
normal tail is ``math.erfc``.  Quantiles invert the smaller of p and 1 - p,
so a tiny lower tail keeps its digits: the normal one by Halley steps from a
rational start, the t one by Newton steps on the log tail in log c (closed
forms at dof 1 and 2).  Every function evaluates an array element by
element on one plain-float path, so a tail never depends on the batch it is
in.  `_largest_tail` finds the largest of many tails, evaluating only those
that bounds from their prefactors cannot rule out.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParameterError

__all__ = [
    "t_two_sided_tail",
    "t_quantile",
    "normal_cdf",
    "normal_quantile",
]

# Above this many degrees of freedom the t distribution is numerically
# indistinguishable from the normal, and the continued fraction slows down.
_MAX_DOF = 10**6
# The continued fraction stops when a convergent moves by under about 2 ulp
# (a tighter stop is never met once the steps round to 1 ulp).
_CF_TOL = 4e-16
# Its steps run in blocks of 16 (most tails need fewer); each block end
# rescales (A, B) by B.
_CF_BLOCK = 16
_CF_MAX_STEPS = 5000
# Above c^2/v = e^2 - 1 (log x below -2), pow(x, a) rounds the prefactor
# better than exp(a log x), whose exponent alone carries a * |log x| ulp.
_POW_FROM = math.e**2 - 1.0
_LOG_SQRT_PI = 0.5 * math.log(math.pi)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# log B(v/2, 1/2) = log sqrt(pi) - (lgamma(v/2 + 1/2) - lgamma(v/2)): by
# lgamma below dof 60 (a table), by its asymptotic series above, where the
# difference of lgammas loses digits and the series errs by under 1e-16.
_SERIES_DOF = 60
_LOG_BETA_SMALL = np.array([0.0] + [math.lgamma(0.5 * v) - math.lgamma(0.5 * v + 0.5) + _LOG_SQRT_PI
                                    for v in range(1, _SERIES_DOF)])


def _log_beta_series(a):
    """log B(a, 1/2) for a >= 30, on a float or an array."""
    b = 1.0 / (a * a)
    return _LOG_SQRT_PI - 0.5 * np.log(a) + (0.125 - (1 / 192 - (1 / 640 - 17 / 14336 * b) * b) * b) / a


def _cf_step(p, q, y, y1, symmetric: bool, n):
    """Coefficients (beta_n, alpha_n), n >= 1, of the even contraction
    1/(w + alpha_1/(beta_1 + alpha_2/(beta_2 + ...))) of the continued
    fraction 1/(1 + d1/(1 + d2/(1 + ...))) that is I_y(p, q) over its
    prefactor (Numerical Recipes' betacf), with w = 1 + d1,
    beta_n = 1 + d_2n + d_2n+1 and alpha_n = -d_2n-1 d_2n, where
    d_2n = n(q-n)y / ((p+2n-1)(p+2n)) and d_2n+1 = -t_n y with
    t_n = (p+n)(p+q+n) / ((p+2n)(p+2n+1)).  In the direct form (q = 1/2, y
    near 1) 1 - t_n y cancels, so it is formed as (1 - t_n) + t_n y1 from
    y1 = 1 - y."""
    den = (p + 2 * n) * (p + (2 * n + 1))
    t = (p + n) * (p + q + n) / den
    lead = 1.0 - t * y if symmetric else (p * (2 * n + 1 - q) + n * (3 * n + 2 - q)) / den + t * y1
    even = n * (q - n) * y / ((p + (2 * n - 1)) * (p + 2 * n))
    t_prev = (p + (n - 1)) * (p + q + (n - 1)) / ((p + (2 * n - 2)) * (p + (2 * n - 1)))
    return lead + even, t_prev * y * even


def _cf_scalar(p: float, q: float, y: float, y1: float, w: float, symmetric: bool) -> float:
    """The contracted fraction by the three-term recurrence of its
    convergents A/B, from (A0, B0) = (0, 1) and (A1, B1) = (1, w), where the
    caller forms w = 1 + d1 without cancellation.  Below the symmetry switch
    no B comes near 0."""
    a0, b0, a1, b1 = 0.0, 1.0, 1.0, w
    last = a1 / b1
    for start in range(1, _CF_MAX_STEPS, _CF_BLOCK):
        for n in range(start, start + _CF_BLOCK):
            beta, alpha = _cf_step(p, q, y, y1, symmetric, n)
            a0, b0, a1, b1 = a1, b1, beta * a1 + alpha * a0, beta * b1 + alpha * b0
            f = a1 / b1
            if abs(f - last) < _CF_TOL * f:
                return f
            last = f
        a0, b0, a1, b1 = a0 / b1, b0 / b1, a1 / b1, 1.0
    raise ArithmeticError(f"continued fraction for I_{y}({p}, {q}) did not converge")  # pragma: no cover


def _tail_scalar(v: float, c: float) -> tuple[float, float]:
    """Two-sided t tail at c for dof v <= _MAX_DOF, and its prefactor
    x^a (1-x)^(1/2) / B(a, 1/2), which is c times the t density at c.  The
    prefactor goes through numpy's ufuncs, as `_prefactor_array`'s does (a
    one-element exponent keeps numpy from taking x^0.5 as a sqrt)."""
    a, c2 = 0.5 * v, c * c
    if c2 == 0.0:
        return 1.0, 0.0
    x, x1 = v / (v + c2), 1.0 / (1.0 + v / c2)  # x and 1 - x
    log_beta = _LOG_BETA_SMALL[int(v)] if v < _SERIES_DOF else float(_log_beta_series(a))
    if c2 > _POW_FROM * v:
        base, power = (math.sqrt(v) / c, v) if c2 == math.inf else (x, a)
        front = float(np.power(base, [power])[0] * np.sqrt(x1) * np.exp(-log_beta))
    else:
        front = float(np.exp(-(a * np.log1p(c2 / v) + 0.5 * np.log1p(v / c2)) - log_beta))
    # I_x(a, 1/2) directly, or I_{1-x}(1/2, a) above x = (a+1)/(a+2.5), with
    # w = 1 + d1 formed without the cancellation near the switch
    symmetric = c2 * (a + 1.0) < 1.5 * v
    if symmetric:
        p, q, y, y1, w = 0.5, a, x1, x, (v * (3.0 - c2) + 2.0 * c2) / (3.0 * (v + c2))
    else:
        p, q, y, y1, w = a, 0.5, x, x1, (0.5 + (a + 0.5) * x1) / (a + 1.0)
    tail = front * _cf_scalar(p, q, y, y1, w, symmetric) / p
    return (1.0 - tail if symmetric else tail), front


def _prefactor_array(v: np.ndarray, c: np.ndarray):
    """(a, x, 1 - x, prefactor, log prefactor) of `_tail_scalar` on 1-D
    arrays of dof <= _MAX_DOF and thresholds.  Where c^2 overflows, x^a is
    (sqrt(v)/c)^v and log x is log v - 2 log c."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # c = 0 or c^2 = inf
        a, c2 = 0.5 * v, c * c
        x, x1 = v / (v + c2), 1.0 / (1.0 + v / c2)
        series = v >= _SERIES_DOF
        log_beta = np.where(series, _log_beta_series(np.maximum(a, 0.5 * _SERIES_DOF)),
                            _LOG_BETA_SMALL[np.where(series, 0, v).astype(np.intp)])
        huge = c2 == np.inf
        log_front = np.where(huge, a * (np.log(v) - 2.0 * np.log(c)), -a * np.log1p(c2 / v)) \
            - 0.5 * np.log1p(v / c2) - log_beta
        front = np.where(c2 > _POW_FROM * v, np.power(np.where(huge, np.sqrt(v) / c, x), np.where(huge, v, a))
                         * np.sqrt(x1) * np.exp(-log_beta), np.exp(log_front))
    return a, x, x1, front, log_front


_SQRT_HALF = math.sqrt(0.5)


def _normal_tail(z: float) -> float:
    """P(N > z).  Rounding z/sqrt 2 costs up to about 2 z^2 ulp (1.8e-13 near
    z = 37), as in scipy's ndtr."""
    return 0.5 * math.erfc(z * _SQRT_HALF)


def _tail(v: float, c: float) -> float:
    return 2.0 * _normal_tail(c) if v > _MAX_DOF else _tail_scalar(v, c)[0]


def _checked_dof(dof) -> np.ndarray:
    arr = np.asarray(dof)
    if not np.issubdtype(arr.dtype, np.number):
        raise InvalidParameterError(f"degrees of freedom must be numeric, got {dof!r}")
    if np.any(arr != np.floor(arr)) or np.any(arr < 1):
        raise InvalidParameterError(f"degrees of freedom must be integers >= 1, got {dof!r}")
    return arr.astype(np.float64)


def _checked_probability(p) -> np.ndarray:
    pa = np.asarray(p, dtype=np.float64)
    if np.any(~((pa > 0.0) & (pa < 1.0))):
        raise InvalidParameterError(f"probability must lie in (0, 1), got {p!r}")
    return pa


def _as_float(x, broadcast_inputs) -> float | np.ndarray:
    """Return a python float for scalar inputs, an ndarray otherwise."""
    if all(np.isscalar(b) or np.asarray(b).ndim == 0 for b in broadcast_inputs):
        return float(x)
    return np.asarray(x, dtype=np.float64)


def _elementwise(func, *arrays) -> np.ndarray:
    """func over the broadcast float arrays, element by element."""
    arrays = np.broadcast_arrays(*arrays)
    flat = [arr.ravel().tolist() for arr in arrays]
    return np.array([func(*args) for args in zip(*flat)], dtype=np.float64).reshape(arrays[0].shape)


def t_two_sided_tail(dof, threshold) -> float | np.ndarray:
    """P(|t_dof| > threshold) for a Student-t variable.

    Args:
        dof: degrees of freedom, integer-valued and >= 1 (broadcastable).
        threshold: nonnegative tail threshold c (broadcastable).

    Returns:
        The symmetric two-sided tail probability in [0, 1]: a float when
        both inputs are 0-d, else an array of their broadcast shape, evaluated
        element by element.
    """
    v = _checked_dof(dof)
    c = np.asarray(threshold, dtype=np.float64)
    if np.any(~np.isfinite(c)) or np.any(c < 0):
        raise InvalidParameterError(f"threshold must be finite and >= 0, got {threshold!r}")
    if v.ndim == 0 and c.ndim == 0:
        return _tail(float(v), float(c))
    return _tails(v, c)


def _tails(v: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Two-sided tails on float arrays of valid dof and thresholds."""
    return _elementwise(_tail, v, c)


def _largest_tail(dof: np.ndarray, threshold: np.ndarray) -> tuple[float, int]:
    """max and first argmax of `t_two_sided_tail` over 1-D arrays of valid
    dof and thresholds > 0, bit for bit, evaluating only the tails that can
    attain it.  I_x(a, 1/2) is its prefactor over a times the series
    sum_n r_n x^n, r_n = prod_{i<n} (a+1/2+i)/(a+1+i), whose factors lie in
    [rho, 1) with rho = (a+1/2)/(a+1); so prefactor/(a(1 - rho x)) <= tail
    <= prefactor/(a(1 - x)).  In the symmetric form the tail is 1 minus
    twice the prefactor times a series of positive terms, 1 + (2a+1)(1-x)/3
    + ..., which bounds it from above too.  The bounds are compared as
    logarithms, which order the tails even where every prefactor underflows;
    a tail whose upper bound is below the largest lower bound is skipped.
    When the largest tail evaluates to 0, every tail does, and the first is
    the argmax."""
    v, c = (np.asarray(arr, dtype=np.float64) for arr in (dof, threshold))
    idx = np.arange(v.size)
    if v.size > 1:
        normal = v > _MAX_DOF  # no bounds: always evaluated
        a, x, x1, front, log_front = _prefactor_array(np.where(normal, 1.0, v), c)
        with np.errstate(divide="ignore", invalid="ignore"):  # x1 = 0, or nan: evaluated
            lower = np.where(normal, -np.inf, log_front + np.log((a + 1.0) / (a * ((a + 1.0) * x1 + 0.5 * x))))
            upper = np.minimum(log_front - np.log(a * x1),
                               np.log(1.0 - 2.0 * front * (1.0 + (2.0 * a + 1.0) / 3.0 * x1) + 1e-15))
            idx = idx[normal | ~(upper + 1e-9 < lower.max())]
    tails = _tails(v[idx], c[idx])
    best = int(np.argmax(tails))
    return (0.0, 0) if tails[best] == 0.0 else (float(tails[best]), int(idx[best]))


def _t_quantile_upper(v: float, tail: float) -> float:
    """The q >= 0 with P(t_v > q) = tail, for 0 < tail <= 1/2."""
    if v > _MAX_DOF or tail == 0.5:
        return _normal_quantile_upper(tail)
    if v == 1.0:
        return 1.0 / math.tan(math.pi * tail)
    if v == 2.0:
        return (1.0 - 2.0 * tail) / math.sqrt(2.0 * tail * (1.0 - tail))
    z = _normal_quantile_upper(tail)
    z2 = z * z  # start: two terms of the Cornish-Fisher expansion
    c = z + z * (z2 + 1.0) / (4.0 * v) + z * ((5.0 * z2 + 16.0) * z2 + 3.0) / (96.0 * v * v)
    log_target = math.log(2.0 * tail)
    # The log tail is concave in log c with slope -2 front / tail, so Newton
    # overshoots at most once and then converges quadratically from above.
    for _ in range(100):
        t, front = _tail_scalar(v, c)
        step = t * (math.log(t) - log_target) / (2.0 * front)
        c *= math.exp(step)
        if abs(step) < 1e-9:  # the next error is of order step^2
            return c
    raise ArithmeticError(f"t quantile for dof {v} at tail {tail} did not converge")  # pragma: no cover


def t_quantile(dof, p) -> float | np.ndarray:
    """Quantile q with P(t_dof <= q) = p, for p in (0, 1).

    Inverts the smaller of p and 1 - p, so a tiny lower-tail p keeps its
    precision; quantile(p) equals -quantile(1 - p) whenever 1 - p is exact.
    An array is evaluated element by element.
    """
    v, pa = _checked_dof(dof), _checked_probability(p)
    q = _elementwise(lambda vi, pi: math.copysign(_t_quantile_upper(vi, min(pi, 1.0 - pi)), pi - 0.5), v, pa)
    return _as_float(q, (dof, p))


def normal_cdf(x) -> float | np.ndarray:
    """Standard normal CDF; an array is evaluated element by element."""
    return _as_float(_elementwise(lambda z: _normal_tail(-z), np.asarray(x, dtype=np.float64)), (x,))


def _normal_quantile_upper(tail: float) -> float:
    """The z >= 0 with P(N > z) = tail, for 0 < tail <= 1/2: Abramowitz and
    Stegun 26.2.23 (error under 4.5e-4), then Halley steps on `_normal_tail`."""
    if tail == 0.5:
        return 0.0
    t = math.sqrt(-2.0 * math.log(tail))
    z = t - (2.515517 + (0.802853 + 0.010328 * t) * t) / (1.0 + (1.432788 + (0.189269 + 0.001308 * t) * t) * t)
    for _ in range(3):
        # (tail(z) - target) / density(z), written so that nothing overflows
        u = (_normal_tail(z) / tail - 1.0) * math.exp(math.log(tail) + 0.5 * z * z + _LOG_SQRT_2PI)
        z += u / (1.0 - 0.5 * z * u)
    return z


def normal_quantile(p) -> float | np.ndarray:
    """Standard normal quantile, p in (0, 1).

    Inverts the smaller of p and 1 - p, so a tiny lower-tail p keeps its
    precision; antisymmetric about 0.5 whenever 1 - p is exact.  An array
    is evaluated element by element.
    """
    pa = _checked_probability(p)
    q = _elementwise(lambda pi: math.copysign(_normal_quantile_upper(min(pi, 1.0 - pi)), pi - 0.5), pa)
    return _as_float(q, (p,))
