"""Student-t and standard-normal distribution functions.

Everything downstream needs exactly four probability objects: the two-sided
tail of a t variable, t quantiles, and the normal CDF/quantile pair.  The
implementations delegate to SciPy's regularized-incomplete-beta kernels,
which evaluate these quantities to near machine precision; the wrappers add
strict argument validation and array broadcasting.

The two-sided tail is computed directly as ``I_{v/(v+c^2)}(v/2, 1/2)``
rather than ``2*(1 - cdf(c))`` so that far-tail values keep full relative
accuracy.
"""
from __future__ import annotations

import numpy as np
from scipy import special

from .errors import InvalidParameterError

__all__ = [
    "t_two_sided_tail",
    "t_quantile",
    "normal_cdf",
    "normal_quantile",
]

# Above this many degrees of freedom the t distribution is numerically
# indistinguishable from the normal, and the beta kernels lose accuracy.
_MAX_DOF = 10**6


def _checked_dof(dof) -> np.ndarray:
    arr = np.asarray(dof)
    if not np.issubdtype(arr.dtype, np.number):
        raise InvalidParameterError(f"degrees of freedom must be numeric, got {dof!r}")
    if np.any(arr != np.floor(arr)) or np.any(arr < 1):
        raise InvalidParameterError(f"degrees of freedom must be integers >= 1, got {dof!r}")
    return arr.astype(np.float64)


def _as_float(x, broadcast_inputs) -> float | np.ndarray:
    """Return a python float for scalar inputs, an ndarray otherwise."""
    if all(np.isscalar(b) or np.asarray(b).ndim == 0 for b in broadcast_inputs):
        return float(x)
    return np.asarray(x, dtype=np.float64)


def t_two_sided_tail(dof, threshold) -> float | np.ndarray:
    """P(|t_dof| > threshold) for a Student-t variable.

    Args:
        dof: degrees of freedom, integer-valued and >= 1 (broadcastable).
        threshold: nonnegative tail threshold c (broadcastable).

    Returns:
        The symmetric two-sided tail probability in [0, 1].
    """
    v = _checked_dof(dof)
    c = np.asarray(threshold, dtype=np.float64)
    if np.any(~np.isfinite(c)) or np.any(c < 0):
        raise InvalidParameterError(f"threshold must be finite and >= 0, got {threshold!r}")
    small = np.minimum(v, _MAX_DOF)
    tail = special.betainc(0.5 * small, 0.5, small / (small + c * c))
    if np.any(v > _MAX_DOF):
        normal_tail = 2.0 * special.ndtr(-c)
        tail = np.where(v > _MAX_DOF, normal_tail, tail)
    return _as_float(tail, (dof, threshold))


def t_quantile(dof, p) -> float | np.ndarray:
    """Quantile q with P(t_dof <= q) = p, for p in (0, 1).

    Evaluated in the upper tail and reflected, so quantile(p) equals
    -quantile(1-p) exactly.
    """
    v = _checked_dof(dof)
    pa = np.asarray(p, dtype=np.float64)
    if np.any(~((pa > 0.0) & (pa < 1.0))):
        raise InvalidParameterError(f"probability must lie in (0, 1), got {p!r}")
    sign = np.where(pa >= 0.5, 1.0, -1.0)
    upper = np.maximum(pa, 1.0 - pa)
    q = sign * np.where(
        v > _MAX_DOF,
        special.ndtri(upper),
        special.stdtrit(np.minimum(v, _MAX_DOF), upper),
    )
    return _as_float(q, (dof, p))


def normal_cdf(x) -> float | np.ndarray:
    """Standard normal CDF."""
    return _as_float(special.ndtr(np.asarray(x, dtype=np.float64)), (x,))


def normal_quantile(p) -> float | np.ndarray:
    """Standard normal quantile, p in (0, 1); exactly antisymmetric about 0.5."""
    pa = np.asarray(p, dtype=np.float64)
    if np.any(~((pa > 0.0) & (pa < 1.0))):
        raise InvalidParameterError(f"probability must lie in (0, 1), got {p!r}")
    sign = np.where(pa >= 0.5, 1.0, -1.0)
    return _as_float(sign * special.ndtri(np.maximum(pa, 1.0 - pa)), (p,))
